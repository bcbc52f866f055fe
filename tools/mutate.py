"""
Single-mutant testing with the standard library's ast module only.

    python3 tools/mutate.py src/meshlab/distributions.py _longest_solve \
        --tests tests/test_distributions.py

Each mutant changes one node inside the named functions (a method is named
Class.method; nested functions count as part of their outer one): a
comparison flipped (< <=, > >=, == !=, is / is not), an arithmetic operator
swapped (+ -, * //, << >>) or an int constant moved by one either way.  The
module is rewritten with ast.unparse into a copy of the repository and the
given tests run there with -x; a mutant that passes them survives.  The
unparsed, unmutated module must pass the same tests first.
"""
from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300.0  # a test run that takes longer, say a mutant loop, kills its mutant
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}


def functions(tree: ast.Module, names: set[str]) -> list[ast.AST]:
    found = {}
    for top in tree.body:
        members = top.body if isinstance(top, ast.ClassDef) else []
        for node, prefix in [(top, "")] + [(m, f"{top.name}.") for m in members]:
            if isinstance(node, ast.FunctionDef) and prefix + node.name in names:
                found[prefix + node.name] = node
    if missing := names - set(found):
        raise SystemExit(f"no function named {', '.join(sorted(missing))}")
    return list(found.values())


def mutants(tree: ast.Module, names: set[str]):
    """Yield a label per mutant while the tree holds it; the tree is restored after."""
    for func in functions(tree, names):
        parents = {c: p for p in ast.walk(func) for c in ast.iter_child_nodes(p)}
        for node in ast.walk(func):
            if isinstance(node, ast.Compare):
                edits = [("ops", node.ops[:i] + [SWAPS[type(op)]()] + node.ops[i + 1:])
                         for i, op in enumerate(node.ops) if type(op) in SWAPS]
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
                edits = [("op", SWAPS[type(node.op)]())]
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                edits = [("value", node.value + 1), ("value", node.value - 1)]
            else:
                continue
            shown = node  # a constant is shown with what it is part of
            while isinstance(shown, ast.Constant | ast.UnaryOp | ast.Slice):
                shown = parents[shown]
            before = ast.unparse(shown)
            for field, value in edits:
                old = getattr(node, field)
                setattr(node, field, value)
                yield f"line {node.lineno}: {before}  ->  {ast.unparse(shown)}"
                setattr(node, field, old)


def passes(work: Path, tests: list[str]) -> bool:
    env = dict(os.environ, PYTHONPATH=str(work / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("module", help="source file, relative to the repository root")
    parser.add_argument("functions", nargs="+", help="function or Class.method names")
    parser.add_argument("--tests", action="append", required=True, help="pytest arguments")
    args = parser.parse_args()
    tree = ast.parse((ROOT / args.module).read_text())
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_*"))
        target = work / args.module
        target.write_text(ast.unparse(tree))
        if not passes(work, args.tests):
            raise SystemExit("the unmutated, unparsed module fails the tests")
        total = survived = 0
        for label in mutants(tree, set(args.functions)):
            target.write_text(ast.unparse(tree))
            total += 1
            survives = passes(work, args.tests)
            survived += survives
            print(("SURVIVED  " if survives else "killed    ") + label, flush=True)
    print(f"{total - survived} of {total} mutants killed, {survived} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
