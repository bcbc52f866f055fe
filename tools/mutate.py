"""
Single-mutant testing with the standard library's ast module only.

    python3 tools/mutate.py src/meshlab/distributions.py _longest_solve \
        --tests tests/test_distributions.py

Each mutant changes one node inside the named functions (a method is named
Class.method; nested functions count as part of their outer one) or inside
the value of a named module-level assignment (a table; a tuple unpacking is
named by any of its names): a comparison flipped (< <=, > >=, == !=,
is / is not, in / not in), an arithmetic or boolean operator swapped (+ -,
* //, << >>, and / or), a `not` dropped or an int constant moved by one
either way.  In a function, each bare expression statement (a call made
for its effect, such as a flush; a docstring excepted) also becomes `pass`,
and each decorator (such as a @cache) is dropped.  In a table, two
neighbouring entries of a tuple, a list, a call's arguments or a dict's
values (a **mapping entry excepted) also trade places, and one entry of a
tuple, a list, a set or a dict (key and value) is dropped, so a table of
strings alone gets mutants too.  The module is rewritten with ast.unparse
into a copy of the repository and the given tests run there with -x; a
mutant that passes them survives.  The unparsed, unmutated module must pass
the same tests first (if it does not, the tool prints pytest's FAILED and
ERROR lines and stops), and that run's time sets each mutant's timeout: a
mutant run that takes longer (say, one whose mutation made a loop endless)
is stopped and counts as killed.
"""
from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_FACTOR, TIMEOUT_FLOOR_S = 10, 5.0  # a mutant's timeout, from the unmutated run
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
}
ENTRIES = {ast.Tuple: "elts", ast.List: "elts", ast.Call: "args", ast.Dict: "values"}
DROPS = {ast.Tuple: ["elts"], ast.List: ["elts"], ast.Set: ["elts"], ast.Dict: ["keys", "values"]}


def targets(tree: ast.Module, names: set[str]) -> list[tuple[ast.stmt, ast.AST]]:
    """(statement, subtree to mutate) per named function, method or assignment."""
    found = {}
    for top in tree.body:
        members = top.body if isinstance(top, ast.ClassDef) else []
        for node, prefix in [(top, "")] + [(m, f"{top.name}.") for m in members]:
            if isinstance(node, ast.FunctionDef) and prefix + node.name in names:
                found[prefix + node.name] = (node, node)
        if isinstance(top, ast.Assign | ast.AnnAssign) and top.value is not None:
            bound = top.targets if isinstance(top, ast.Assign) else [top.target]
            for name in (n for t in bound for n in ast.walk(t) if isinstance(n, ast.Name)):
                if name.id in names:
                    found[name.id] = (top, top.value)  # never the annotation
    if missing := names - set(found):
        raise SystemExit(f"no function or assignment named {', '.join(sorted(missing))}")
    return list(dict.fromkeys(found.values()))  # _Q2 and _Q3 may name one statement


def mutants(tree: ast.Module, names: set[str]):
    """Yield a label per mutant while the tree holds it; the tree is restored after."""
    for stmt, root in targets(tree, names):
        parents = {c: p for p in ast.walk(stmt) for c in ast.iter_child_nodes(p)}
        for node in ast.walk(root):
            if isinstance(node, ast.Compare):
                edits = [("ops", node.ops[:i] + [SWAPS[type(op)]()] + node.ops[i + 1:])
                         for i, op in enumerate(node.ops) if type(op) in SWAPS]
            elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
                edits = [("op", SWAPS[type(node.op)]())]
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                edits = [("value", node.value + 1), ("value", node.value - 1)]
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                yield from replacement(parents[node], node, node.operand)
                continue
            elif isinstance(node, ast.Expr) and not isinstance(node.value, ast.Constant):
                yield from replacement(parents[node], node, ast.Pass())
                continue
            elif isinstance(node, ast.FunctionDef):
                decorators = node.decorator_list
                for i, decorator in enumerate(decorators):
                    node.decorator_list = decorators[:i] + decorators[i + 1:]
                    yield f"line {decorator.lineno}: @{ast.unparse(decorator)} on {node.name} dropped"
                node.decorator_list = decorators
                continue
            elif (type(node) in ENTRIES or type(node) in DROPS) and root is not stmt:
                yield from entry_mutants(node)
                continue
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


def entry_mutants(node: ast.AST):
    """Yield a label per traded or dropped entry of a table's container while node holds it."""
    before = ast.unparse(node)

    def label(entry: ast.AST, change: str) -> str:
        shown = f"{before}  ->  {ast.unparse(node)}" if len(before) <= 60 else change  # a long table
        return f"line {entry.lineno}: {shown}"

    if field := ENTRIES.get(type(node)):
        items = getattr(node, field)
        for i in range(len(items) - 1):
            a, b = items[i], items[i + 1]
            # a **mapping entry has the key None: trading it would unpack the other value
            spread = isinstance(node, ast.Dict) and None in node.keys[i:i + 2]
            if ast.dump(a) != ast.dump(b) and not spread:
                setattr(node, field, items[:i] + [b, a] + items[i + 2:])
                yield label(a, f"{ast.unparse(a)}  <->  {ast.unparse(b)}")
                setattr(node, field, items)
    fields = DROPS.get(type(node), [])
    columns = [getattr(node, f) for f in fields]
    for i, item in enumerate(columns[-1] if columns else []):
        for f, column in zip(fields, columns):
            setattr(node, f, column[:i] + column[i + 1:])
        entry = ast.unparse(item)
        if isinstance(node, ast.Dict):  # shown as key: value, or **value
            entry = ast.unparse(ast.Dict([columns[0][i]], [item]))[1:-1]
        yield label(item, f"{entry} dropped")
        for f, column in zip(fields, columns):
            setattr(node, f, column)


def replacement(parent: ast.AST, node: ast.AST, new: ast.AST):
    """Yield a label while new stands in node's place in parent's field."""
    for field, value in ast.iter_fields(parent):
        if value is node:
            edited = new
        elif isinstance(value, list) and any(item is node for item in value):
            edited = [new if item is node else item for item in value]
        else:
            continue
        setattr(parent, field, edited)
        yield f"line {node.lineno}: {ast.unparse(node)}  ->  {ast.unparse(new)}"
        setattr(parent, field, value)
        return
    raise AssertionError("node is not a child of parent")


def outcome(work: Path, tests: list[str], timeout: float | None = None) -> tuple[str, list[str]]:
    """
    How the tests end ("passed", "failed", or "timed out" past timeout
    seconds), with pytest's FAILED and ERROR summary lines.
    """
    env = dict(os.environ, PYTHONPATH=str(work / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
            cwd=work, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timed out", []
    failures = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return "passed" if proc.returncode == 0 else "failed", failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("module", help="source file, relative to the repository root")
    parser.add_argument(
        "functions", nargs="+", help="function, Class.method or module-level assignment names"
    )
    parser.add_argument("--tests", action="append", required=True, help="pytest arguments")
    args = parser.parse_args()
    tree = ast.parse((ROOT / args.module).read_text())
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_*"))
        target = work / args.module
        target.write_text(ast.unparse(tree))
        start = time.perf_counter()
        result, failures = outcome(work, args.tests)  # no -x: every failing test is named
        if result != "passed":
            raise SystemExit("\n".join(["the unmutated, unparsed module fails the tests:", *failures]))
        baseline = time.perf_counter() - start
        timeout = max(TIMEOUT_FACTOR * baseline, TIMEOUT_FLOOR_S)
        print(f"unmutated run {baseline:.1f} s, mutant timeout {timeout:.1f} s", flush=True)
        total = survived = 0
        for label in mutants(tree, set(args.functions)):
            target.write_text(ast.unparse(tree))
            total += 1
            result, _ = outcome(work, ["-x", *args.tests], timeout)
            survived += result == "passed"
            shown = {"passed": "SURVIVED", "failed": "killed"}.get(result, result)
            print(f"{shown:<10}{label}", flush=True)
    print(f"{total - survived} of {total} mutants killed, {survived} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
