"""
Cross-interpreter byte check of the command line, with the standard library only.

    python3 tools/xpy.py python3.10 python3.11 python3.12 python3.13

Runs each command line of tests/command_lines.json under each interpreter
given, every run a fresh `python -m meshlab.cli` process on this checkout's
src/ in its own empty working directory, with no MESHLAB_* variable set.
A run's exit code, the sha256 of its stdout and of every file it writes there
(a `--report` or `--cache` argument), and whether it writes to stderr must
equal the row's.  The stderr text is shown on a mismatch but not compared:
argparse words its usage errors differently across versions.  Prints one line
per interpreter and one per mismatch; exits 0 when every interpreter matches
every row, 1 otherwise.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the pinned command lines; tier-1 checks them in process against this checkout
COMMAND_LINES = ROOT / "tests" / "command_lines.json"


def run(python: str, argv: list[str]) -> tuple[dict, str]:
    """The run in the table's terms (exit, stdout, files, stderr) and its stderr."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MESHLAB_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    with tempfile.TemporaryDirectory(prefix="xpy-") as cwd:
        proc = subprocess.run([python, "-m", "meshlab.cli", *argv], cwd=cwd, env=env,
                              capture_output=True)
        files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in Path(cwd).iterdir()}
    got = {"exit": proc.returncode, "stdout": hashlib.sha256(proc.stdout).hexdigest(),
           "files": files, "stderr": proc.stderr != b""}
    return got, proc.stderr.decode(errors="replace")


def version(python: str) -> str:
    proc = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("pythons", nargs="+", help="interpreters to check against the table")
    args = parser.parse_args()
    lines = json.loads(COMMAND_LINES.read_text())
    print(f"{COMMAND_LINES.relative_to(ROOT)}: {len(lines)} command lines, exit codes "
          f"{sorted({line['exit'] for line in lines})}")
    mismatched = 0
    for python in args.pythons:
        wrong = []
        for line in lines:
            got, err = run(python, line["argv"])
            parts = [key for key in ("exit", "stdout", "files", "stderr") if got[key] != line[key]]
            if parts:
                wrong.append(f"  {' '.join(line['argv'])}: {', '.join(parts)} differ"
                             f" (exit {got['exit']}, stderr {err.strip()[-200:]!r})")
        print(f"{python} ({version(python)}): "
              + (f"{len(wrong)} of {len(lines)} differ" if wrong else "all match"))
        for line in wrong:
            print(line)
        mismatched += bool(wrong)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
