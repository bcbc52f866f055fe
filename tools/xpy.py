"""
Cross-interpreter byte check of the command line, with the standard library only.

    python3.11 tools/xpy.py python3.10 python3.12 python3.13

Runs each command line of tests/command_lines.json under the interpreter
running this tool, the reference, and under each interpreter given, every
run a fresh `python -m meshlab.cli` process on this checkout's src/ in its
own empty working directory.  A run's stdout, exit code and the bytes of
every file it writes there (a `--report` or `--cache` argument) must equal
the reference's.
stderr is shown on a mismatch but not compared: argparse words its usage
errors differently across versions.  Prints one line per interpreter and one
per mismatch; exits 0 when every interpreter matches, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the pinned command lines; tier-1 checks their digests against this checkout
COMMAND_LINES = ROOT / "tests" / "command_lines.json"


def run(python: str, argv: list[str]) -> tuple[str, int, dict[str, bytes], str]:
    """stdout, exit code, the bytes of each file written, by name, and stderr."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="xpy-") as cwd:
        proc = subprocess.run(
            [python, "-m", "meshlab.cli", *argv], cwd=cwd, env=env, capture_output=True, text=True
        )
        written = {path.name: path.read_bytes() for path in Path(cwd).iterdir()}
    return proc.stdout, proc.returncode, written, proc.stderr


def version(python: str) -> str:
    proc = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("pythons", nargs="+", help="interpreters to compare with this one")
    args = parser.parse_args()
    argvs = [line["argv"] for line in json.loads(COMMAND_LINES.read_text())]
    expected = [run(sys.executable, argv) for argv in argvs]
    print(f"reference {sys.executable} ({version(sys.executable)}): {len(argvs)} "
          f"command lines, exit codes {sorted({code for _, code, _, _ in expected})}")
    mismatched = 0
    for python in args.pythons:
        wrong = []
        for argv, (out, code, written, _) in zip(argvs, expected):
            got_out, got_code, got_written, got_err = run(python, argv)
            parts = [name for name, same in (
                ("stdout", got_out == out), ("exit code", got_code == code),
                ("files", got_written == written)) if not same]
            if parts:
                wrong.append(f"  {' '.join(argv)}: {', '.join(parts)} differ"
                             f" (exit {got_code}, stderr {got_err.strip()[-200:]!r})")
        print(f"{python} ({version(python)}): "
              + (f"{len(wrong)} of {len(argvs)} differ" if wrong else "all match"))
        for line in wrong:
            print(line)
        mismatched += bool(wrong)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
