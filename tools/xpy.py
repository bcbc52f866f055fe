"""
Cross-interpreter byte check of the command line, with the standard library only.

    python3.11 tools/xpy.py python3.10 python3.12 python3.13

Runs each command line of INVOCATIONS under the interpreter running this
tool, the reference, and under each interpreter given, every run a fresh
`python -m meshlab.cli` process on this checkout's src/ in its own empty
working directory.  A run's stdout, exit code and the bytes of every file
it writes there (a `--report` or `--cache` argument) must equal the
reference's.
stderr is shown on a mismatch but not compared: argparse words its usage
errors differently across versions.  Prints one line per interpreter and one
per mismatch; exits 0 when every interpreter matches, 1 otherwise.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT, CACHE = "report.json", "cache.json"  # relative to each run's working directory

INVOCATIONS: list[tuple[str, ...]] = [
    ("verify", "--suite", "all", "--report", REPORT),
    ("verify", "--suite", "all", "--format", "json", "--report", REPORT),
    ("verify", "--suite", "coeff-laws", "--max-length", "11", "--report", REPORT),
    ("verify", "--suite", "symmetry", "--max-length", "9", "--strict"),
    *(("series", "--gf", gf, "--order", "40", "--format", "json")
      for gf in ("A", "B", "C", "D", "sec^x", "secx", "tanx")),
    ("series", "--gf", "A", "--order", "12"),
    ("series", "--gf", "B", "--order", "12", "--format", "csv"),
    # (sec t)^x is A's rows reversed: the order-0 row and a latex row 2 pin the edges
    ("series", "--gf", "sec^x", "--order", "0"),
    ("series", "--gf", "sec^x", "--order", "2", "--format", "latex"),
    *(("table", "--family", f, "--max-index", "12", "--format", "latex") for f in "ABCD"),
    ("table", "--family", "B", "--max-index", "9", "--format", "csv"),
    ("table", "--family", "C", "--max-index", "9"),
    ("table", "--family", "D", "--max-index", "5", "--format", "json", "--cache", CACHE),
    ("brute", "--length", "10", "--class", "ud", "--pattern", "1,0,0,0"),
    ("brute", "--length", "9", "--class", "du", "--pattern", "1,0,0,0", "--format", "json"),
    ("brute", "--length", "12", "--class", "ud", "--pattern", "1,0,e,0"),
    ("brute", "--length", "11", "--class", "du", "--pattern", "0,e,1,e", "--format", "csv"),
    ("brute", "--length", "9", "--class", "ud", "--pattern", "e,2,0,1", "--format", "latex"),
    ("brute", "--length", "40", "--class", "du", "--pattern", "2,0,0,1", "--force"),
    ("brute", "--length", "0", "--class", "ud", "--pattern", "0,0,0,0"),
    ("unimodal", "--max-index", "8"),
    # exit codes other than 0: the guard (3) and usage errors (2)
    ("brute", "--length", "15", "--class", "ud", "--pattern", "1,0,0,0"),
    ("brute", "--length", "5", "--class", "ud", "--pattern", "1,0,0"),
    ("series", "--gf", "A", "--order", "41"),
    ("table", "--family", "E", "--max-index", "3"),
]


def run(python: str, argv: tuple[str, ...]) -> tuple[str, int, dict[str, bytes], str]:
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
    expected = [run(sys.executable, argv) for argv in INVOCATIONS]
    print(f"reference {sys.executable} ({version(sys.executable)}): {len(INVOCATIONS)} "
          f"command lines, exit codes {sorted({code for _, code, _, _ in expected})}")
    mismatched = 0
    for python in args.pythons:
        wrong = []
        for argv, (out, code, written, _) in zip(INVOCATIONS, expected):
            got_out, got_code, got_written, got_err = run(python, argv)
            parts = [name for name, same in (
                ("stdout", got_out == out), ("exit code", got_code == code),
                ("files", got_written == written)) if not same]
            if parts:
                wrong.append(f"  {' '.join(argv)}: {', '.join(parts)} differ"
                             f" (exit {got_code}, stderr {got_err.strip()[-200:]!r})")
        print(f"{python} ({version(python)}): "
              + (f"{len(wrong)} of {len(INVOCATIONS)} differ" if wrong else "all match"))
        for line in wrong:
            print(line)
        mismatched += bool(wrong)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
