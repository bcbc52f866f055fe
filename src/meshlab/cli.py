"""
Command-line surface.

Subcommands: table (family polynomial rows), verify (the verification
suites), series (EGF coefficient views), brute (the enumeration oracle) and
unimodal (conjecture scan).  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 enumeration guard refusal.

Output formats: plain (default), csv, json and latex.  The polynomial
renderer factors out the smallest power of x, the same presentation the
published tables use.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import cache
from pathlib import Path

from .algebra import Poly, Rational, sec_series, tan_series
from .distributions import (
    BruteForceLimitError,
    Family,
    brute_force_limit,
    dist_brute,
    egf_family,
    env_int,
    family_polynomial,
    sec_t_power_of_x,
)
from .permutations import DOWN_UP, UP_DOWN, QuadrantSpec, format_pattern

DEFAULT_MAX_SERIES_ORDER = 40
SERIES_ORDER_ENV = "MESHLAB_MAX_SERIES_ORDER"

FORMATS = ("plain", "csv", "json", "latex")
# verify.SUITE_RUNNERS' keys, in its order: verify (and with it coeff_laws and
# reference) is imported only by the commands that run a suite
SUITES = ("tables", "symmetry", "oracle", "egf", "coeff-laws", "closed-forms")
WORKERS_HELP = (
    "accepted for compatibility; enumeration runs in one thread and the results do not depend on it"
)


# ---------------------------------------------------------------------------
# Polynomial rendering.
# ---------------------------------------------------------------------------


def _term(c: Rational, power: int) -> str:
    coef = str(c) if c.denominator == 1 else f"({c})"
    if power == 0:
        return coef
    body = "x" if power == 1 else f"x^{power}"
    if c == 1:
        return body
    if c == -1:
        return f"-{body}"
    return coef + body


def format_poly(poly: Poly) -> str:
    """
    Compact factored form: the smallest power of x is pulled out front.

    >>> format_poly(Poly([0, 0, 3, 2]))
    'x^2(3+2x)'
    >>> format_poly(Poly([0, 2])), format_poly(Poly([1])), format_poly(Poly())
    ('2x', '1', '0')
    """
    if poly.is_zero():
        return "0"
    low = next(i for i, c in enumerate(poly.coeffs) if c)
    inner = poly.coeffs[low:]
    if len(inner) == 1:
        return _term(inner[0], low)
    # no coefficient's text holds "+", so "+-" only ever joins a negative term
    body = "+".join(_term(c, j) for j, c in enumerate(inner) if c).replace("+-", "-")
    return body if low == 0 else f"{_term(1, low)}({body})"


def format_poly_latex(poly: Poly) -> str:
    """Same factoring, TeX spelling: exponents braced, \\left( ... \\right)."""
    text = re.sub(r"x\^(\d+)", r"x^{\1}", format_poly(poly))
    return text.replace("(", r"\left(").replace(")", r"\right)")


# ---------------------------------------------------------------------------
# Pattern argument.
# ---------------------------------------------------------------------------

_EMPTY_SPELLINGS = {"e", "E", "none", "empty", "∅"}


def parse_pattern(text: str) -> QuadrantSpec:
    """
    "a,b,c,d" with nonnegative integers, where "e" (leniently also "empty"
    or the empty-set glyph) marks a quadrant that must stay empty.
    """
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"pattern needs four entries, got {text!r}")
    reqs: list[int | None] = []
    for part in parts:
        if part in _EMPTY_SPELLINGS:
            reqs.append(None)
        else:
            try:
                value = int(part)
            except ValueError as exc:
                raise ValueError(f"bad pattern entry {part!r}") from exc
            if value < 0:
                raise ValueError(f"bad pattern entry {part!r}")
            reqs.append(value)
    return QuadrantSpec(*reqs)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_table(args) -> int:
    family = Family(args.family)
    rows = [(index, family.length(index), family_polynomial(family, index))
            for index in range(family.min_index(), args.max_index + 1)]
    if args.format == "json":
        print(json.dumps([cache_record(family, i, p) for i, _, p in rows], indent=2))
    elif args.format == "latex":
        for _, length, poly in rows:
            print(f"{family.value}_{{{length}}}(x) &= {format_poly_latex(poly)} \\\\")
    else:
        if args.format == "csv":
            print("index,length,polynomial")
        for index, length, poly in rows:
            print(index, length, format_poly(poly), sep="," if args.format == "csv" else " ")
    if args.cache:
        try:
            _update_cache(Path(args.cache), family, rows)
        except (OSError, ValueError, RecursionError) as exc:
            if isinstance(exc, OSError):  # the reason, not the temporary file's name
                exc = OSError(exc.errno, exc.strerror)
            print(f"error: cannot update cache {args.cache}: {exc}", file=sys.stderr)
            return 1
    return 0


def cache_record(family: Family, index: int, poly: Poly) -> dict:
    """One row of the --cache JSON list; decimal strings keep big coefficients exact."""
    return {
        "family": family.value,
        "index": index,
        "length": family.length(index),
        "coeffs": [str(c) for c in poly.coeffs],
        "provenance": "recursion",
    }


_FAMILY_VALUES = tuple(f.value for f in Family)  # a tuple: JSON lists are unhashable


def _is_cache_record(record) -> bool:
    """A row cache_record could have written: a family A-D and an int index >= 0."""
    # a bool is an int: ("A", True) would be taken for row ("A", 1)
    return (
        isinstance(record, dict)
        and record.get("family") in _FAMILY_VALUES
        and type(record.get("index")) is int
        and record["index"] >= 0
    )


def _update_cache(path: Path, family: Family, rows) -> None:
    """Merge rows into the cache file; ValueError if it holds anything else."""
    records = json.loads(path.read_text()) if path.exists() else []
    if not isinstance(records, list) or not all(map(_is_cache_record, records)):
        raise ValueError("not a JSON list of cache records")
    by_key = {(r["family"], r["index"]): r for r in records}
    for index, _, poly in rows:
        by_key[(family.value, index)] = cache_record(family, index, poly)
    merged = [by_key[k] for k in sorted(by_key)]
    # a sibling replaces the cache once whole: a failed write leaves the old one
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(merged, indent=2) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def cmd_verify(args) -> int:
    from .verify import is_adjudication, report_json, run_suite, write_report

    results = run_suite(args.suite, max_length=args.max_length)
    if args.report:
        try:
            write_report(args.report, results)
        except OSError as exc:
            print(f"error: cannot write report {args.report}: {exc}", file=sys.stderr)
            return 1
    if args.format == "json":
        print(report_json(results))
    else:
        for result in results:
            print(result.summary())
            for failure in result.failures():
                tag = "adjudication" if is_adjudication(failure) else "FAILURE"
                print(
                    f"  [{tag}] {failure['check']} family={failure['family']} "
                    f"k={failure['k']} n={failure['n']} variant={failure['variant']}: "
                    f"expected {failure['expected']}, got {failure['actual']}"
                )
    ok = all(r.passed_strict if args.strict else r.passed for r in results)
    if not ok and all(r.passed for r in results):  # failed by --strict alone
        n = sum(len(r.failures()) for r in results)
        print(f"error: --strict: {n} adjudications disagree", file=sys.stderr)
    return 0 if ok else 1


# --gf names a family A-D or one of these
_SERIES = {"secx": sec_series, "tanx": tan_series, "sec^x": sec_t_power_of_x}


def cmd_series(args) -> int:
    if args.gf in _SERIES:
        series = _SERIES[args.gf](args.order)
    else:
        series = egf_family(Family(args.gf), args.order)
    if args.format == "json":
        print(json.dumps(
            {
                "series": args.gf,
                "convention": "coefficient n multiplies t^n/n!",
                "coefficients": [[str(c) for c in p.coeffs] for p in series.coeffs],
            },
            indent=2,
        ))
        return 0
    csv = args.format == "csv"
    render = format_poly_latex if args.format == "latex" else format_poly
    print("n,coefficient" if csv else f"# {args.gf}: coefficient of t^n/n! per row")
    for n, poly in enumerate(series.coeffs):
        print(n, render(poly), sep="," if csv else " ")
    return 0


def cmd_brute(args) -> int:
    cls = UP_DOWN if args.cls == "ud" else DOWN_UP
    try:
        spec = parse_pattern(args.pattern)
        poly = dist_brute(args.length, cls, spec, force=args.force)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    count = sum(poly.coeffs)
    if args.format == "json":
        print(json.dumps(
            {
                "length": args.length,
                "class": args.cls,
                "pattern": format_pattern(spec),
                "coeffs": [str(c) for c in poly.coeffs],
                "permutations": count,
            },
            indent=2,
        ))
    elif args.format == "csv":
        print("length,class,pattern,polynomial,permutations")
        print(f"{args.length},{args.cls},\"{format_pattern(spec)}\","
              f"{format_poly(poly)},{count}")
    else:
        rendered = format_poly_latex(poly) if args.format == "latex" else format_poly(poly)
        print(f"{rendered} over {count} permutations")
    return 0


def cmd_unimodal(args) -> int:
    from .verify import run_unimodality

    result = run_unimodality(args.max_index)
    for record in result.records:
        verdict = "unimodal" if record["verdict"] == "pass" else "NOT UNIMODAL"
        print(f"{record['family']} index {record['n']}: {verdict} ({record['variant']})")
    return 0 if result.passed_strict else 1


# ---------------------------------------------------------------------------
# Wiring.
# ---------------------------------------------------------------------------


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


@cache
def build_parser() -> argparse.ArgumentParser:
    """One parser per process: parsing leaves it unchanged; it holds no env value or handler."""
    parser = argparse.ArgumentParser(
        prog="meshlab",
        description="Exact quadrant marked mesh pattern distributions over "
        "alternating permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="family polynomial table rows")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--max-index", type=_int_at_least(0), required=True)
    p.add_argument("--format", choices=FORMATS, default="plain")
    p.add_argument("--cache", help="JSON cache file to create or update")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES) + ["all"])
    p.add_argument("--max-length", type=_int_at_least(1), default=None)
    p.add_argument("--workers", type=_int_at_least(1), default=1, help=WORKERS_HELP)
    p.add_argument("--strict", action="store_true",
                   help="adjudication disagreements also fail the run")
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--format", choices=("plain", "json"), default="plain")

    p = sub.add_parser("series", help="EGF coefficients")
    p.add_argument("--gf", required=True, choices=sorted(_FAMILY_VALUES + tuple(_SERIES)))
    p.add_argument("--order", type=_int_at_least(0), required=True)
    p.add_argument("--format", choices=FORMATS, default="plain")

    p = sub.add_parser("brute", help="exhaustive oracle for one distribution")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--class", dest="cls", required=True, choices=("ud", "du"))
    p.add_argument("--pattern", required=True, help='e.g. "1,0,0,0" or "1,0,e,0"')
    p.add_argument("--workers", type=_int_at_least(1), default=1, help=WORKERS_HELP)
    p.add_argument("--force", action="store_true",
                   help="override the enumeration length guard")
    p.add_argument("--format", choices=FORMATS, default="plain")

    p = sub.add_parser("unimodal", help="unimodality scan of the four families")
    p.add_argument("--max-index", type=_int_at_least(0), default=8)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a malformed environment override is a usage error, not a traceback
    try:
        series_cap = env_int(SERIES_ORDER_ENV, DEFAULT_MAX_SERIES_ORDER)
        brute_force_limit()
    except ValueError as exc:
        parser.error(str(exc))
    if args.command == "series" and args.order > series_cap:
        parser.error(f"--order is capped at {series_cap}")
    # every coefficient prints whole: CPython's int-to-str digit limit (none
    # before 3.10.7) is lifted for the command and the caller's put back after
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    # looked up per call, so a rebound cmd_* (a tracer's wrapper) is the one run
    try:
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe raises here, not in the exit flush
        return code
    except BruteForceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # the reader closed stdout: what is left flushes to devnull
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
