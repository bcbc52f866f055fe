import contextlib
import doctest
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import meshlab.cli
import meshlab.coeff_laws
import meshlab.distributions as dist
import meshlab.verify
from meshlab.algebra import EgfSeries, Poly
from meshlab.cli import (
    FORMATS,
    format_pattern,
    format_poly,
    format_poly_latex,
    main,
    parse_pattern,
)
from meshlab.distributions import Family, family_polynomial
from meshlab.permutations import DOWN_UP, QuadrantSpec
from meshlab.records import make_record
from meshlab.verify import SUITE_RUNNERS, SuiteResult, run_egf, run_suite, run_unimodality


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_module_doctests():
    assert doctest.testmod(meshlab.cli).failed == 0


# --- polynomial rendering ----------------------------------------------------


_MONO_FACTOR = re.compile(r"^(\d*)(x)(?:\^(\d+))?\((.+)\)$")
_TERM = re.compile(r"^([+-]?)(?:\((-?\d+)/(\d*[1-9]\d*)\)|(\d+))?(x(?:\^(\d+))?)?$")


def _parse_sum(text: str) -> Poly:
    # split into signed terms at top level; coefficients may carry (a/b) parens, b != 0
    pieces: list[str] = []
    depth = 0
    current = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and current not in ("", "+", "-"):
            pieces.append(current)
            current = ch
        else:
            current += ch
    pieces.append(current)
    total = Poly.zero()
    for piece in pieces:
        m = _TERM.match(piece)
        if not m or piece in ("", "+", "-"):
            raise ValueError(f"cannot parse polynomial term {piece!r}")
        sign, num, den, integer, xpart, power = m.groups()
        if num is not None:
            coeff = Fraction(int(num), int(den))
        elif integer is not None:
            coeff = Fraction(int(integer))
        elif xpart:
            coeff = Fraction(1)
        else:
            raise ValueError(f"cannot parse polynomial term {piece!r}")
        if sign == "-":
            coeff = -coeff
        exponent = 0
        if xpart:
            exponent = int(power) if power else 1
        total = total + Poly.monomial(coeff, exponent)
    return total


def parse_poly(text: str) -> Poly:
    """Inverse of format_poly: the round-trip check of the rendered forms."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty polynomial text")
    m = _MONO_FACTOR.match(text)
    if m:
        coeff, _, power, inner = m.groups()
        factor = Poly.monomial(int(coeff or 1), int(power or 1))
        return factor * _parse_sum(inner)
    return _parse_sum(text)


def test_format_poly_basic():
    assert format_poly(Poly()) == "0"
    assert format_poly(Poly([1])) == "1"
    assert format_poly(Poly([0, 1])) == "x"
    assert format_poly(Poly([0, 2])) == "2x"
    assert format_poly(Poly([0, 0, 3, 2])) == "x^2(3+2x)"
    assert format_poly(Poly([3, 0, 2])) == "3+2x^2"
    assert format_poly(Poly([0, -1, 1])) == "x(-1+x)"
    assert format_poly(Poly([0, -1])) == "-x"
    assert format_poly(Poly([0, 0, 1, -1])) == "x^2(1-x)"


def test_format_poly_fraction_coefficients():
    p = Poly([Fraction(2, 3), 1])
    assert format_poly(p) == "(2/3)+x"
    assert parse_poly(format_poly(p)) == p


@pytest.mark.parametrize("family", list(Family))
def test_format_parse_roundtrip_on_family_rows(family):
    for index in range(family.min_index(), 9):
        poly = family_polynomial(family, index)
        assert parse_poly(format_poly(poly)) == poly


def test_parse_poly_forms():
    assert parse_poly("x^2(3+2x)") == Poly([0, 0, 3, 2])
    assert parse_poly("16x^3(3+8x+6x^2)") == Poly([0, 0, 0, 48, 128, 96])
    assert parse_poly("x") == Poly([0, 1])
    assert parse_poly("0").is_zero()
    assert parse_poly("3x^2+2x^3") == Poly([0, 0, 3, 2])
    assert parse_poly("x(-1+x)") == Poly([0, -1, 1])
    with pytest.raises(ValueError):
        parse_poly("3y^2+?")


@pytest.mark.parametrize("text", ["(1/0)x", "(1/0)", "3+(-2/00)x^2", "x^2((1/0)+x)"])
def test_parse_poly_zero_denominator_is_a_value_error(text):
    # unreadable text, as the docstring promises, not a ZeroDivisionError
    with pytest.raises(ValueError, match="cannot parse"):
        parse_poly(text)


def test_format_poly_latex():
    assert format_poly_latex(Poly([0, 0, 3, 2])) == r"x^{2}\left(3+2x\right)"
    assert format_poly_latex(Poly([0, 1])) == "x"


# --- pattern argument --------------------------------------------------------


def test_pattern_parsing():
    assert parse_pattern("1,0,0,0") == QuadrantSpec(1, 0, 0, 0)
    assert parse_pattern("1,0,e,0") == QuadrantSpec(1, 0, None, 0)
    # lenient spellings
    assert parse_pattern("1, 0, empty, 0") == QuadrantSpec(1, 0, None, 0)
    assert parse_pattern("1,0,∅,0") == QuadrantSpec(1, 0, None, 0)
    assert format_pattern(QuadrantSpec(1, 0, None, 0)) == "1,0,e,0"
    with pytest.raises(ValueError):
        parse_pattern("1,0,0")
    with pytest.raises(ValueError):
        parse_pattern("1,0,-2,0")


def test_pattern_roundtrip():
    for spec in (QuadrantSpec(0, 0, 0, 0), QuadrantSpec(2, None, 1, None)):
        assert parse_pattern(format_pattern(spec)) == spec


# --- table command -----------------------------------------------------------


def test_table_plain(capsys):
    code, out, _ = run(capsys, "table", "--family", "A", "--max-index", "2")
    assert code == 0
    polys = [line.split()[-1] for line in out.strip().splitlines()]
    assert polys == ["1", "x", "x^2(3+2x)"]


def test_table_plain_d_row_one(capsys):
    code, out, _ = run(capsys, "table", "--family", "D", "--max-index", "1")
    assert code == 0
    assert out.strip().splitlines() == ["1 1 1"]


def test_table_csv_trivial_row(capsys):
    code, out, _ = run(
        capsys, "table", "--family", "A", "--max-index", "0", "--format", "csv"
    )
    assert code == 0
    assert out.strip().splitlines() == ["index,length,polynomial", "0,0,1"]


def test_table_csv_roundtrip(capsys):
    code, out, _ = run(
        capsys, "table", "--family", "C", "--max-index", "6", "--format", "csv"
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        index, length, poly_text = line.split(",", 2)
        assert parse_poly(poly_text) == family_polynomial(Family.C, int(index))
        assert Family.C.length(int(index)) == int(length)


def test_table_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "table", "--family", "B", "--max-index", "7", "--format", "json"
    )
    assert code == 0
    records = json.loads(out)
    assert [r["index"] for r in records] == list(range(1, 8))
    for rec in records:
        assert Poly(int(c) for c in rec["coeffs"]) == family_polynomial(
            Family.B, rec["index"]
        )


def test_table_latex(capsys):
    code, out, _ = run(
        capsys, "table", "--family", "A", "--max-index", "2", "--format", "latex"
    )
    assert code == 0
    assert r"A_{4}(x) &= x^{2}\left(3+2x\right) \\" in out


def test_table_cache_write_and_merge(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    code, _, _ = run(
        capsys, "table", "--family", "A", "--max-index", "3", "--cache", str(cache)
    )
    assert code == 0
    code, _, _ = run(
        capsys, "table", "--family", "D", "--max-index", "2", "--cache", str(cache)
    )
    assert code == 0
    records = json.loads(cache.read_text())
    keys = {(r["family"], r["index"]) for r in records}
    assert keys == {("A", 0), ("A", 1), ("A", 2), ("A", 3), ("D", 1), ("D", 2)}
    for rec in records:
        assert rec["provenance"] == "recursion"
        assert all(isinstance(c, str) for c in rec["coeffs"])
    assert cache.read_text() == json.dumps(records, indent=2) + "\n"


def test_table_cache_unwritable_still_prints(tmp_path, capsys):
    bogus = tmp_path / "missing-dir" / "cache.json"
    code, out, err = run(
        capsys, "table", "--family", "A", "--max-index", "1", "--cache", str(bogus)
    )
    assert code == 1
    assert "x" in out  # the table itself was printed
    assert "cache" in err


def test_table_cache_error_names_the_cache_not_its_temporary_file(tmp_path, capsys, monkeypatch):
    # the write goes through a pid-suffixed sibling, whose name stays out of
    # the message, so the text is the same on every run
    monkeypatch.chdir(tmp_path)
    code, _, err = run(
        capsys, "table", "--family", "A", "--max-index", "1", "--cache", "nodir/c.json"
    )
    assert (code, err) == (
        1, "error: cannot update cache nodir/c.json: [Errno 2] No such file or directory\n"
    )


@pytest.mark.parametrize(
    "content",
    ["not json", "[1, 2]", '{"keep": "me"}', "{}",
     '[{"family": "A", "index": true}]', '[{"family": "Q", "index": 1}]',
     '[{"family": "A", "index": -1}]', '[{"family": ["A"], "index": 1}]'],
    ids=["not-json", "list-of-ints", "object", "empty-object",
         "bool-index", "unknown-family", "negative-index", "list-family"],
)
def test_table_cache_malformed_still_prints(tmp_path, capsys, content):
    cache = tmp_path / "cache.json"
    cache.write_text(content)
    code, out, err = run(
        capsys, "table", "--family", "A", "--max-index", "1", "--cache", str(cache)
    )
    assert code == 1
    assert "x" in out  # the table itself was printed
    assert "error: cannot update cache" in err
    assert cache.read_text() == content


def test_table_cache_too_deep_to_parse_still_prints(tmp_path, capsys):
    # json.loads raises RecursionError, not ValueError, on deep nesting
    cache = tmp_path / "deep.json"
    cache.write_text("[" * 100_000)
    old = cache.read_bytes()
    code, out, err = run(
        capsys, "table", "--family", "A", "--max-index", "1", "--cache", str(cache)
    )
    assert code == 1
    assert "x" in out  # the table itself was printed
    assert err.startswith(f"error: cannot update cache {cache}: ") and err.count("\n") == 1
    assert cache.read_bytes() == old


def test_table_cache_failed_write_keeps_the_old_cache(tmp_path, capsys, monkeypatch):
    # a write that stops half-way on a full disk must leave the old cache whole
    cache = tmp_path / "cache.json"
    code, _, _ = run(
        capsys, "table", "--family", "A", "--max-index", "2", "--cache", str(cache)
    )
    assert code == 0
    old = cache.read_bytes()
    write_text = Path.write_text
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def half_then_full(self, data, *args, **kwargs):
        write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise full

    monkeypatch.setattr(Path, "write_text", half_then_full)
    code, out, err = run(
        capsys, "table", "--family", "D", "--max-index", "2", "--cache", str(cache)
    )
    monkeypatch.undo()
    assert code == 1
    assert "x" in out  # the table itself was printed
    assert err == f"error: cannot update cache {cache}: {full}\n"
    assert cache.read_bytes() == old
    assert list(tmp_path.iterdir()) == [cache]  # no temporary file left behind
    code, _, _ = run(
        capsys, "table", "--family", "D", "--max-index", "2", "--cache", str(cache)
    )
    assert code == 0


def test_table_cache_preserves_big_integers(tmp_path, capsys):
    # digits beyond the float53 range must reach the file exactly
    cache = tmp_path / "big.json"
    code, _, _ = run(
        capsys, "table", "--family", "D", "--max-index", "12", "--cache", str(cache)
    )
    assert code == 0
    big = family_polynomial(Family.D, 12)
    (row,) = [r for r in json.loads(cache.read_text()) if r["index"] == 12]
    assert row["coeffs"] == [str(c) for c in big.coeffs]
    assert Poly(int(c) for c in row["coeffs"]) == big
    assert max(int(c) for c in row["coeffs"]) > 2**53


# --- series command ----------------------------------------------------------


def test_series_family(capsys):
    code, out, _ = run(capsys, "series", "--gf", "A", "--order", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    values = [line.split(maxsplit=1)[1] for line in lines[1:]]
    assert values == ["1", "0", "x", "0", "x^2(3+2x)"]


def test_series_tanx(capsys):
    code, out, _ = run(capsys, "series", "--gf", "tanx", "--order", "3")
    values = [line.split(maxsplit=1)[1] for line in out.strip().splitlines()[1:]]
    assert code == 0 and values == ["0", "x", "0", "2x^3"]


def test_series_sec_power(capsys):
    code, out, _ = run(capsys, "series", "--gf", "sec^x", "--order", "2")
    values = [line.split(maxsplit=1)[1] for line in out.strip().splitlines()[1:]]
    assert code == 0 and values == ["1", "0", "x"]


def test_series_json(capsys):
    code, out, _ = run(
        capsys, "series", "--gf", "secx", "--order", "4", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["coefficients"][4] == ["0", "0", "0", "0", "5"]


def test_series_usage_errors(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["series", "--gf", "cotx", "--order", "3"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["series", "--gf", "A", "--order", "99"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("fmt", FORMATS)
def test_coefficients_past_the_int_digit_limit_print_whole(capsys, monkeypatch, fmt):
    # E_340 has 649 digits: past a 640-digit limit every str(int) would raise
    monkeypatch.setenv("MESHLAB_MAX_SERIES_ORDER", "340")
    argv = ["series", "--gf", "secx", "--order", "340", "--format", fmt]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        unlimited = run(capsys, *argv)
        sys.set_int_max_str_digits(640)
        assert run(capsys, *argv) == unlimited
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    code, out, err = unlimited
    assert (code, err) == (0, "")
    assert max(map(len, re.findall(r"\d+", out))) == 649


def test_main_runs_where_python_has_no_digit_limit(capsys, monkeypatch):
    # before 3.10.7 there is no limit and no function to read or set one
    expected = run(capsys, "series", "--gf", "secx", "--order", "6")
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    assert run(capsys, "series", "--gf", "secx", "--order", "6") == expected


def test_series_order_cap_is_configurable(capsys, monkeypatch):
    monkeypatch.setenv("MESHLAB_MAX_SERIES_ORDER", "44")
    code, out, _ = run(capsys, "series", "--gf", "tanx", "--order", "42")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("42 ")
    monkeypatch.setenv("MESHLAB_MAX_SERIES_ORDER", "10")
    with pytest.raises(SystemExit) as excinfo:
        main(["series", "--gf", "tanx", "--order", "12"])
    assert excinfo.value.code == 2


def test_main_reuses_one_parser(capsys):
    # a usage error must leave the shared parser as it found it
    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    calls = (["series", "--gf", "cot", "--order", "3"],
             ["series", "--gf", "A", "--order", "4"],
             ["--help"])
    meshlab.cli.build_parser.cache_clear()
    first = [outcome(argv) for argv in calls]
    assert [code for code, _, _ in first] == [2, 0, 0]
    assert [outcome(argv) for argv in calls] == first
    assert meshlab.cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [
    ["table", "--family", "A", "--max-index", "1"],
    ["verify", "--suite", "tables"],
    ["series", "--gf", "A", "--order", "2"],
    ["brute", "--length", "2", "--class", "ud", "--pattern", "1,0,0,0"],
    ["unimodal", "--max-index", "1"],
], ids=lambda argv: argv[0])
def test_main_runs_the_handler_bound_at_call_time(capsys, monkeypatch, argv):
    # the shared parser must not keep the cmd_* it saw when it was built: a
    # tracer rebinds them after the first main call of a process
    assert main(argv) == 0
    seen = []
    monkeypatch.setattr(meshlab.cli, f"cmd_{argv[0]}", lambda args: seen.append(args) or 7)
    assert main(argv) == 7
    assert [args.command for args in seen] == [argv[0]]
    monkeypatch.undo()
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out


# --- brute command -----------------------------------------------------------


def test_brute_plain(capsys):
    code, out, _ = run(
        capsys, "brute", "--length", "4", "--class", "ud", "--pattern", "1,0,0,0"
    )
    assert code == 0
    assert out.strip() == "x^2(3+2x) over 5 permutations"


def test_brute_empty_quadrant(capsys):
    code, out, _ = run(
        capsys, "brute", "--length", "2", "--class", "ud", "--pattern", "1,0,e,0"
    )
    assert code == 0
    assert out.strip() == "x over 1 permutations"


def test_brute_rotated_statistic(capsys):
    code, out, _ = run(
        capsys, "brute", "--length", "3", "--class", "du", "--pattern", "0,1,0,0"
    )
    assert code == 0
    assert out.strip() == "x(1+x) over 2 permutations"


def test_brute_bad_pattern(capsys):
    code, _, err = run(
        capsys, "brute", "--length", "3", "--class", "du", "--pattern", "1,0,0"
    )
    assert code == 2 and "pattern" in err


def test_brute_bad_pattern_entry_is_named(capsys):
    code, out, err = run(
        capsys, "brute", "--length", "3", "--class", "ud", "--pattern", "1,x,0,0"
    )
    assert (code, out, err) == (2, "", "error: bad pattern entry 'x'\n")
    # -1 is refused by parse_pattern itself, not later by QuadrantSpec's own check
    code, out, err = run(
        capsys, "brute", "--length", "3", "--class", "ud", "--pattern", "1,0,-1,0"
    )
    assert (code, out, err) == (2, "", "error: bad pattern entry '-1'\n")


def test_brute_negative_length_is_usage_error(capsys):
    code, _, err = run(
        capsys, "brute", "--length", "-2", "--class", "ud", "--pattern", "1,0,0,0"
    )
    assert code == 2 and "length" in err


def test_brute_guard_exit_codes(capsys, monkeypatch):
    monkeypatch.setenv("MESHLAB_MAX_BRUTE", "4")
    code, _, err = run(
        capsys, "brute", "--length", "6", "--class", "ud", "--pattern", "1,0,0,0"
    )
    assert code == 3 and "guard" in err
    code, out, _ = run(
        capsys, "brute", "--length", "6", "--class", "ud", "--pattern", "1,0,0,0",
        "--force",
    )
    assert code == 0 and "over 61 permutations" in out


def test_brute_json(capsys):
    code, out, _ = run(
        capsys, "brute", "--length", "3", "--class", "du", "--pattern", "1,0,0,0",
        "--format", "json",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["coeffs"] == ["0", "1", "1"]
    assert payload["permutations"] == 2


def test_brute_csv(capsys):
    code, out, err = run(
        capsys, "brute", "--length", "5", "--class", "du", "--pattern", "1,0,e,0",
        "--format", "csv",
    )
    assert (code, err) == (0, "")
    assert out == (
        'length,class,pattern,polynomial,permutations\n5,du,"1,0,e,0",x(2+9x+5x^2),16\n'
    )
    assert parse_poly("x(2+9x+5x^2)") == dist.dist_brute(5, DOWN_UP, parse_pattern("1,0,e,0"))


def test_json_output_layout_is_pinned(capsys):
    # json.loads reads any indent alike; the bytes here are the contract
    code, out, err = run(
        capsys, "brute", "--length", "3", "--class", "du", "--pattern", "1,0,0,0",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    assert out == (
        '{\n  "length": 3,\n  "class": "du",\n  "pattern": "1,0,0,0",\n'
        '  "coeffs": [\n    "0",\n    "1",\n    "1"\n  ],\n  "permutations": 2\n}\n'
    )
    code, out, err = run(capsys, "table", "--family", "D", "--max-index", "1", "--format", "json")
    assert (code, err) == (0, "")
    assert out == (
        '[\n  {\n    "family": "D",\n    "index": 1,\n    "length": 1,\n'
        '    "coeffs": [\n      "1"\n    ],\n    "provenance": "recursion"\n  }\n]\n'
    )


# --- verify command ----------------------------------------------------------


def test_verify_tables(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tables")
    assert code == 0
    assert "28/28" in out


def test_verify_symmetry(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "symmetry", "--max-length", "6"
    )
    assert code == 0


def test_verify_closed_forms_strictness(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--suite", "closed-forms", "--report", str(report)
    )
    # published-text disagreements are adjudications: informational by default
    assert code == 0
    assert "adjudications agree" in out
    payload = json.loads(report.read_text())
    records = payload[0]["records"]
    assert set(records[0]) == {
        "check", "family", "k", "n", "expected", "actual", "verdict", "variant"
    }
    fails = {(r["family"], r["k"]) for r in records if r["verdict"] == "fail"}
    assert fails == {("A", 3), ("B", 2), ("D", 2), ("D", 3)}
    # under --strict the same disagreements fail the run, and stderr says so
    code, strict_out, err = run(capsys, "verify", "--suite", "closed-forms", "--strict")
    assert (code, strict_out, err) == (1, out, "error: --strict: 32 adjudications disagree\n")


def failure_line(tag, r):
    return (
        f"  [{tag}] {r['check']} family={r['family']} k={r['k']} n={r['n']} "
        f"variant={r['variant']}: expected {r['expected']}, got {r['actual']}"
    )


def test_verify_plain_lists_each_failing_adjudication(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "closed-forms")
    fails = [r for r in run_suite("closed-forms")[0].records if r["verdict"] == "fail"]
    assert code == 0 and len(fails) == 32
    assert out.splitlines() == [
        "suite closed-forms: PASS - 0/0 assertions - 96/128 adjudications agree",
        *(failure_line("adjudication", r) for r in fails),
    ]


def test_adjudication_checks_do_not_gate_a_suite():
    # a failing record of each informational check leaves its suite passing
    # except under --strict; any other failing check fails it
    for check in ("closed-form", "c-double-integral", "q-recursion-variant", "unimodal"):
        result = SuiteResult("s", [make_record(check, expected=1, actual=0)])
        assert result.passed and not result.passed_strict, check
    assert not SuiteResult("s", [make_record("table-row", expected=1, actual=0)]).passed
    # the unimodality scan of the conjecture counts as adjudications only
    assert run_unimodality().summary() == (
        "suite unimodality: PASS - 0/0 assertions - 32/32 adjudications agree"
    )


def test_verify_plain_lists_a_failing_assertion(capsys, monkeypatch):
    records = [
        make_record("table-row", family=Family.A, n=2, expected=Poly([0, 1]), actual=Poly([0, 1])),
        make_record("table-row", family=Family.A, n=3, expected=Poly([0, 1]), actual=Poly([1])),
    ]
    monkeypatch.setitem(SUITE_RUNNERS, "tables", lambda max_length: SuiteResult("tables", records))
    code, out, _ = run(capsys, "verify", "--suite", "tables")
    assert code == 1
    assert out.splitlines() == [
        "suite tables: FAIL - 1/2 assertions",
        "  [FAILURE] table-row family=A k=None n=3 variant=None: expected 0,1, got 1",
    ]


def test_verify_oracle_small(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "oracle", "--max-length", "8", "--workers", "2"
    )
    assert code == 0


def test_egf_suite_below_the_reference_length():
    # at order 6 the zigzag records compare E_0 .. E_6, fewer terms than the
    # 15 that ZIGZAG_REFERENCE holds, and the suite passes
    result = run_egf(6, sec_power_max_n=2)
    zigzag = [r for r in result.records if r["check"] in ("egf-zigzag-sum", "zigzag-reference")]
    assert [(r["expected"], r["actual"]) for r in zigzag] == [("[1, 1, 1, 2, 5, 16, 61]",) * 2] * 2
    assert result.passed


def test_egf_parity_scan_reaches_the_last_coefficient(monkeypatch):
    # with every coefficient nonzero, the parity record names each index of
    # the wrong parity, the order itself included
    monkeypatch.setattr(
        meshlab.verify, "egf_family", lambda family, order: EgfSeries([Poly.one()] * (order + 1))
    )
    records = run_egf(6, sec_power_max_n=2).records
    parity = {r["family"]: r["actual"] for r in records if r["check"] == "egf-parity"}
    assert parity == {"A": "[1, 3, 5]", "B": "[0, 2, 4, 6]", "C": "[1, 3, 5]", "D": "[0, 2, 4, 6]"}


def test_verify_json_format(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "tables", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["suite"] == "tables"
    assert all(r["verdict"] == "pass" for r in payload[0]["records"])


def test_verify_deterministic_output(capsys):
    first = run(capsys, "verify", "--suite", "egf", "--format", "json")
    second = run(capsys, "verify", "--suite", "egf", "--format", "json")
    assert first == second


def test_verify_all_suites(capsys, monkeypatch):
    # --max-length is the enumeration budget of every suite, so a guard at
    # the same length must not refuse any of them
    monkeypatch.setenv("MESHLAB_MAX_BRUTE", "6")
    code, out, _ = run(
        capsys, "verify", "--suite", "all", "--max-length", "6", "--workers", "2"
    )
    assert code == 0
    for suite in ("tables", "symmetry", "oracle", "egf", "coeff-laws", "closed-forms"):
        assert f"suite {suite}: PASS" in out


# The only place a command line's bytes are pinned, across commits and, by
# tools/xpy.py, across interpreters: argv, exit code, the sha256 of stdout and
# of each file the line writes into its working directory, and whether it
# writes to stderr.  Every subcommand and format, the --report and --cache
# files and exit codes 0 to 3 are covered.
COMMAND_LINES = json.loads(Path(__file__).with_name("command_lines.json").read_text())


@pytest.mark.parametrize("line", COMMAND_LINES, ids=[" ".join(r["argv"]) for r in COMMAND_LINES])
def test_command_line_bytes_are_pinned(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)
    dist._histogram.cache_clear()  # each line runs its own DPs, a --workers line too
    for name in ("MESHLAB_MAX_SERIES_ORDER", "MESHLAB_MAX_BRUTE"):
        monkeypatch.delenv(name, raising=False)
    try:
        code = main(line["argv"])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out, err = capsys.readouterr()
    digest = hashlib.sha256(out.encode()).hexdigest()
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert (code, digest, written, err != "") == (
        line["exit"], line["stdout"], line["files"], line["stderr"]), err


def test_command_line_table_covers_every_exit_code_and_format():
    argvs = [tuple(line["argv"]) for line in COMMAND_LINES]
    assert len(set(argvs)) == len(argvs)
    assert {line["exit"] for line in COMMAND_LINES} == {0, 1, 2, 3}
    accepted = {"table": FORMATS, "series": FORMATS, "brute": FORMATS, "verify": ("plain", "json")}
    for command, formats in accepted.items():
        pinned = {argv[argv.index("--format") + 1] if "--format" in argv else "plain"
                  for argv, line in zip(argvs, COMMAND_LINES)
                  if argv[0] == command and line["exit"] == 0}
        assert set(formats) <= pinned, command
    # --workers changes how the work is split, never a byte of the result
    by_argv = {argv: {k: v for k, v in line.items() if k != "argv"}
               for argv, line in zip(argvs, COMMAND_LINES)}
    split = [argv for argv in argvs if "--workers" in argv]
    assert split
    for argv in split:
        at = argv.index("--workers")
        assert by_argv[argv] == by_argv[argv[:at] + argv[at + 2:]], argv
    # every nonzero exit says why on stderr, and a zero exit writes nothing there
    assert all(line["stderr"] == (line["exit"] != 0) for line in COMMAND_LINES)


def test_verify_report_to_an_unwritable_path_is_an_error(tmp_path):
    report = tmp_path / "missing" / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "meshlab.cli", "verify", "--suite", "tables",
         "--report", str(report)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: cannot write report {report}: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not report.exists()


def test_verify_guard_refusal_prints_no_suite_line(capsys, monkeypatch):
    monkeypatch.setenv("MESHLAB_MAX_BRUTE", "6")
    code, out, err = run(capsys, "verify", "--suite", "symmetry", "--max-length", "8")
    assert (code, out) == (3, "")
    assert err == (
        "error: brute-force enumeration of length 7 exceeds the guard (6); "
        "pass force=True or raise MESHLAB_MAX_BRUTE\n"
    )


def test_verify_egf_guard_refuses_before_solving(capsys, monkeypatch):
    # every length meets the guard before a series is solved, so a budget
    # far past the guard is refused at once, not after an order-4000 solve
    def capped(solve):
        def spy(*args):
            if args[-1] > 14:
                raise AssertionError(f"{solve.__name__} solved to order {args[-1]}")
            return solve(*args)
        return spy

    monkeypatch.delenv("MESHLAB_MAX_BRUTE", raising=False)
    monkeypatch.setattr(dist, "sec_t_power_of_x", capped(dist.sec_t_power_of_x))
    monkeypatch.setattr(dist, "egf_family", capped(dist.egf_family))
    code, out, err = run(capsys, "verify", "--suite", "egf", "--max-length", "2000")
    assert (code, out) == (3, "")
    assert err == (
        "error: brute-force enumeration of length 16 exceeds the guard (14); "
        "pass force=True or raise MESHLAB_MAX_BRUTE\n"
    )
    with pytest.raises(dist.BruteForceLimitError):
        dist.oracle_equivalence(200)


def test_verify_unwritable_report_in_process(capsys, tmp_path):
    report = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "verify", "--suite", "tables", "--report", str(report))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write report {report}: ") and err.count("\n") == 1


def test_run_suite_unknown_name_is_a_key_error():
    with pytest.raises(KeyError) as excinfo:
        run_suite("bogus")
    assert excinfo.value.args == ("bogus",)


def test_suite_default_budgets(monkeypatch):
    # without --max-length each enumerating suite stops at the default in
    # SUITE_RUNNERS: symmetry at length 8, oracle at 12, the egf suite's
    # (sec t)^x check at n = 5 (length 10) and coeff-laws' oracle levels at 11
    monkeypatch.delenv("MESHLAB_MAX_BRUTE", raising=False)

    def rows(suite, check):
        (result,) = run_suite(suite)
        return [(Family(r["family"]), r["n"]) for r in result.records if r["check"] == check]

    assert max(f.length(n) for f, n in rows("symmetry", "symmetry-chain")) == 8
    assert max(f.length(n) for f, n in rows("oracle", "oracle-vs-recursion")) == 12
    assert max(2 * n for _, n in rows("egf", "sec-power-identity")) == 10
    assert max(f.length(n + f.min_index()) for f, n in rows("coeff-laws", "level-law-brute")) == 11
    # a guard of 0 or below admits no length, so the oracle suite checks none
    for guard in ("0", "-1"):
        monkeypatch.setenv("MESHLAB_MAX_BRUTE", guard)
        assert run_suite("oracle")[0].records == []


def test_run_suite_all_runs_each_suite_once_in_order(monkeypatch):
    calls = []
    for name in SUITE_RUNNERS:
        monkeypatch.setitem(
            SUITE_RUNNERS, name,
            lambda max_length, name=name: calls.append((name, max_length)) or SuiteResult(name),
        )
    results = run_suite("all", max_length=5)
    assert [r.name for r in results] == list(SUITE_RUNNERS)
    assert calls == [(name, 5) for name in SUITE_RUNNERS]
    assert [r.name for r in run_suite("egf")] == ["egf"]


def test_verify_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "everything"])
    assert excinfo.value.code == 2


def test_suite_choices_name_every_runner_in_order():
    # the CLI reads --suite's choices without importing verify
    assert meshlab.cli.SUITES == tuple(SUITE_RUNNERS)
    for name in [*SUITE_RUNNERS, "all"]:
        assert meshlab.cli.build_parser().parse_args(["verify", "--suite", name]).suite == name


# --- integer options and environment overrides ---------------------------------


@pytest.mark.parametrize(
    "env,argv",
    [
        ({"MESHLAB_MAX_SERIES_ORDER": "abc"}, ["series", "--gf", "A", "--order", "4"]),
        ({"MESHLAB_MAX_BRUTE": "abc"}, ["verify", "--suite", "oracle", "--max-length", "4"]),
        ({}, ["verify", "--suite", "oracle", "--max-length", "-2"]),
        ({}, ["brute", "--length", "4", "--class", "ud", "--pattern", "1,0,0,0",
              "--workers", "0"]),
        ({}, ["brute", "--length", "4", "--class", "ud", "--pattern", "1,0,0,0",
              "--workers", "-5"]),
        ({}, ["table", "--family", "A", "--max-index", "-3"]),
        ({}, ["unimodal", "--max-index", "-3"]),
        ({}, ["series", "--gf", "A", "--order", "-1"]),
    ],
    ids=["series-order-env", "brute-limit-env", "max-length", "workers-zero",
         "workers-negative", "table-max-index", "unimodal-max-index", "order"],
)
def test_bad_integer_input_is_usage_error(env, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "meshlab.cli", *argv],
        capture_output=True, text=True, env={**os.environ, **env},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, floor",
    [
        (["table", "--family", "A", "--max-index"], 0),
        (["verify", "--suite", "tables", "--max-length"], 1),
        (["verify", "--suite", "tables", "--workers"], 1),
        (["series", "--gf", "A", "--order"], 0),
        (["brute", "--length", "2", "--class", "ud", "--pattern", "1,0,0,0",
          "--workers"], 1),
        (["unimodal", "--max-index"], 0),
    ],
    ids=["table-max-index", "max-length", "verify-workers", "order", "brute-workers",
         "unimodal-max-index"],
)
def test_integer_option_floor(capsys, argv, floor):
    # the floor itself is accepted; one below it is a usage error
    code, _, _ = run(capsys, *argv, str(floor))
    assert code == 0
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, str(floor - 1)])
    assert excinfo.value.code == 2
    assert f"must be at least {floor}, got {floor - 1}" in capsys.readouterr().err


def int_text(cap):
    """Integer option text: edge values, a small valid value or a non-integer."""
    return st.one_of(
        st.sampled_from(["-3", "0", "1", "2.5", "seven", ""]),
        st.integers(2, cap).map(str),
    )


PATTERNS = st.one_of(
    st.sampled_from(
        ["1,0,0,0", "1,0,e,0", "0,0,0,0", "e,e,e,e", "1,0,0", "1,0,0,0,0", "",
         "-1,0,0,0", "1;0;0;0", "a,b,c,d", "1.5,0,0,0", " 2 , e ,0, 1"]
    ),
    st.text(alphabet="0123e,- x", max_size=12),
)
FORMAT_OPTIONS = st.sampled_from(["plain", "csv", "json", "latex", "html"])
ENV_VALUE = st.one_of(st.none(), st.sampled_from(["-3", "0", "1", "abc", ""]),
                      st.integers(2, 40).map(str))

# Every subcommand, with enumeration lengths and orders small enough that an
# example runs in milliseconds.
ARGV = st.one_of(
    st.tuples(st.just("table"), st.just("--family"), st.sampled_from("ABCDE"),
              st.just("--max-index"), int_text(6), st.just("--format"), FORMAT_OPTIONS),
    st.tuples(st.just("verify"), st.just("--suite"),
              st.sampled_from(["tables", "symmetry", "oracle", "egf", "coeff-laws",
                               "closed-forms", "all", "bogus"]),
              st.just("--max-length"), int_text(5), st.just("--workers"), int_text(3),
              st.just("--format"), st.sampled_from(["plain", "json", "csv"]),
              st.sampled_from([(), ("--strict",)])),
    st.tuples(st.just("series"), st.just("--gf"),
              st.sampled_from(["A", "B", "C", "D", "secx", "tanx", "sec^x", "cot"]),
              st.just("--order"), int_text(12), st.just("--format"), FORMAT_OPTIONS),
    st.tuples(st.just("brute"), st.just("--length"), int_text(7), st.just("--class"),
              st.sampled_from(["ud", "du", "uu"]), st.just("--pattern"), PATTERNS,
              st.just("--workers"), int_text(3), st.just("--format"), FORMAT_OPTIONS,
              st.sampled_from([(), ("--force",)])),
    st.tuples(st.just("unimodal"), st.just("--max-index"), int_text(6)),
).map(lambda parts: [a for p in parts for a in ((p,) if isinstance(p, str) else p)])


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ARGV, ENV_VALUE, ENV_VALUE)
@example(argv=["verify", "--suite", "oracle", "--max-length", "3"],
         series_cap=None, brute_limit="-3")
def test_cli_exit_code_contract(monkeypatch, argv, series_cap, brute_limit):
    for name, value in (("MESHLAB_MAX_SERIES_ORDER", series_cap),
                        ("MESHLAB_MAX_BRUTE", brute_limit)):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, out.getvalue())


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "block-buffered"])
def test_closed_stdout_ends_quietly(unbuffered):
    # the table's 176,692 bytes overfill the pipe, so the command is still
    # writing when the reader closes it after one line
    argv = [sys.executable, "-m", "meshlab.cli", "table", "--family", "A", "--max-index", "60"]
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"0 0 1\n"
        proc.stdout.close()
        assert (proc.wait(timeout=60), proc.stderr.read()) == (1, b"")


def test_stdout_closed_before_a_short_output_ends_quietly():
    # no reader from the start: block-buffered, the whole table waits in the
    # buffer until main flushes it, so the closed pipe is met there too
    read, write = os.pipe()
    os.close(read)
    argv = [sys.executable, "-m", "meshlab.cli", "table", "--family", "A", "--max-index", "3"]
    try:
        proc = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONUNBUFFERED": ""})
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


# --- unimodal command ----------------------------------------------------------


def test_cli_as_a_process():
    # the same surface through a real process, byte-identical across runs
    argv = [sys.executable, "-m", "meshlab.cli", "table", "--family", "A",
            "--max-index", "4", "--format", "csv"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.decode().splitlines()[3] == "2,4,x^2(3+2x)"


def test_unimodal(capsys):
    code, out, _ = run(capsys, "unimodal", "--max-index", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 24
    assert all("unimodal" in line for line in lines)
    assert any("mode at x^6" in line for line in lines)


def test_unimodal_default_max_index(capsys):
    assert run(capsys, "unimodal") == run(capsys, "unimodal", "--max-index", "8")


def test_unimodal_exits_1_on_a_counterexample(capsys, monkeypatch):
    # no real row breaks unimodality: B's index 2 dips before its peak
    real = meshlab.coeff_laws.family_polynomial

    def rows(family, index):
        return Poly([2, 1, 3]) if (family, index) == (Family.B, 2) else real(family, index)

    monkeypatch.setattr(meshlab.coeff_laws, "family_polynomial", rows)
    code, out, err = run(capsys, "unimodal", "--max-index", "2")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "A index 1: unimodal (mode at x^1)",
        "A index 2: unimodal (mode at x^2)",
        "B index 1: unimodal (mode at x^0)",
        "B index 2: NOT UNIMODAL (mode at x^2)",
        "C index 1: unimodal (mode at x^0)",
        "C index 2: unimodal (mode at x^2)",
        "D index 1: unimodal (mode at x^0)",
        "D index 2: unimodal (mode at x^1)",
    ]
