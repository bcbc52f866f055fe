"""
Acceptance criteria, one test per criterion, each printing a PASS/FAIL line
(run with -s to see them).  All comparisons are exact rational arithmetic;
no tolerances exist anywhere.

Criterion 2 enumerates every alternating permutation up to length 12; the
default enumeration engine runs that gate in well under a second.

Criterion 7 is split in two: the report/adjudication machinery, which
passes, and the literal expected-pass list for the published closed forms,
which exact recomputation refutes for p_3, q_2 and s_2.  That second test
fails by design and documents the discrepancy; the analysis lives in the
failure message and the closed-forms verification report.
"""
import json
import time
from fractions import Fraction

import pytest

from meshlab.algebra import Poly, zigzag_numbers
from meshlab.coeff_laws import (
    closed_form_verdicts,
    double_factorial,
    highest_coefficient_check,
    level_base,
    level_law_value,
    level_law_check,
    lowest_coefficient_check,
    p_value,
    q_value,
    q_variant_adjudication,
    unimodality_check,
)
from meshlab.distributions import (
    MMP_Q1,
    Family,
    _histogram,
    closed_form_series_check,
    dist_brute,
    egf_family,
    family_polynomial,
    oracle_equivalence,
    sec_power_identity,
    symmetry_suite,
)
from meshlab.reference import FAMILY_TABLES, PRINTED_CLOSED_FORMS
from meshlab.verify import run_closed_forms, write_report

from helpers import sole_passing_variant

BRUTE_GATE = 12
WORKERS = 4


def report_line(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:>2}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_table_reproduction():
    started = time.perf_counter()
    rows = 0
    nontrivial = 0
    for name, table in FAMILY_TABLES.items():
        family = Family(name)
        for index, coeffs in table.items():
            assert family_polynomial(family, index) == Poly(coeffs), (name, index)
            rows += 1
            nontrivial += 0 if (index == 0 and len(coeffs) == 1) else 1
    elapsed = time.perf_counter() - started
    assert rows == 28 and nontrivial == 26
    report_line(1, True, f"{nontrivial} nontrivial table rows matched in {elapsed:.3f}s")
    assert elapsed < 1.0


def test_criterion_02_oracle_equivalence():
    started = time.perf_counter()
    records = oracle_equivalence(BRUTE_GATE)
    elapsed = time.perf_counter() - started
    bad = [r for r in records if r["verdict"] != "pass"]
    assert not bad, bad
    ee = zigzag_numbers(BRUTE_GATE)
    enumerated = sum(2 * ee[length] for length in range(1, BRUTE_GATE + 1))
    report_line(
        2,
        True,
        f"brute = recursion = EGF on all lengths <= {BRUTE_GATE} "
        f"({enumerated} permutations) in {elapsed:.2f}s",
    )
    assert elapsed < 2.0


def test_criterion_03_symmetry_suite():
    started = time.perf_counter()
    records = symmetry_suite(8)
    elapsed = time.perf_counter() - started
    assert records and all(r["verdict"] == "pass" for r in records)
    report_line(
        3, True, f"{len(records)} symmetry-chain identities hold through length 8 "
        f"in {elapsed:.3f}s"
    )
    assert elapsed < 1.0


def test_criterion_04_specialisations():
    secant = [1, 1, 5, 61, 1385, 50521, 2702765]
    tangent = [1, 2, 16, 272, 7936, 353792, 22368256]
    for n in range(0, 7):
        assert family_polynomial(Family.A, n)(1) == secant[n]
        assert family_polynomial(Family.C, n)(1) == secant[n]
    for n in range(1, 8):
        assert family_polynomial(Family.B, n)(1) == tangent[n - 1]
        assert family_polynomial(Family.D, n)(1) == tangent[n - 1]
    combined = egf_family(Family.A, 14) + egf_family(Family.B, 14)
    at_one = [int(v) for v in combined.at_x(1)]
    assert at_one == zigzag_numbers(14)
    report_line(
        4, True,
        "x = 1 specialisations give secant/tangent numbers; A + B recovers "
        "the zigzag numbers through order 14",
    )


def test_criterion_05_boundary_laws():
    for family in Family:
        for index in range(1, 11):
            low = lowest_coefficient_check(family, index)
            high = highest_coefficient_check(family, index)
            assert low["verdict"] == "pass", low
            assert high["verdict"] == "pass", high
    report_line(
        5, True,
        "lowest/highest coefficient laws hold for all four families through "
        "index 10",
    )


def test_criterion_06_level_set_laws():
    # brute-force route: every reachable length, offsets k <= 3
    checked_brute = 0
    for family in (Family.A, Family.B):
        n_top = BRUTE_GATE // 2 if family is Family.A else (BRUTE_GATE - 1) // 2
        for n in range(1, n_top + 1):
            length = 2 * n if family is Family.A else 2 * n + 1
            poly = dist_brute(length, family.alternating_class, MMP_Q1, workers=WORKERS)
            for k in range(0, 4):
                if n < k + 1:
                    continue
                count = poly.coeffs[level_base(family, n) + k]
                assert count == level_law_value(family, k, n), (family, n, k)
                checked_brute += 1
    # recursion route through parameter 15
    for family in (Family.A, Family.B):
        for k in range(0, 4):
            records = level_law_check(family, k, 15)
            assert all(r["verdict"] == "pass" for r in records), (family, k)
    # seed identities for k <= 5
    for k in range(0, 6):
        t = zigzag_numbers(2 * k + 1)[2 * k + 1]
        assert p_value(k, k + 1) == Fraction(t, double_factorial(2 * k + 1))
        assert q_value(k, k + 1) == Fraction(t, double_factorial(2 * k))
    report_line(
        6, True,
        f"level-set laws for A and B hold (brute x{checked_brute} through "
        f"length {BRUTE_GATE}, recursion through 15, seeds k <= 5)",
    )


def test_criterion_07_closed_form_adjudication(tmp_path):
    suite = run_closed_forms()
    report_path = tmp_path / "closed_forms.json"
    write_report(report_path, [suite])
    payload = json.loads(report_path.read_text())
    recorded = {
        (r["family"], r["k"]) for r in payload[0]["records"] if r["check"] == "closed-form"
    }
    # a verdict is recorded for every published form, agree or not
    assert len(recorded) == len(PRINTED_CLOSED_FORMS) == 16
    c_variant = sole_passing_variant(
        r for r in closed_form_series_check(10) if r["check"] == "c-double-integral"
    )
    assert c_variant == "inner exponent -1/x"
    q_variant = sole_passing_variant(q_variant_adjudication(3, 8))
    assert q_variant == "statement"
    verdicts = closed_form_verdicts()
    agreed = sorted(f"{w}{k}" for (w, k), ok in verdicts.items() if ok)
    refuted = sorted(f"{w}{k}" for (w, k), ok in verdicts.items() if not ok)
    report_line(
        7, True,
        f"adjudication report produced: {len(agreed)} forms confirmed "
        f"({', '.join(agreed)}), {len(refuted)} refuted ({', '.join(refuted)}); "
        f"C double integral confirmed with {c_variant}; q recursion: {q_variant} form",
    )


def test_criterion_07_expected_pass_set_as_stated():
    """
    The acceptance list expects the published p_0..p_3, q_0..q_2, r_0, r_1
    and s_0..s_2 to agree with the recursions.  Exact recomputation refutes
    three members of that list (p_3, q_2, s_2), each triple-checked against
    the seed identities, the recursions and the enumeration oracle, so this
    test fails and is expected to fail.  The discrepancies, with the exact
    polynomials the data actually follows, are asserted as computed facts in
    test_coeff_laws.test_fitted_forms_where_published_ones_fail.
    """
    expected_pass = (
        [("p", k) for k in range(4)]
        + [("q", k) for k in range(3)]
        + [("r", 0), ("r", 1)]
        + [("s", k) for k in range(3)]
    )
    from meshlab.coeff_laws import r_value, s_value

    laws = {"p": p_value, "q": q_value, "r": r_value, "s": s_value}
    verdicts = closed_form_verdicts()
    failures = []
    for which, k in expected_pass:
        if not verdicts[(which, k)]:
            poly, display = PRINTED_CLOSED_FORMS[(which, k)]
            value_fn = laws[which]
            n = k + 1
            failures.append(
                f"{display!r} gives {poly(Fraction(n))} at n={n}, but the "
                f"recursion (oracle-confirmed) value is {value_fn(k, n)}"
            )
    ok = not failures
    report_line(7, ok, "literal expected-pass set for published closed forms")
    if failures:
        pytest.fail(
            "published closed forms refuted by exact recomputation:\n  "
            + "\n  ".join(failures)
            + "\nEvery other route (tables, recursions, EGF, oracle) agrees; "
            "only these published polynomial formulas disagree with all of "
            "them, so the expected-pass list cannot hold as stated.",
        )


def test_criterion_08_sec_power_identity():
    started = time.perf_counter()
    records = sec_power_identity(5)
    elapsed = time.perf_counter() - started
    assert [r["n"] for r in records] == list(range(6))
    assert all(r["verdict"] == "pass" for r in records)
    report_line(
        8, True,
        f"(sec t)^x matches the oracle for the empty-lower-left pattern "
        f"through length 10 in {elapsed:.3f}s",
    )
    assert elapsed < 2.0


def test_criterion_09_unimodality():
    records = []
    for family in Family:
        records.extend(unimodality_check(family, 8))
    assert len(records) == 32
    counterexamples = [r for r in records if r["verdict"] != "pass"]
    # a counterexample would be reported, not asserted fatal; none exists here
    report_line(
        9, not counterexamples,
        "all four families unimodal through index 8"
        if not counterexamples
        else f"counterexamples found: {counterexamples}",
    )
    assert not counterexamples  # currently true; failure would publish itself


def test_criterion_10_parallel_determinism(tmp_path):
    from meshlab.cli import main

    outputs = {}
    for workers in ("1", "4"):
        _histogram.cache_clear()  # so that both runs enumerate
        outputs[workers] = b""
        for suite, max_length in (("oracle", "8"), ("symmetry", "6")):
            path = tmp_path / f"{suite}_{workers}.json"
            assert main([
                "verify", "--suite", suite, "--max-length", max_length,
                "--workers", workers, "--report", str(path),
            ]) == 0
            outputs[workers] += path.read_bytes()
    assert outputs["1"] == outputs["4"]
    report_line(
        10, True,
        f"1-worker and 4-worker reports are byte-identical "
        f"({len(outputs['1'])} bytes)",
    )
