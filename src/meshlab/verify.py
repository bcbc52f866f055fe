"""
Verification suites.

Every suite returns a SuiteResult holding flat report records
{check, family, k, n, expected, actual, verdict, variant}.  A record is an
assertion (it must pass) unless its check name marks it as an adjudication:
adjudications compare published material against the computed ground truth
and are informational, so they only gate the strict verdict.  Reports
serialise deterministically with all values already rendered as decimal
strings (see records), so repeated runs are byte-identical.
"""
from __future__ import annotations

import json
from pathlib import Path

from .algebra import Poly, zigzag_numbers
from .coeff_laws import (
    highest_coefficient_check,
    level_law_check,
    lowest_coefficient_check,
    q_variant_adjudication,
    closed_form_check,
    seed_identity_check,
    unimodality_check,
)
from .distributions import (
    Family,
    brute_force_limit,
    closed_form_series_check,
    egf_family,
    family_polynomial,
    oracle_equivalence,
    sec_power_identity,
    symmetry_suite,
)
from .records import make_record
from .reference import FAMILY_TABLES, PRINTED_CLOSED_FORMS, ZIGZAG_REFERENCE

# Checks whose failures are informational: they adjudicate published formulas
# or an open conjecture rather than the library's own computations.
ADJUDICATION_CHECKS = frozenset(
    {"closed-form", "c-double-integral", "q-recursion-variant", "unimodal"}
)


def is_adjudication(record: dict) -> bool:
    return record["check"] in ADJUDICATION_CHECKS


class SuiteResult:
    def __init__(self, name: str, records: list[dict] | None = None) -> None:
        self.name = name
        self.records = [] if records is None else records

    @property
    def passed(self) -> bool:
        """All hard assertions pass (adjudication verdicts do not gate this)."""
        return all(r["verdict"] == "pass" for r in self.records if not is_adjudication(r))

    @property
    def passed_strict(self) -> bool:
        return all(r["verdict"] == "pass" for r in self.records)

    def failures(self) -> list[dict]:
        """Every failing record, assertions and adjudications, in record order."""
        return [r for r in self.records if r["verdict"] == "fail"]

    def summary(self) -> str:
        hard = [r for r in self.records if not is_adjudication(r)]
        info = [r for r in self.records if is_adjudication(r)]
        parts = [
            f"suite {self.name}: {'PASS' if self.passed else 'FAIL'}",
            f"{sum(r['verdict'] == 'pass' for r in hard)}/{len(hard)} assertions",
        ]
        if info:
            parts.append(
                f"{sum(r['verdict'] == 'pass' for r in info)}/{len(info)} adjudications agree"
            )
        return " - ".join(parts)


def run_tables() -> SuiteResult:
    """Recursion-computed rows against the published tables, all 28 rows."""
    result = SuiteResult("tables")
    for name, rows in FAMILY_TABLES.items():
        family = Family(name)
        for index, coeffs in rows.items():
            result.records.append(
                make_record(
                    "table-row",
                    family=family,
                    n=index,
                    expected=Poly(coeffs),
                    actual=family_polynomial(family, index),
                )
            )
    return result


def run_symmetry(max_length: int) -> SuiteResult:
    return SuiteResult("symmetry", symmetry_suite(max_length))


def run_oracle(max_length: int) -> SuiteResult:
    return SuiteResult("oracle", oracle_equivalence(max_length))


def run_egf(order: int, *, sec_power_max_n: int) -> SuiteResult:
    """
    EGF-route checks: parity grading of the four series, the x = 1
    specialisations against the zigzag reference, the composite closed-form
    series (including the double-integral adjudication for C), and the
    (sec t)^x identity against the oracle.
    """
    result = SuiteResult("egf")
    series = {family: egf_family(family, order) for family in Family}

    for family, s in series.items():
        wrong_parity = [
            m for m in range(order + 1)
            if (m % 2 == 0) != family.even_length and not s.coefficient(m).is_zero()
        ]
        result.records.append(
            make_record("egf-parity", family=family, expected=[], actual=wrong_parity)
        )

    combined = series[Family.A] + series[Family.B]
    result.records.append(
        make_record(
            "egf-zigzag-sum",
            expected=list(ZIGZAG_REFERENCE[: order + 1]),
            actual=[int(v) for v in combined.at_x(1)],
            variant="A + B at x = 1",
        )
    )
    result.records.append(
        make_record(
            "zigzag-reference",
            expected=list(ZIGZAG_REFERENCE[: order + 1]),
            actual=zigzag_numbers(order),
        )
    )

    result.records.extend(closed_form_series_check(min(order, 12)))
    result.records.extend(sec_power_identity(sec_power_max_n))
    return result


def run_coeff_laws(brute_level_max_length: int) -> SuiteResult:
    """
    Boundary coefficients for every family row up to index 10, level-set
    laws for k <= 3 (recursion route up to n = 15, oracle route up to
    brute_level_max_length), seed identities for k <= 5, and the q-recursion
    variant adjudication for k <= 3 and n <= 8.
    """
    result = SuiteResult("coeff-laws")
    for family in Family:
        for index in range(1, 11):
            result.records.append(lowest_coefficient_check(family, index))
            result.records.append(highest_coefficient_check(family, index))
    for family in Family:
        for k in range(4):
            result.records.extend(level_law_check(family, k, 15))
    # Oracle-backed level laws for A and B, up to the enumeration budget
    # brute_level_max_length; past the guard, dist_brute raises.
    for family in (Family.A, Family.B):
        n_max = (brute_level_max_length - family.min_index()) // 2
        for k in range(4):
            result.records.extend(level_law_check(family, k, n_max, source="brute"))
    result.records.extend(seed_identity_check(5))
    result.records.extend(q_variant_adjudication(3, 8))
    return result


def run_closed_forms() -> SuiteResult:
    """Adjudicate every published closed form against recursion values."""
    result = SuiteResult("closed-forms")
    for which, k in sorted(PRINTED_CLOSED_FORMS):
        result.records.extend(closed_form_check(which, k))
    return result


def run_unimodality(max_index: int = 8) -> SuiteResult:
    """The unimodality scan of the four families' rows 1..max_index."""
    result = SuiteResult("unimodality")
    for family in Family:
        result.records.extend(unimodality_check(family, max_index))
    return result


# max_length is the one enumeration budget: every suite that enumerates stops
# at that length, and without it at the default given here.  The oracle
# suite also stops at the guard; a negative guard admits no length, like 0.
SUITE_RUNNERS = {
    "tables": lambda max_length: run_tables(),
    "symmetry": lambda max_length: run_symmetry(max_length or 8),
    "oracle": lambda max_length: run_oracle(
        min(max_length or 12, max(brute_force_limit(), 0))
    ),
    "egf": lambda max_length: run_egf(14, sec_power_max_n=(max_length or 10) // 2),
    "coeff-laws": lambda max_length: run_coeff_laws(max_length or 11),
    "closed-forms": lambda max_length: run_closed_forms(),
}


def run_suite(name: str, *, max_length: int | None = None) -> list[SuiteResult]:
    """Run one suite by name, or all of them."""
    if name == "all":
        return [runner(max_length) for runner in SUITE_RUNNERS.values()]
    return [SUITE_RUNNERS[name](max_length)]


def report_json(results: list[SuiteResult]) -> str:
    """The report text, a JSON list of {suite, records}, without a final newline."""
    return json.dumps([{"suite": r.name, "records": r.records} for r in results], indent=2)


def write_report(path: str | Path, results: list[SuiteResult]) -> None:
    """Always JSON, independent of the console format."""
    Path(path).write_text(report_json(results) + "\n")
