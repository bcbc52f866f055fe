"""
Report records: the flat dicts {check, family, k, n, expected, actual,
verdict, variant} that every verification check returns.  Values are
rendered here as decimal strings, so a report serialises deterministically.
"""
from __future__ import annotations

import enum

from .algebra import EgfSeries, Poly


def poly_report_str(poly: Poly) -> str:
    """Canonical report form: ascending coefficients as decimal strings."""
    if poly.is_zero():
        return "0"
    return ",".join(str(c) for c in poly.coeffs)


def _stringify(value) -> str:
    if isinstance(value, Poly):
        return poly_report_str(value)
    if isinstance(value, EgfSeries):
        return " | ".join(poly_report_str(c) for c in value.coeffs)
    if isinstance(value, tuple):
        return "(" + ", ".join(_stringify(v) for v in value) + ")"
    return str(value)


def make_record(check, *, family=None, k=None, n=None, expected, actual, variant=None) -> dict:
    return {
        "check": check,
        "family": family.value if isinstance(family, enum.Enum) else family,
        "k": k,
        "n": n,
        "expected": _stringify(expected),
        "actual": _stringify(actual),
        "verdict": "pass" if expected == actual else "fail",
        "variant": variant,
    }
