"""
Reference helpers that only the tests use: the reverse and complement
symmetries, the two alternating-class predicates, exact Lagrange
interpolation, and the reading of which printed variant a set of records
confirms.  Each is a literal definition the library's results are checked
against.
"""
from fractions import Fraction
from typing import Sequence

from meshlab.algebra import Poly, Rational
from meshlab.permutations import DOWN_UP, UP_DOWN


def reverse(perm: Sequence[int]) -> tuple[int, ...]:
    """Reverse the one-line word: p_n ... p_1."""
    return tuple(reversed(perm))


def complement(perm: Sequence[int]) -> tuple[int, ...]:
    """Replace each value v by n + 1 - v."""
    n = len(perm)
    return tuple(n + 1 - v for v in perm)


def is_up_down(perm: Sequence[int]) -> bool:
    """
    p1 < p2 > p3 < p4 > ...  Length-1 permutations qualify (vacuously), so
    they are members of both alternating classes.
    """
    return all((perm[j - 1] < perm[j]) == UP_DOWN.rises_into(j) for j in range(1, len(perm)))


def is_down_up(perm: Sequence[int]) -> bool:
    """p1 > p2 < p3 > p4 < ...  Length-1 permutations qualify here too."""
    return all((perm[j - 1] < perm[j]) == DOWN_UP.rises_into(j) for j in range(1, len(perm)))


def fit_polynomial(points: Sequence[tuple[Rational, Rational]]) -> Poly:
    """
    Lagrange interpolation through the given (x, y) pairs, exact.

    Used to establish polynomiality of value sequences empirically: fit on
    d + 1 points and check the interpolant reproduces further ones.
    """
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    total = Poly.zero()
    for i, (_, y) in enumerate(points):
        basis = Poly.one()
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if i == j:
                continue
            basis = basis * Poly([-xj, 1])
            denom *= xs[i] - xj
        total = total + basis * Poly([Fraction(y) / denom])
    return total


def sole_passing_variant(records) -> str:
    """The one variant whose records all pass; RuntimeError unless exactly one does."""
    passing: dict = {}
    for rec in records:
        passing[rec["variant"]] = passing.get(rec["variant"], True) and rec["verdict"] == "pass"
    confirmed = [variant for variant, ok in passing.items() if ok]
    if len(confirmed) != 1:
        raise RuntimeError(f"expected exactly one passing variant, got {passing}")
    return confirmed[0]
