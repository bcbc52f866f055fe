"""
Reference helpers that only the tests use: the reverse and complement
symmetries, the two alternating-class predicates, exact Lagrange and Newton
interpolation, powers of the secant series in plain Fractions, and the
reading of which printed variant a set of records confirms.  Each is a
literal definition the library's results are checked against.
"""
from fractions import Fraction
from math import factorial
from typing import Sequence

from meshlab.algebra import Poly, Rational
from meshlab.permutations import DOWN_UP, UP_DOWN
from meshlab.reference import ZIGZAG_REFERENCE


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


def newton_fit(xs: Sequence[Fraction], ys: Sequence[Fraction]) -> list[Fraction]:
    """
    The polynomial of degree < len(xs) through the points (xs[i], ys[i]), by
    Newton's divided differences, as ascending Fraction coefficients with
    trailing zeros trimmed.  Plain lists only: no Poly arithmetic.
    """
    coef = [Fraction(y) for y in ys]
    for level in range(1, len(xs)):
        for i in reversed(range(level, len(xs))):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    # Horner on the Newton form: p <- p * (t - x_i) + c_i, innermost first
    poly: list[Fraction] = []
    for c, x in zip(reversed(coef), reversed(xs)):
        step = [Fraction(0)] + poly
        for k, p in enumerate(poly):
            step[k] -= x * p
        step[0] += c
        poly = step
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _truncated_product(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Ordinary power series product, cut after the length of a."""
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        if x:
            for j in range(len(a) - i):
                out[i + j] += x * b[j]
    return out


def sec_power_series(m: int, exponent: int, degree: int) -> list[Fraction]:
    """
    sec(t/m)^exponent through t^degree, as ordinary power series coefficients:
    sec u = sum_k E_2k u^2k / (2k)! with E from the printed OEIS prefix
    reference.ZIGZAG_REFERENCE, raised by repeated squaring.
    """
    base = [Fraction(ZIGZAG_REFERENCE[k], factorial(k) * m**k) if k % 2 == 0 else Fraction(0)
            for k in range(degree + 1)]
    power = [Fraction(1)] + [Fraction(0)] * degree
    while exponent:
        if exponent & 1:
            power = _truncated_product(power, base)
        exponent >>= 1
        if exponent:
            base = _truncated_product(base, base)
    return power


def sole_passing_variant(records) -> str:
    """The one variant whose records all pass; RuntimeError unless exactly one does."""
    passing: dict = {}
    for rec in records:
        passing[rec["variant"]] = passing.get(rec["variant"], True) and rec["verdict"] == "pass"
    confirmed = [variant for variant, ok in passing.items() if ok]
    if len(confirmed) != 1:
        raise RuntimeError(f"expected exactly one passing variant, got {passing}")
    return confirmed[0]
