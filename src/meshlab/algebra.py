"""
Exact arithmetic: dense rational polynomials and truncated exponential
generating functions whose coefficients are polynomials.

Everything here is exact; no floating point enters at any stage.  Integral
coefficients are plain ints, so the hot loops run on Python ints; the rest
are fractions.Fraction values in lowest terms with a positive denominator.

An EgfSeries of order N stores polynomials c_0 .. c_N and denotes
F(t, x) = sum c_n(x) t^n / n!, so products are binomial convolutions.  One
kernel, _binomial_term, makes every product: a polynomial product is its
n = 0 case, and each ODE step is one call.  It sums into one list of raw
coefficients, skips each factor's leading zeros and makes one Poly.
Truncation orders are explicit and mixing them is an error; call truncate()
first when that is what you mean.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb
from typing import Iterable, Sequence

Rational = Fraction | int


class Poly:
    """
    Dense univariate polynomial with exact rational coefficients, ascending
    powers.  Trailing zeros are trimmed; the zero polynomial stores nothing.
    Integral coefficients are stored as int, the rest as normalised Fraction;
    evaluation returns a Fraction all the same.

    Immutable by convention: never mutate .coeffs.

    >>> Poly([3, 2]) * Poly([0, 1])
    Poly((0, 3, 2))
    >>> Poly([0, 0, 3, 2])(1)
    Fraction(5, 1)
    """

    __slots__ = ("coeffs", "_lo")

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [c if type(c) is int else _normal(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Rational, ...] = tuple(cs)
        self._lo = cs.index(next(filter(None, cs))) if cs else 0  # 0 for the zero poly

    @classmethod
    def zero(cls) -> Poly:
        return _ZERO

    @classmethod
    def one(cls) -> Poly:
        return _ONE

    @classmethod
    def monomial(cls, coeff: Rational, power: int) -> Poly:
        if power < 0:
            raise ValueError(f"monomial power must be nonnegative, got {power}")
        return cls([0] * power + [coeff])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: Poly | Rational) -> Poly:
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __mul__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        return _binomial_term((self,), (other,), 0)

    def __call__(self, value: Rational) -> Fraction:
        """Evaluate at a rational by Horner's rule."""
        result = 0
        for c in reversed(self.coeffs):
            result = result * value + c
        return Fraction(result)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r})"


def _normal(c) -> Rational:
    """Exact normal form: an int when integral, else a lowest-terms Fraction."""
    f = Fraction(c)
    return f.numerator if f.denominator == 1 else f


_ZERO = Poly()
_ONE = Poly([1])


def _coerce(value: Poly | Rational) -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly([value])


def _binomial_term(f: Sequence[Poly], g: Sequence[Poly], n: int, plus: Poly = _ZERO) -> Poly:
    """
    sum_k binom(n, k) f_k g_{n-k} + plus in one list, sized once; each product runs
    from both factors' lowest nonzero coefficient (Poly._lo), not from x^0.
    """
    size = len(plus.coeffs)
    for k in range(n + 1):
        a, b = f[k].coeffs, g[n - k].coeffs
        if a and b and len(a) + len(b) > size:
            size = len(a) + len(b) - 1
    out = [*plus.coeffs] + [0] * (size - len(plus.coeffs))
    for k in range(n + 1):
        a, b = f[k], g[n - k]
        if a.coeffs and b.coeffs:
            scale, lo, window = comb(n, k), b._lo, b.coeffs[b._lo:]
            for i, x in enumerate(a.coeffs[a._lo:], a._lo):
                if x:
                    x *= scale
                    for j, y in enumerate(window, i + lo):
                        if y:
                            out[j] += x * y
    return Poly(out)


class EgfSeries:
    """
    Truncated exponential generating function with polynomial coefficients:
    order N means coefficients c_0 .. c_N of t^n / n! are stored exactly.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Poly | Rational]):
        cs = tuple(_coerce(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least the order-0 coefficient")
        self.coeffs: tuple[Poly, ...] = cs

    @classmethod
    def constant(cls, value: Poly | Rational, order: int) -> EgfSeries:
        if order < 0:
            raise ValueError(f"series order must be nonnegative, got {order}")
        return cls([_coerce(value)] + [_ZERO] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Poly:
        """Coefficient of t^n/n!.  Beyond-truncation queries are errors."""
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def _check_order(self, other: EgfSeries) -> None:
        if self.order != other.order:
            raise ValueError(
                f"mixed truncation orders {self.order} and {other.order}; truncate explicitly"
            )

    def __add__(self, other: EgfSeries) -> EgfSeries:
        self._check_order(other)
        return EgfSeries(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __mul__(self, other: EgfSeries | Poly) -> EgfSeries:
        if isinstance(other, Poly):
            return EgfSeries(c * other for c in self.coeffs)
        if not isinstance(other, EgfSeries):
            return NotImplemented
        self._check_order(other)
        # EGF product: c_n(fg) = sum_k binom(n, k) c_k(f) c_{n-k}(g)
        return EgfSeries(
            _binomial_term(self.coeffs, other.coeffs, n) for n in range(self.order + 1)
        )

    def integrate(self, constant: Poly | Rational = 0) -> EgfSeries:
        """
        Antiderivative in t with the given value at t = 0; the order rises by
        one (the shifted coefficients are all exactly known).
        """
        return EgfSeries((_coerce(constant),) + self.coeffs)

    def truncate(self, order: int) -> EgfSeries:
        if order < 0:
            raise ValueError(f"truncation order must be nonnegative, got {order}")
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return EgfSeries(self.coeffs[: order + 1])

    def at_x(self, value: Rational) -> list[Fraction]:
        """Specialise the marker variable, e.g. at_x(1) for plain counting."""
        return [c(Fraction(value)) for c in self.coeffs]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EgfSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"EgfSeries(order={self.order})"


def solve_linear_ode(
    f: EgfSeries, g: EgfSeries, y0: Poly | Rational, order: int
) -> EgfSeries:
    """
    Unique truncated solution of Y' = f Y + g with Y(0) = y0.

    Term by term: c_0 = y0 and c_{n+1} = sum_k binom(n, k) f_k c_{n-k} + g_n,
    so f and g only need coefficients through order - 1.  The residual
    Y' - f Y - g vanishes identically through order - 1, which tests verify
    in exact arithmetic.
    """
    if order < 0:
        raise ValueError(f"series order must be nonnegative, got {order}")
    if f.order < order - 1 or g.order < order - 1:
        raise ValueError(f"f and g must be defined through order {order - 1}")
    coeffs = [_coerce(y0)]
    for n in range(order):
        coeffs.append(_binomial_term(f.coeffs, coeffs, n, g.coeffs[n]))
    return EgfSeries(coeffs)


# Zigzag numbers E_n (OEIS A000111): 1, 1, 1, 2, 5, 16, 61, 272, 1385, ...
# E_n counts the alternating permutations of length n; the even-indexed values
# are the secant numbers (A000364) and the odd-indexed ones the tangent
# numbers (A000182).  Computed by the boustrophedon (Seidel triangle)
# recurrence: integer additions only, no series inversion.  The table and the
# last Seidel row are one pair, never changed in place: a call extends a copy
# and publishes the new pair whole, so no thread reads a half-built row.
_zigzag: tuple[list[int], tuple[int, ...]] = ([1], (1,))


def zigzag_numbers(n: int) -> list[int]:
    """
    The zigzag numbers E_0 .. E_n.

    >>> zigzag_numbers(10)
    [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    global _zigzag
    table, row = _zigzag
    if len(table) <= n:
        table = table.copy()
        while len(table) <= n:
            row = tuple(accumulate(reversed(row), initial=0))
            table.append(row[-1])
        _zigzag = table, row
    return table[: n + 1]


def tan_series(order: int) -> EgfSeries:
    """
    tan(xt) as a truncated EGF: the t^m/m! coefficient is E_m x^m for odd m
    and zero for even m.

    >>> tan_series(4).coefficient(3)
    Poly((0, 0, 0, 2))
    """
    ee = zigzag_numbers(order)
    return EgfSeries(
        Poly.monomial(ee[m], m) if m % 2 == 1 else _ZERO for m in range(order + 1)
    )


def sec_series(order: int) -> EgfSeries:
    """
    sec(xt) as a truncated EGF: E_m x^m at even m, zero at odd m.

    >>> sec_series(4).coefficient(4)
    Poly((0, 0, 0, 0, 5))
    """
    ee = zigzag_numbers(order)
    return EgfSeries(
        Poly.monomial(ee[m], m) if m % 2 == 0 else _ZERO for m in range(order + 1)
    )
