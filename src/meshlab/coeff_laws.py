"""
Boundary-coefficient laws and level-set counts for the four families.

The natural parameterisation for level sets matches the recursions: for a
parameter n >= 1 the relevant polynomials are A_{2n}, B_{2n+1}, C_{2n} and
D_{2n+1}.  Each family has a base exponent (the lowest power with a nonzero
coefficient), a double-factorial multiplier, a ratio polynomial family, and a
top term (the highest power in a row of length L >= 2), held in _LEVELS:

    family  polynomial  base   count at base + k    top term
    A       A_{2n}      n      p_k(n) (2n-1)!!      x^(L-1)
    B       B_{2n+1}    n      q_k(n) (2n)!!        x^(L-2)
    C       C_{2n}      n-1    r_k(n) (2n-2)!!      x^(L-2)
    D       D_{2n+1}    n      s_k(n) (2n-1)!!      x^(L-1)

p and q satisfy double-sum recursions seeded by p_k(k+1) = T_{2k+1}/(2k+1)!!
and q_k(k+1) = T_{2k+1}/(2k)!! (T the tangent numbers); r and s are finite
sums consuming q and p values.  The double sums telescope in n, so p and q
are running sums, kept by (k, n) for the life of the process: a row up to n
costs O(k n) terms.  Every law is summed as integers over one denominator per
k, shared by all four laws (the lcm of their terms' denominators), and each
value a caller gets is made a Fraction once; a level-law prediction is made
once from the numerator times the multiplier.  Two published versions of the
q recursion disagree with each other, so both are implemented behind a
variant flag and an adjudication records which one the oracle confirms.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm, prod

from .algebra import Poly, zigzag_numbers
from .distributions import MMP_Q1, Family, dist_brute, family_polynomial
from .records import make_record
from .reference import PRINTED_CLOSED_FORMS


def double_factorial(m: int) -> int:
    """
    m!! with the conventions (-1)!! = 0!! = 1.

    >>> double_factorial(7)
    105
    >>> double_factorial(6)
    48
    >>> double_factorial(0), double_factorial(-1)
    (1, 1)
    """
    if m < -1:
        raise ValueError("double factorial needs m >= -1")
    return prod(range(m, 1, -2))


# ---------------------------------------------------------------------------
# Ratio polynomial values p_k, q_k, r_k, s_k.
# ---------------------------------------------------------------------------


# The running sums of p and q differ only in a parity: p's seed is
# T_{2k+1}/(2k+1)!! and its factors run (2t-2)(2t-4)..., q's seed is
# T_{2k+1}/(2k)!! and its factors run (2t-1)(2t-3)....
_P, _Q = 1, 0


@cache
def _scale(k: int) -> tuple[int, tuple[int, int], tuple[int, ...], tuple[int, ...]]:
    """
    D(k) = lcm((2j+1)! D(k-j) for j = 1..k), D(0) = 1, the one denominator of
    p_k, q_k (both variants), r_k and s_k at every n, and the int seed
    numerators D(k) T_{2k+1}/(2k+parity)!! by parity, double-sum weights
    D(k) T_{2j+1}/((2j+1)! D(k-j)), j = 1..k, and secant weights
    D(k) S_{2j}/((2j)! D(k-j)), j = 0..k (S the secant numbers).  D(k) serves
    all four laws: each seed's (2k+parity)!! divides the j = k term
    (2k+1)! D(0), and each secant term (2j)! D(k-j) divides (2j+1)! D(k-j).
    """
    d = [None] + [_scale(k - j)[0] for j in range(1, k + 1)]  # d[j] = D(k - j)
    den = d[0] = lcm(*(factorial(2 * j + 1) * d[j] for j in range(1, k + 1)))
    ee = zigzag_numbers(2 * k + 1)
    seeds = tuple(den // double_factorial(2 * k + parity) * ee[2 * k + 1] for parity in (0, 1))
    running = tuple(den // (factorial(2 * j + 1) * d[j]) * ee[2 * j + 1] for j in range(1, k + 1))
    secant = tuple(den // (factorial(2 * j) * d[j]) * ee[2 * j] for j in range(k + 1))
    return den, seeds, running, secant


# p_k(n) and statement q_k(n) by (parity, k, n), never by position, so a nested
# or concurrent extension of one k stores equal values under equal keys.  A
# value is the numerator over _scale's denominator.
_RATIO_SUMS: dict[tuple, int] = {}


def _ratio_sum(parity: int, k: int, n: int) -> int:
    """
    D(k) times T_{2k+1}/(2k+parity)!! + sum_{t=k+2}^{n} sum_{j=1}^{k} T_{2j+1}
    (2t-1-parity)(2t-3-parity) ... (2t+1-parity-2j) / (2j+1)! * law(k-j, t-j-1),
    law being p (parity 1) or q (parity 0), an int (see _scale),
    resumed from the highest stored n below.
    """
    if k == 0:
        return 1
    _, seeds, weights, _ = _scale(k)
    top = n
    while (acc := _RATIO_SUMS.get((parity, k, top))) is None:
        if top == k + 1:
            acc = seeds[parity]
            break
        top -= 1
    for t in range(top + 1, n + 1):
        for j, weight in enumerate(weights, 1):
            factor = prod(range(2 * t - 1 - parity, 2 * t - 1 - parity - 2 * j, -2))
            acc += weight * factor * _ratio_sum(parity, k - j, t - j - 1)
        _RATIO_SUMS[parity, k, t] = acc
    return acc


def _check_k(k: int) -> None:
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")


def _ratio(letter: str, k: int, n: int, variant: str = "statement") -> tuple[int, int]:
    """
    The law named by letter ("p" .. "s") at (k, n), after that law's domain
    checks, as a numerator over D(k), the one denominator of every law at k.
    """
    _check_k(k)
    if variant not in ("statement", "in-proof"):
        raise ValueError(f"unknown variant {variant!r}")
    if n < k + 1 and (k or letter in "rs"):
        raise ValueError(f"{letter}_{k} is defined for n >= {k + 1}")
    den = _scale(k)[0]
    if letter == "r":
        return _secant_sum(_Q, k, n - 1, 2 * n - 1), den
    if letter == "s":
        return _secant_sum(_P, k, n, 2 * n), den
    if variant == "in-proof":
        return _q_in_proof(k, n), den
    return _ratio_sum(_P if letter == "p" else _Q, k, n), den


def p_value(k: int, n: int) -> Fraction:
    """
    p_k(n) for n >= k + 1, from the double-sum recursion

        p_k(n) = T_{2k+1}/(2k+1)!!
               + sum_{j=1}^{k} sum_{t=k+2}^{n}
                 T_{2j+1} (2t-2)(2t-4)...(2t-2j) / (2j+1)!  *  p_{k-j}(t-j-1)

    with p_0 = 1, kept as a running sum: p_k(n) is p_k(n-1) plus the t = n terms.

    >>> [p_value(1, n) for n in (2, 3, 4)]
    [Fraction(2, 3), Fraction(2, 1), Fraction(4, 1)]
    """
    return Fraction(*_ratio("p", k, n))


def q_value(k: int, n: int, variant: str = "statement") -> Fraction:
    """
    q_k(n) for n >= k + 1.  The "statement" variant uses

        q_k(n) = T_{2k+1}/(2k)!!
               + sum_{j=1}^{k} sum_{t=k+2}^{n}
                 T_{2j+1} prod_{s=0}^{j-1} (2t-1-2s) / (2j+1)!  *  q_{k-j}(t-j-1)

    with q_0 = 1, evaluated and kept as a running sum in n like p_value.  The
    "in-proof" variant keeps the derivation's literal factor 2^j
    prod_{s=1}^{j-1} (2n-2s-1) instead; it depends on n rather than t, so it
    is summed afresh for each n (and cached).  The two disagree, and the
    adjudication below shows only the statement variant matches the oracle.

    >>> q_value(1, 2), q_value(1, 3)
    (Fraction(1, 1), Fraction(8, 3))
    """
    return Fraction(*_ratio("q", k, n, variant))


@cache
def _q_in_proof(k: int, n: int) -> int:
    """
    The in-proof q_k(n) over the denominator D(k) (see _scale), an int:

        T_{2k+1}/(2k)!! + sum_{j=1}^{k} 2^j (2n-3)(2n-5)...(2n-2j+1)
                          T_{2j+1} / (2j+1)!  *  sum_{t=k+2}^{n} q_{k-j}(t-j-1)
    """
    _, seeds, weights, _ = _scale(k)
    acc = seeds[_Q]
    for j, weight in enumerate(weights, 1):
        factor = 2**j * prod(range(2 * n - 3, 2 * n - 1 - 2 * j, -2))
        acc += weight * factor * sum(_q_in_proof(k - j, t - j - 1) for t in range(k + 2, n + 1))
    return acc


def _secant_sum(parity: int, k: int, n: int, top: int) -> int:
    """
    sum_{j=0}^{k} S_{2j} top (top-2) ... (top-2j+2) / (2j)! * law(k-j, n-j) over
    _scale's denominator D(k), an int, S the secant numbers: r_k(n) sums q
    values (parity 0) at n - 1 and top = 2n - 1, s_k(n) sums p values
    (parity 1) at n and top = 2n.
    law(m, m) is 0 for m >= 1: the row of length 2m (p) or 2m + 1 (q) has
    degree 2m - 1 < 2m, so its level count at base + m vanishes.
    """
    acc = 0
    for j, weight in enumerate(_scale(k)[3]):
        m = k - j
        if m and n - j == m:
            continue
        acc += weight * prod(range(top, top - 2 * j, -2)) * _ratio_sum(parity, m, n - j)
    return acc


def r_value(k: int, n: int) -> Fraction:
    """
    r_k(n) = sum_{j=0}^{k} S_{2j} prod_{s=1}^{j} (2n+1-2s) / (2j)!
             * q_{k-j}(n-j-1),  for n >= k + 1  (S the secant numbers).

    At n = k + 1 every term reads q_m(m), one step below the recursion seed.
    The distribution polynomial for length 2m + 1 has degree 2m - 1 < 2m, so
    the level count at 2m vanishes and q_m(m) = 0 for m >= 1 (q_0 = 1).

    >>> r_value(1, 2)
    Fraction(3, 2)
    """
    return Fraction(*_ratio("r", k, n))


def s_value(k: int, n: int) -> Fraction:
    """
    s_k(n) = sum_{j=0}^{k} S_{2j} prod_{s=1}^{j} (2n+2-2s) / (2j)!
             * p_{k-j}(n-j),  for n >= k + 1.

    >>> s_value(1, 3)
    Fraction(5, 1)
    """
    return Fraction(*_ratio("s", k, n))


def p_values(k: int, n_max: int) -> list[Fraction]:
    """p_k(n) for n = k+1 .. n_max."""
    return [p_value(k, n) for n in range(k + 1, n_max + 1)]


def q_values(k: int, n_max: int) -> list[Fraction]:
    return [q_value(k, n) for n in range(k + 1, n_max + 1)]


def r_values(k: int, n_max: int) -> list[Fraction]:
    return [r_value(k, n) for n in range(k + 1, n_max + 1)]


def s_values(k: int, n_max: int) -> list[Fraction]:
    return [s_value(k, n) for n in range(k + 1, n_max + 1)]


# ---------------------------------------------------------------------------
# Level-set parameterisation.
# ---------------------------------------------------------------------------


# The module docstring's table, at level parameter n: the ratio law's letter,
# base exponent n + base, multiplier (2n + multiplier)!! and top term
# x^(L - top) in a row of length L.  Level n is the family row of index
# n + Family.min_index(), of length 2n + min_index().
_Level = namedtuple("_Level", "letter base multiplier top")

_LEVELS = {
    Family.A: _Level("p", 0, -1, 1),
    Family.B: _Level("q", 0, 0, 2),
    Family.C: _Level("r", -1, -2, 2),
    Family.D: _Level("s", 0, -1, 1),
}
_FAMILY_OF_LAW = {row.letter: family for family, row in _LEVELS.items()}


def _level_polynomial(family: Family, n: int) -> Poly:
    return family_polynomial(family, n + family.min_index())


def _row_coefficient(poly: Poly, e: int):
    """The stored coefficient of x^e (an int in every family row), 0 outside the row."""
    return poly.coeffs[e] if 0 <= e < len(poly.coeffs) else 0


def level_base(family: Family, n: int) -> int:
    """Lowest exponent carrying a nonzero coefficient, in the n parameter."""
    return n + _LEVELS[family].base


def level_multiplier(family: Family, n: int) -> int:
    return double_factorial(2 * n + _LEVELS[family].multiplier)


def level_set(family: Family, n: int, k: int) -> int:
    """
    Number of permutations in the family row with statistic base + k,
    read off the recursion-computed polynomial.

    >>> level_set(Family.A, 2, 1)
    2
    >>> level_set(Family.C, 3, 1)
    28
    """
    _check_k(k)
    value = _row_coefficient(_level_polynomial(family, n), level_base(family, n) + k)
    if type(value) is not int:
        raise ArithmeticError(f"level-set count {value} is not an integer")
    return value


def level_set_brute(family: Family, n: int, k: int) -> int:
    """Same count, but from the enumeration oracle instead of the recursion."""
    _check_k(k)
    poly = dist_brute(family.length(n + family.min_index()), family.alternating_class, MMP_Q1)
    return _row_coefficient(poly, level_base(family, n) + k)


def level_law_value(family: Family, k: int, n: int) -> Fraction:
    """The predicted level count: ratio polynomial times the multiplier."""
    return _prediction(family, n, _ratio(_LEVELS[family].letter, k, n))


def _prediction(family: Family, n: int, ratio: tuple[int, int]) -> Fraction:
    """A ratio law's level count at n: numerator (2n + multiplier)!! over denominator."""
    num, den = ratio
    return Fraction(num * level_multiplier(family, n), den)


# ---------------------------------------------------------------------------
# Checks.  Each returns report records (see records.make_record).
# ---------------------------------------------------------------------------


def lowest_coefficient_check(family: Family, index: int) -> dict:
    """
    The family polynomial vanishes below its base exponent and carries an
    exact double factorial there (the k = 0 level law):

        A row n: (2n-1)!! at x^n          B row m: (2m-2)!! at x^(m-1)
        C row n: (2n-2)!! at x^(n-1)      D row m: (2m-3)!! at x^(m-1)
    """
    if index < 1:
        raise ValueError(f"boundary checks need index >= 1, got {index}")
    poly = family_polynomial(family, index)
    n = index - family.min_index()
    base, expected = level_base(family, n), level_multiplier(family, n)
    return make_record(
        "lowest-coefficient",
        family=family,
        n=index,
        expected=(True, expected),
        actual=(not any(poly.coeffs[:base]), _row_coefficient(poly, base)),
    )


def highest_coefficient_check(family: Family, index: int) -> dict:
    """
    Degree and leading coefficient C(L-1, degree) E_degree of the top term:

        A row n: degree 2n-1, leading T_{2n-1}
        B row m: degree 2m-3, leading (2m-2) T_{2m-3}   (row 1 is the seed 1)
        C row n: degree 2n-2, leading (2n-1) S_{2n-2}
        D row m: degree 2m-2, leading S_{2m-2}          (row 1 is the seed 1)
    """
    if index < 1:
        raise ValueError(f"boundary checks need index >= 1, got {index}")
    poly = family_polynomial(family, index)
    length = family.length(index)
    degree = max(length - _LEVELS[family].top, 0)  # a length-1 row is the seed 1
    lead = comb(length - 1, degree) * zigzag_numbers(degree)[degree]
    return make_record(
        "highest-coefficient",
        family=family,
        n=index,
        expected=(degree, lead),
        actual=(poly.degree, _row_coefficient(poly, poly.degree)),
    )


def seed_identity_check(k_max: int) -> list[dict]:
    """p_k(k+1) = T_{2k+1}/(2k+1)!! and q_k(k+1) = T_{2k+1}/(2k)!!."""
    return [
        make_record(
            f"seed-{letter}", family=_FAMILY_OF_LAW[letter], k=k, n=k + 1,
            expected=Fraction(zigzag_numbers(2 * k + 1)[-1], double_factorial(2 * k + parity)),
            actual=Fraction(*_ratio(letter, k, k + 1)),
        )
        for k in range(k_max + 1)
        for letter, parity in (("p", _P), ("q", _Q))
    ]


def level_law_check(
    family: Family, k: int, n_max: int, *, source: str = "recursion"
) -> list[dict]:
    """
    Compare level-set counts with the law prediction for n = k+1 .. n_max.
    source selects where the counts come from: the recursion polynomials or
    the enumeration oracle.
    """
    if source not in ("recursion", "brute"):
        raise ValueError(f"unknown source {source!r}")
    count = level_set if source == "recursion" else level_set_brute
    records = []
    for n in range(k + 1, n_max + 1):
        records.append(
            make_record(
                f"level-law-{source}",
                family=family,
                k=k,
                n=n,
                actual=count(family, n, k),
                expected=level_law_value(family, k, n),
            )
        )
    return records


def q_variant_adjudication(k_max: int, n_max: int) -> list[dict]:
    """
    Decide between the two printed q recursions by comparing each against the
    level-set counts of the recursion polynomials (themselves oracle-checked
    elsewhere).  Records carry variant names; the statement form passes.
    """
    records = []
    for variant in ("statement", "in-proof"):
        for k in range(1, k_max + 1):
            for n in range(k + 1, n_max + 1):
                records.append(
                    make_record(
                        "q-recursion-variant",
                        family=Family.B,
                        k=k,
                        n=n,
                        expected=level_set(Family.B, n, k),
                        actual=_prediction(Family.B, n, _ratio("q", k, n, variant)),
                        variant=variant,
                    )
                )
    return records


def closed_form_check(which: str, k: int) -> list[dict]:
    """
    Evaluate a published closed form against the recursion values.  The
    printed polynomial is data, not ground truth; disagreement is a reported
    verdict, not an error.  It is checked at the eight points n = k+1 .. k+8,
    which pin down polynomials of the printed degrees uniquely.
    """
    poly, display = PRINTED_CLOSED_FORMS[(which, k)]
    family = _FAMILY_OF_LAW[which]
    records = []
    for n in range(k + 1, k + 9):
        records.append(
            make_record(
                "closed-form",
                family=family,
                k=k,
                n=n,
                expected=Fraction(*_ratio(which, k, n)),
                actual=poly(Fraction(n)),
                variant=display,
            )
        )
    return records


def closed_form_verdicts() -> dict[tuple[str, int], bool]:
    """Overall agree/disagree verdict for every published closed form."""
    verdicts = {}
    for which, k in sorted(PRINTED_CLOSED_FORMS):
        records = closed_form_check(which, k)
        verdicts[(which, k)] = all(r["verdict"] == "pass" for r in records)
    return verdicts


def unimodality_check(family: Family, max_index: int) -> list[dict]:
    """
    A polynomial is unimodal when its nonzero coefficient run weakly rises
    then weakly falls.  Reports the mode exponent for each row.  A failure
    here would be a counterexample to an open conjecture, so it is reported
    prominently rather than raised.
    """
    records = []
    for index in range(1, max_index + 1):
        coeffs = family_polynomial(family, index).coeffs
        first = next(i for i, c in enumerate(coeffs) if c)
        run = list(coeffs[first:])
        peak = run.index(max(run))  # the first highest coefficient
        rising, falling = run[: peak + 1], run[peak:]
        records.append(
            make_record(
                "unimodal",
                family=family,
                n=index,
                expected=True,
                actual=rising == sorted(rising) and falling == sorted(falling, reverse=True),
                variant=f"mode at x^{first + peak}",
            )
        )
    return records
