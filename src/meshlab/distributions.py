"""
The four distribution families of the quadrant-I statistic over alternating
permutations, reached by three routes:

  * brute force: enumerate the class and histogram the statistic (the oracle);
  * positional recursion on the location of the largest value, whose rows
    egf_family also lays out as the B, C and D series;
  * the paper's closed forms as truncated EGFs: A = sec(xt)^{1/x} solved
    from its linear ODE, and B, C and D from sec powers and antiderivatives.

Family naming: A and B collect up-down permutations of even and odd length,
C and D down-up permutations of even and odd length.  Family index n means
length 2n for A and C, length 2n - 1 for B and D, matching the classical
tables A_{2n}(x), B_{2n-1}(x), C_{2n}(x), D_{2n-1}(x).

Exact throughout: brute-force histograms are Python integers, everything
else is rational.
"""
from __future__ import annotations

import enum
import os
from functools import cache, wraps
from itertools import accumulate
from math import comb

from .algebra import (
    EgfSeries,
    Poly,
    solve_linear_ode,
    tan_series,
    zigzag_numbers,
)
from .permutations import (
    DOWN_UP,
    UP_DOWN,
    AlternatingClass,
    QuadrantSpec,
    enumerate_alternating,
    mmp_count,
)
from .records import make_record

MMP_Q1 = QuadrantSpec(1, 0, 0, 0)

# Hard guard for the exhaustive oracle.  At length 14 the literal reference
# would make ~2 * 10^8 statistic evaluations per class, and dist_brute's
# subset DP fills a 2^14-slot table (tracemalloc peak ~1.2 MB); beyond that
# you must opt in explicitly.  Of dist_brute's two DPs only the subset DP
# needs it: specs whose quadrants II and III ask e, 0 or 1 run the extremes
# DP, O(n^4) steps, and n(n+1)/2 additions when II and III are both
# unconstrained.  The guard applies to every spec alike, so whether a call
# is refused depends on its length alone.
DEFAULT_BRUTE_LIMIT = 14
BRUTE_LIMIT_ENV = "MESHLAB_MAX_BRUTE"


class BruteForceLimitError(RuntimeError):
    """Raised when an enumeration request exceeds the configured guard."""

    def __init__(self, length: int, limit: int):
        super().__init__(
            f"brute-force enumeration of length {length} exceeds the guard "
            f"({limit}); pass force=True or raise {BRUTE_LIMIT_ENV}"
        )
        self.length = length
        self.limit = limit


def env_int(name: str, default: int) -> int:
    """The integer in environment variable name, or default when it is unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc


def brute_force_limit() -> int:
    """Current guard: the MESHLAB_MAX_BRUTE override or the built-in default."""
    return env_int(BRUTE_LIMIT_ENV, DEFAULT_BRUTE_LIMIT)


class Family(enum.Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"

    # members are singletons, so identity is equality: a C-level hash for
    # the cache and table keys, not Enum's hash of the name
    __hash__ = object.__hash__

    def __init__(self, value: str) -> None:
        self.alternating_class: AlternatingClass = UP_DOWN if value in ("A", "B") else DOWN_UP
        self.even_length: bool = value in ("A", "C")

    def length(self, index: int) -> int:
        """Permutation length for a family index (2n, or 2n - 1 for B and D)."""
        return 2 * index if self.even_length else 2 * index - 1

    def index_for_length(self, length: int) -> int:
        if self.even_length != (length % 2 == 0):
            raise ValueError(f"family {self.value} has no row of length {length}")
        return (length + 1) // 2

    def min_index(self) -> int:
        return 0 if self.even_length else 1


def family_for(length: int, cls: AlternatingClass) -> Family:
    """The family a (length, class) pair contributes to."""
    if length % 2 == 0:
        return Family.A if cls is UP_DOWN else Family.C
    return Family.B if cls is UP_DOWN else Family.D


# ---------------------------------------------------------------------------
# Route 1: the positional recursion on the location of the largest value.
#
# With E_j the zigzag numbers, the distribution over words of length L in
# class cls is
#
#   P(L, cls) = sum_j C(L-1, j) E_j x^j P(L-1-j, up-down),   P(0) = P(1) = 1,
#
# with j odd for up-down words and even for down-up words.  The j entries
# left of the peak all match the quadrant-I pattern, hence the plain x-power;
# the up-down word right of the peak contributes its own distribution.  The
# printed A_{2n}, B_{2n-1}, C_{2n} and D_{2n-1} recursions are its four
# parity cases.  Each term adds the row's nonzero window, times C(L-1, j) E_j
# and shifted by j, into one list of the final length L.  j runs downward, so
# the rows right of the peak are built shortest first and a cold row recurses
# only a few frames deep.
# ---------------------------------------------------------------------------


@cache
def _positional(length: int, cls: AlternatingClass) -> Poly:
    if length <= 1:
        return Poly.one()
    ee = zigzag_numbers(length - 1)
    out = [0] * length
    for j in reversed(range(1 if cls is UP_DOWN else 0, length, 2)):
        rest, scale = _positional(length - 1 - j, UP_DOWN), comb(length - 1, j) * ee[j]
        for i, y in enumerate(rest.coeffs[rest._lo:], j + rest._lo):
            out[i] += scale * y
    return Poly(out)


def family_polynomial(family: Family, index: int) -> Poly:
    """Recursion-computed distribution polynomial for a family row."""
    if index < family.min_index():
        raise ValueError(f"family {family.value} needs index >= {family.min_index()}")
    return _positional(family.length(index), family.alternating_class)


# ---------------------------------------------------------------------------
# Route 2: the exhaustive oracle.
# ---------------------------------------------------------------------------


def _dist_brute_python(length: int, cls: AlternatingClass, spec: QuadrantSpec) -> Poly:
    hist = [0] * (length + 1)
    for perm in enumerate_alternating(length, cls):
        hist[mmp_count(perm, spec)] += 1
    return Poly(hist)


def _unpacked(packed: int, w: int, n: int) -> Poly:
    """The histogram packed w bits per coefficient, x^0 lowest, up to x^n."""
    mask = (1 << w) - 1
    return Poly([(packed >> (k * w)) & mask for k in range(n + 1)])


def _thresholds(spec: QuadrantSpec, n: int) -> list[list[bool]]:
    """Per quadrant I-IV, okq[c]: does a count c in 0..n-1 meet spec's requirement?"""
    return [[c == 0 if req is None else c >= req for c in range(n)] for req in spec.requirements]


def _dist_brute_extremes(n: int, cls: AlternatingClass, spec: QuadrantSpec) -> Poly:
    # For q2 and q3 in {None, 0, 1}, quadrants II and III ask at most whether
    # some earlier value lies above or below v.  Quadrants I and IV depend
    # only on the rank j of v among the r values not yet placed (v included):
    # the r - 1 later entries are the others, so c4 = j and c1 = u = r - 1 - j.
    # A prefix's future thus depends only on which gap of its unplaced values
    # holds its last value and on its largest and smallest placed values, so
    # prefixes are grouped by (k, g, h): k unplaced values lie below the last
    # value, g above the largest placed value and h below the smallest (n
    # each while nothing is placed).  Placing the value of rank j:
    #   * it needs j >= k on an ascent and j < k on a descent; k' = j;
    #   * c2 >= 1 iff u >= g (v lies below the largest placed value) and
    #     c3 >= 1 iff j >= h;
    #   * g' = g if u >= g, else u (v is the new largest), and h' = h if
    #     j >= h, else j.
    # Requirements e, 0 and 1 give ok lists constant from entry 1 on, so
    # ok2[c2 >= 1] and ok3[c3 >= 1] decide II and III (entry 1 is read only
    # after a value is placed, so n >= 2).  An all-True list asks nothing:
    # its extreme is not tracked and stays n.  With neither tracked (II and
    # III both 0, as in MMP(1,0,0,0)) there is one group, and the DP is the
    # boustrophedon (Entringer) triangle with x marking matches.
    #
    # groups[g, h] is the packed histogram vector over k.  A value of rank j
    # may follow the gaps k <= j on an ascent and k > j on a descent, so each
    # depth is one running sum per group.  A virtual value 0 (before an
    # ascent) or n + 1 (before a descent) opens the word, so any value may
    # come first.  One slot merges prefixes over every placed set, so it can
    # hold more than E_n of them; a coefficient counts at most the class
    # prefixes of length d, C(n, d) E_d (a set of d values, arranged
    # alternating), so w bits hold every coefficient without a carry.
    ok1, ok2, ok3, ok4 = _thresholds(spec, n)
    track2, track3 = not all(ok2), not all(ok3)
    ee = zigzag_numbers(n)
    w = max(comb(n, d) * ee[d] for d in range(n + 1)).bit_length()
    start = [0] * (n + 1)
    start[0 if cls.rises_into(0) else n] = 1
    groups = {(n, n): start}
    for d in range(n):
        r = n - d
        rising = cls.rises_into(d)
        marks = [ok1[r - 1 - j] and ok4[j] for j in range(r)]
        grown: dict[tuple[int, int], list[int]] = {}
        for (g, h), ends in groups.items():
            if rising:
                sums = accumulate(ends[:r])  # gaps 0..j
            else:
                sums = reversed(list(accumulate(ends[:0:-1])))  # gaps j+1..r
            for j, s in enumerate(sums):
                if not s:
                    continue
                u = r - 1 - j
                top, bottom = u < g, j < h
                key = (u if top and track2 else g, j if bottom and track3 else h)
                slot = grown.get(key)
                if slot is None:
                    slot = grown[key] = [0] * r
                slot[j] += s << w if marks[j] and ok2[not top] and ok3[not bottom] else s
        groups = grown
    return _unpacked(sum(ends[0] for ends in groups.values()), w, n)


def _dist_brute_subset(n: int, cls: AlternatingClass, spec: QuadrantSpec) -> Poly:
    # Each position's quadrant counts are fixed the moment its value v lands
    # at 0-based depth d: with k the values already placed below v,
    #   c3 = k,  c2 = d - k,  c1 = (n - v) - c2,  c4 = (v - 1) - k,
    # each in 0..n-1, so the threshold lists okq[c] (does count c meet
    # quadrant q's requirement?) decide whether the position matches.  Each
    # depth's steps are (bit of v, marks) in sweep order, marks[k] being that
    # match; an unreachable (v, k) may read ok1 or ok4 from the end, but
    # marks[k] is only read with k the true count below v.  The rest of a
    # word's statistic thus depends only on its set of placed values `used`
    # (bit v - 1 marks value v) and its last value, so all prefixes sharing
    # that state are extended together, one depth at a time: table[used][r]
    # is the histogram of the prefixes that place exactly `used` and end at
    # its value of 0-based rank r, packed w bits per coefficient so that
    # multiplying by x is a shift.  masks lists the depth's states, each
    # freed once read.  A state holds at most E_n prefixes (the arrangements
    # of its values), so no coefficient carries into the next.
    ok1, ok2, ok3, ok4 = _thresholds(spec, n)
    w = zigzag_numbers(n)[n].bit_length()
    table: list[list[int] | None] = [[1]] + [None] * ((1 << n) - 1)  # the empty word
    masks = [0]
    for d in range(n):
        # Sweep v so that acc has passed exactly the values v may follow and
        # k counts the placed values below v: v lands at rank k.
        rising = cls.rises_into(d)
        steps = [
            (1 << (v - 1), [
                ok1[n - v - d + k] and ok2[d - k] and ok3[k] and ok4[v - 1 - k]
                for k in range(d + 1)
            ])
            for v in (range(1, n + 1) if rising else range(n, 0, -1))
        ]
        grown = []
        for used in masks:
            ends = table[used]
            table[used] = None
            acc = 0 if used else 1  # any value may open the word
            k = 0 if rising else d
            for bit, marks in steps:
                if used & bit:
                    if rising:
                        acc += ends[k]
                        k += 1
                    else:
                        k -= 1
                        acc += ends[k]
                elif acc:
                    succ = used | bit
                    slot = table[succ]
                    if slot is None:
                        slot = table[succ] = [0] * (d + 1)
                        grown.append(succ)
                    slot[k] = acc << w if marks[k] else acc
        masks = grown
    return _unpacked(sum(table[-1]), w, n)  # the one state left places all n


def dist_brute(
    length: int,
    cls: AlternatingClass,
    spec: QuadrantSpec,
    *,
    workers: int = 1,
    force: bool = False,
) -> Poly:
    """
    The oracle: sum of x^statistic over every alternating permutation of the
    given length and class.

    Lengths above the guard (see brute_force_limit) raise
    BruteForceLimitError unless force=True.  The spec picks one of two
    DPs.  When quadrants II and III each ask e, 0 or 1 (MMP(1,0,e,0) and
    the quadrant-I statistic MMP(1,0,0,0) among them), all words whose last
    value has the same rank among the values not yet placed, and as many
    unplaced values above their largest and below their smallest placed
    value, are extended together, O(n^4) steps.  An extreme whose quadrant
    is unconstrained is not tracked, so MMP(a,0,0,d) runs the boustrophedon
    triangle, n(n+1)/2 additions.  Any other spec extends together all
    words that share their placed values and last value, O(n^2 2^n) steps.
    Each DP takes (length, cls, spec), as does _dist_brute_python, mmp_count
    on every generated word, the literal reference the two are tested against.

    Each (length, cls, spec) is computed once per process and its histogram
    kept, while the guard is checked on every call.  A histogram that does
    not sum to the zigzag number E_length raises ArithmeticError and is not
    kept.  Enumeration runs in the calling thread; workers is accepted and
    ignored, so results never depend on it.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length == 0:
        return Poly.one()  # the empty word, admitted by every guard
    limit = brute_force_limit()
    if length > limit and not force:
        raise BruteForceLimitError(length, limit)
    return _histogram(length, cls, spec)


@cache
def _histogram(length: int, cls: AlternatingClass, spec: QuadrantSpec) -> Poly:
    hist = (_dist_brute_extremes if spec.q2 in (None, 0, 1) and spec.q3 in (None, 0, 1)
            else _dist_brute_subset)(length, cls, spec)
    total = zigzag_numbers(length)[length]
    count = sum(hist.coeffs)
    if count != total:
        raise ArithmeticError(f"histogram sums to {count}, not E_{length} = {total}")
    return hist


# ---------------------------------------------------------------------------
# Route 3: the paper's closed forms as truncated EGFs.
#
# B' = 1 + tan(xt) B, C' = sec(xt) B and D' = sec(xt) A are not solved: the
# t^k/k! coefficients of tan(xt) and sec(xt) are E_k x^k at odd and even k,
# so each series' t^L/L! coefficient, sum_k C(L-1,k) f_k c_{L-1-k}, is
# _positional's sum over j = k; egf_family lays those rows out instead.  The
# solves are the paper's closed forms: A = sec(xt)^{1/x}, sec_xt_power at
# multiplier 1, and sec(xt)^{-1/x} and sec(xt)^{1+1/x}, from which
# closed_form_series_check builds B, C and D.  (sec t)^x is no solve of
# its own: u = xt and y = 1/x turn it into A, so its row n is A's row n read
# backwards.  A truncated solution's first m + 1 coefficients do not depend
# on its order, so each power is solved once per multiplier at the highest
# order asked and lower orders are truncations of it.
# ---------------------------------------------------------------------------


def _longest_solve(solve):
    """
    Keep per key (the arguments before the order) the longest series solve
    has returned, even if a shorter solve ends after it; answer orders 0 ..
    its order by truncating it, and any other, negative too, by calling solve.
    """
    longest: dict[tuple, EgfSeries] = {}

    @wraps(solve)
    def solved(*args):
        key, order = args[:-1], args[-1]
        if (have := longest.get(key)) is not None and 0 <= order <= have.order:
            return have.truncate(order)
        series = solve(*args)
        longest[key] = max(longest.get(key, series), series, key=lambda s: s.order)
        return series

    return solved


def egf_family(family: Family, order: int, /) -> EgfSeries:
    """
    Truncated series for a family; the t^m/m! coefficient equals the family
    polynomial at the matching length and is zero at the opposite parity.
    A is solved as sec(xt)^{1/x}; B, C and D are _positional's kept rows.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if family is Family.A:
        return sec_xt_power(Poly.one(), order)
    return EgfSeries(
        _positional(m, family.alternating_class)
        if (m % 2 == 0) == family.even_length else Poly.zero()
        for m in range(order + 1)
    )


@_longest_solve
def sec_xt_power(multiplier: Poly, order: int, /) -> EgfSeries:
    """
    sec(xt)^alpha as the solution of Y' = multiplier * tan(xt) * Y, Y(0) = 1,
    where multiplier = alpha * x.  The powers used here (alpha in {1/x, -1/x,
    1 + 1/x}) all make the multiplier a genuine polynomial, which keeps every
    series coefficient polynomial in x; the power itself is never formed
    symbolically.
    """
    f = tan_series(order) * multiplier
    return solve_linear_ode(f, EgfSeries.constant(Poly.zero(), order), Poly.one(), order)


@_longest_solve
def sec_t_power_of_x(order: int, /) -> EgfSeries:
    """
    (sec t)^x, read off A = sec(xt)^{1/x}: putting u = xt and y = 1/x turns
    one series into the other, so the t^n/n! coefficient of (sec t)^x is
    x^n A_n(1/x), A's row n padded to n + 1 coefficients and read backwards.
    A's solve already holds these numbers, so no second ODE is solved.
    """
    return EgfSeries(
        Poly(reversed(row.coeffs + (0,) * (n + 1 - len(row.coeffs))))
        for n, row in enumerate(egf_family(Family.A, order).coeffs)
    )


# ---------------------------------------------------------------------------
# Verification helpers: each returns report records (see records.make_record).
# ---------------------------------------------------------------------------


# The four equality chains relating the rotated unit statistics to the
# families, one entry per family: which class is summed with which statistic
# to reproduce that family's polynomial.  Reversal preserves the alternating
# class at odd length and swaps it at even length; complementation always
# swaps, which is why the even and odd chains differ.
_Q2, _Q3, _Q4 = QuadrantSpec(0, 1, 0, 0), QuadrantSpec(0, 0, 1, 0), QuadrantSpec(0, 0, 0, 1)
_SYMMETRY_CHAINS: dict[Family, list[tuple[QuadrantSpec, AlternatingClass]]] = {
    Family.A: [(_Q2, DOWN_UP), (_Q4, DOWN_UP), (_Q3, UP_DOWN)],
    Family.C: [(_Q2, UP_DOWN), (_Q4, UP_DOWN), (_Q3, DOWN_UP)],
    Family.B: [(_Q2, UP_DOWN), (_Q4, DOWN_UP), (_Q3, DOWN_UP)],
    Family.D: [(_Q2, DOWN_UP), (_Q4, UP_DOWN), (_Q3, UP_DOWN)],
}


def symmetry_suite(max_length: int) -> list[dict]:
    """
    Brute-force verification of the four reverse/complement equality chains
    for every length up to max_length.  One record per chain member.
    """
    records = []
    for length in range(1, max_length + 1):
        for cls in (UP_DOWN, DOWN_UP):
            family = family_for(length, cls)
            base = dist_brute(length, cls, MMP_Q1)
            for spec, other_cls in _SYMMETRY_CHAINS[family]:
                other = dist_brute(length, other_cls, spec)
                records.append(
                    make_record(
                        "symmetry-chain",
                        family=family,
                        n=family.index_for_length(length),
                        expected=base,
                        actual=other,
                        variant=f"{spec} over {other_cls.value}",
                    )
                )
    return records


def oracle_equivalence(max_length: int) -> list[dict]:
    """
    Brute force vs recursion vs EGF coefficient for the quadrant-I statistic,
    every length and class up to max_length.  Two records per pair.
    """
    # every length meets the guard before any series is solved
    pairs = [(length, cls) for length in range(1, max_length + 1) for cls in (UP_DOWN, DOWN_UP)]
    brutes = [dist_brute(length, cls, MMP_Q1) for length, cls in pairs]
    series = {fam: egf_family(fam, max_length) for fam in Family}
    records = []
    for (length, cls), brute in zip(pairs, brutes):
        family = family_for(length, cls)
        index = family.index_for_length(length)
        rec = family_polynomial(family, index)
        egf = series[family].coefficient(length)
        records.append(
            make_record(
                "oracle-vs-recursion", family=family, n=index,
                expected=brute, actual=rec,
            )
        )
        records.append(
            make_record(
                "oracle-vs-egf", family=family, n=index,
                expected=brute, actual=egf,
            )
        )
    return records


def sec_power_identity(max_n: int) -> list[dict]:
    """
    Check that (sec t)^x expands to the distribution of the pattern that asks
    for a point above-right and an empty lower-left quadrant, over up-down
    permutations of even length 2n, for n <= max_n.
    """
    spec = QuadrantSpec(1, 0, None, 0)
    # every length meets the guard before the series is solved
    actuals = [dist_brute(2 * n, UP_DOWN, spec) for n in range(max_n + 1)]
    series = sec_t_power_of_x(2 * max_n)
    return [
        make_record(
            "sec-power-identity",
            family=Family.A,
            n=n,
            expected=series.coefficient(2 * n),
            actual=actual,
            variant=str(spec),
        )
        for n, actual in enumerate(actuals)
    ]


def closed_form_series_check(order: int) -> list[dict]:
    """
    Rebuild B, C and D compositionally from sec powers and antiderivatives
    and compare with the ODE route.  The two printed variants of the inner
    exponent in the C double integral disagree; both are evaluated and the
    records name which one the computation confirms.
    """
    if order < 2:
        raise ValueError("need order >= 2 for the composite forms")
    # D = integral of sec(xz)^{1 + 1/x}; the same power is C's outer factor
    outer = sec_xt_power(Poly([1, 1]), order - 1)

    def c_form(sign: int) -> EgfSeries:
        # C = 1 + double integral; the sign of the inner exponent is adjudicated
        inner = sec_xt_power(Poly([sign]), order - 2).integrate()
        return (outer * inner).integrate(constant=Poly.one())

    forms = [
        # B = sec(xt)^{1/x} * integral of sec(xz)^{-1/x}
        ("series-closed-form", Family.B, "sec^(1/x) * int sec^(-1/x)",
         sec_xt_power(Poly([1]), order) * sec_xt_power(Poly([-1]), order - 1).integrate()),
        ("series-closed-form", Family.D, "int sec^(1+1/x)", outer.integrate()),
        ("c-double-integral", Family.C, "inner exponent -1/x", c_form(-1)),
        ("c-double-integral", Family.C, "inner exponent +1/x", c_form(+1)),
    ]
    return [
        make_record(
            check, family=family, expected=egf_family(family, order), actual=series,
            variant=variant,
        )
        for check, family, variant, series in forms
    ]
