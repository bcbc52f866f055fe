"""
Reference data used as verification fixtures.

FAMILY_TABLES holds the published initial rows of the four distribution
polynomials (ascending coefficients).  PRINTED_CLOSED_FORMS holds the
published closed forms for the level-set ratio polynomials p_k, q_k, r_k,
s_k, transcribed literally.  Both are test fixtures, never computation
paths: the library recomputes everything and reports agreement verdicts.
A printed form that disagrees with the recursion values stays here verbatim
and simply carries a failing verdict in the reports.

ZIGZAG_REFERENCE is the prefix of OEIS A000111 (zigzag / Euler numbers);
its even-indexed entries are A000364 (secant numbers) and its odd-indexed
entries A000182 (tangent numbers).
"""
from __future__ import annotations

from fractions import Fraction

from .algebra import Poly

# family -> index -> ascending integer coefficients
FAMILY_TABLES: dict[str, dict[int, tuple[int, ...]]] = {
    "A": {
        0: (1,),
        1: (0, 1),
        2: (0, 0, 3, 2),
        3: (0, 0, 0, 15, 30, 16),
        4: (0, 0, 0, 0, 105, 420, 588, 272),
        5: (0, 0, 0, 0, 0, 945, 6300, 16380, 18960, 7936),
        6: (0, 0, 0, 0, 0, 0, 10395, 103950, 429660, 893640, 911328, 353792),
    },
    "B": {
        1: (1,),
        2: (0, 2),
        3: (0, 0, 8, 8),
        4: (0, 0, 0, 48, 128, 96),
        5: (0, 0, 0, 0, 384, 1920, 3456, 2176),
        6: (0, 0, 0, 0, 0, 3840, 30720, 97536, 142336, 79360),
        7: (0, 0, 0, 0, 0, 0, 46080, 537600, 2623488, 6574080, 8341504, 4245504),
    },
    "C": {
        0: (1,),
        1: (1,),
        2: (0, 2, 3),
        3: (0, 0, 8, 28, 25),
        4: (0, 0, 0, 48, 296, 614, 427),
        5: (0, 0, 0, 0, 384, 3648, 13104, 20920, 12465),
        6: (0, 0, 0, 0, 0, 3840, 51840, 282336, 769072, 1039946, 555731),
    },
    "D": {
        1: (1,),
        2: (0, 1, 1),
        3: (0, 0, 3, 8, 5),
        4: (0, 0, 0, 15, 75, 121, 61),
        5: (0, 0, 0, 0, 105, 840, 2478, 3128, 1385),
        6: (0, 0, 0, 0, 0, 945, 11025, 51030, 115350, 124921, 50521),
        7: (0, 0, 0, 0, 0, 0, 10395, 166320, 1105335, 3859680, 7365633, 7158128, 2702765),
    },
}

# OEIS A000111, E_0 .. E_14.
ZIGZAG_REFERENCE: tuple[int, ...] = (
    1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521,
    353792, 2702765, 22368256, 199360981,
)

def _scaled(numerators: list[int], denominator: int) -> Poly:
    return Poly(Fraction(c, denominator) for c in numerators)


# Published closed forms for the ratio polynomials, as literal data.
# key: (which, k) -> (polynomial in n, display string as published).
PRINTED_CLOSED_FORMS: dict[tuple[str, int], tuple[Poly, str]] = {
    ("p", 0): (Poly([1]), "p_0(n) = 1"),
    ("p", 1): (_scaled([0, -1, 1], 3), "p_1(n) = (2/3) binom(n,2)"),
    ("p", 2): (
        _scaled([0, 2, 7, -14, 5], 90),
        "p_2(n) = n(2+7n-14n^2+5n^3)/90",
    ),
    ("p", 3): (
        _scaled([0, 192, -478, 213, 227, -198, 35], 5670),
        "p_3(n) = n(192-478n+213n^2+227n^3-198n^4+35n^5)/5670",
    ),
    ("q", 0): (Poly([1]), "q_0(n) = 1"),
    ("q", 1): (_scaled([-1, 0, 1], 3), "q_1(n) = (n^2-1)/3"),
    ("q", 2): (
        # (n-2)(n-1)(5n^2+n-3)/90 expanded
        _scaled([-6, 11, 4, -14, 5], 90),
        "q_2(n) = (n-2)(n-1)(5n^2+n-3)/90",
    ),
    ("q", 3): (
        _scaled([198, -81, 140, 345, -193, -84, 35], 5670),
        "q_3(n) = (35n^6-84n^5-193n^4+345n^3+140n^2-81n+198)/5670",
    ),
    ("r", 0): (Poly([1]), "r_0(n) = 1"),
    ("r", 1): (_scaled([-3, 2, 2], 6), "r_1(n) = (2n^2+2n-3)/6"),
    ("r", 2): (
        _scaled([45, -12, -128, 24, 20], 360),
        "r_2(n) = (20n^4+24n^3-128n^2-12n+45)/360",
    ),
    ("r", 3): (
        _scaled([2835, -6702, 8734, 3168, -4820, 168, 280], 45360),
        "r_3(n) = (280n^6+168n^5-4820n^4+3168n^3+8734n^2-6702n+2835)/45360",
    ),
    ("s", 0): (Poly([1]), "s_0(n) = 1"),
    ("s", 1): (_scaled([0, 2, 1], 3), "s_1(n) = n(n+2)/3"),
    ("s", 2): (
        _scaled([0, 47, -68, 16, 5], 90),
        "s_2(n) = n(5n^3+16n^2-68n+47)/90",
    ),
    ("s", 3): (
        _scaled([0, -60, 656, -417, -340, 126, 35], 5760),
        "s_3(n) = n(35n^5+126n^4-340n^3-417n^2+656n-60)/5760",
    ),
}
