"""
Exact distributions of quadrant marked mesh patterns over alternating
permutations: an enumeration oracle, positional recursions and truncated
EGF arithmetic, cross-verified against each other and against published
tables, coefficient laws and closed forms.
"""
from .algebra import (
    EgfSeries,
    Poly,
    sec_series,
    solve_linear_ode,
    tan_series,
    zigzag_numbers,
)
from .distributions import (
    MMP_Q1,
    BruteForceLimitError,
    Family,
    brute_force_limit,
    dist_brute,
    egf_family,
    family_polynomial,
    sec_t_power_of_x,
    sec_xt_power,
)
from .permutations import (
    DOWN_UP,
    UP_DOWN,
    AlternatingClass,
    QuadrantSpec,
    enumerate_alternating,
    matches,
    mmp_count,
    quadrant_counts,
)

__version__ = "0.1.0"
