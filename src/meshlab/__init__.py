"""
Exact distributions of quadrant marked mesh patterns over alternating
permutations: an enumeration oracle, positional recursions and truncated
EGF arithmetic, cross-verified against each other and against published
tables, coefficient laws and closed forms.
"""
from .algebra import (
    EgfSeries,
    Poly,
    fit_polynomial,
    sec_series,
    solve_linear_ode,
    tan_series,
    tangent_number,
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
    complement,
    enumerate_alternating,
    is_down_up,
    is_up_down,
    matches,
    mmp_count,
    quadrant_counts,
    reverse,
)

__version__ = "0.1.0"
