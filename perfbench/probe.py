"""
Layer probe: fixed small inputs timed one layer at a time, untraced, in a
fresh interpreter of its own, each time rescaled to reference speed.

The traced pass says where a workload's time goes; the probe gives each
layer a time on the same inputs whatever the workload, so every per-layer
time is measured on every workload and none reads a constant zero.  Steps
run in the order below, so a step may find earlier steps' memos warm; that
order is part of the probe's definition.
"""
from __future__ import annotations

import io
import time
from contextlib import redirect_stdout

import meshlab.algebra as algebra
import meshlab.cli as cli
import meshlab.coeff_laws as laws
import meshlab.distributions as dist
import meshlab.permutations as perms
import meshlab.verify as verify
from meshlab.distributions import MMP_Q1, Family
from meshlab.permutations import DOWN_UP, UP_DOWN, QuadrantSpec

import calib

ENUMERATE_MAX_LENGTH = 10
MMP_LENGTH = 9
LEVEL_K = 3
LEVEL_N = 15


def _timed(fn, *args, **kwargs) -> float:
    """Seconds the call takes, rescaled to reference speed (see calib.py)."""
    before = calib.slice_s()
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    elapsed = time.perf_counter() - t0
    return calib.at_reference(elapsed, (before + calib.slice_s()) / 2)


def _exhaust(max_length: int) -> None:
    for length in range(1, max_length + 1):
        for cls in (UP_DOWN, DOWN_UP):
            for _ in perms.enumerate_alternating(length, cls):
                pass


def run_probe() -> dict[str, float]:
    m: dict[str, float] = {}

    # algebra, cold: the zigzag table first, then one ODE solve and one
    # EGF product at order 80 on prebuilt operands.
    m["algebra.zigzag_s"] = _timed(algebra.zigzag_numbers, 400)
    tan = algebra.tan_series(79)
    sec = algebra.sec_series(79)
    zero = algebra.EgfSeries.constant(algebra.Poly.zero(), 79)
    m["algebra.solve_linear_ode_s"] = _timed(
        algebra.solve_linear_ode, tan, zero, algebra.Poly.one(), 80
    )
    m["algebra.egf_mul_s"] = _timed(lambda: sec * tan)

    # permutations: enumeration alone, then the statistic alone.
    m["permutations.enumerate_s"] = _timed(_exhaust, ENUMERATE_MAX_LENGTH)
    words = [
        p for cls in (UP_DOWN, DOWN_UP) for p in perms.enumerate_alternating(MMP_LENGTH, cls)
    ]
    elapsed = _timed(lambda: [perms.mmp_count(p, MMP_Q1) for p in words])
    m["permutations.mmp_count_us_per_perm"] = elapsed / len(words) * 1e6

    # distributions: the oracle by length, its worker split, the recursion
    # rows and the EGF route.  Each oracle input is used once.
    for length in (8, 9, 10):
        m[f"distributions.dist_brute.len{length}_s"] = _timed(
            dist.dist_brute, length, UP_DOWN, MMP_Q1, workers=1
        )
    one = _timed(dist.dist_brute, 9, DOWN_UP, MMP_Q1, workers=1)
    two = _timed(dist.dist_brute, 9, DOWN_UP, QuadrantSpec(0, 1, 0, 0), workers=2)
    m["distributions.parallel_speedup"] = one / two
    m["distributions.recursion_s"] = _timed(
        lambda: [
            dist.family_polynomial(f, i) for f in Family for i in range(f.min_index(), 41)
        ]
    )
    for order in (40, 80):
        m[f"distributions.egf_family.o{order}_s"] = _timed(
            lambda: [dist.egf_family(f, order) for f in Family]
        )
    m["distributions.sec_power_s"] = _timed(dist.sec_t_power_of_x, 80)

    # coeff_laws: ratio values cold, then the level laws by both routes
    # (the oracle one to length 8), then the published closed forms.
    m["coeff_laws.values_s"] = _timed(
        lambda: [
            fn(k, LEVEL_N)
            for fn in (laws.p_values, laws.q_values, laws.r_values, laws.s_values)
            for k in range(LEVEL_K + 1)
        ]
    )
    m["coeff_laws.level_law.recursion_s"] = _timed(
        lambda: [laws.level_law_check(f, k, LEVEL_N) for f in Family for k in range(LEVEL_K + 1)]
    )
    m["coeff_laws.level_law.brute_s"] = _timed(
        lambda: [
            laws.level_law_check(f, k, n_max, source="brute")
            for f, n_max in ((Family.A, 4), (Family.B, 3))
            for k in range(n_max)
        ]
    )
    m["coeff_laws.closed_form_s"] = _timed(laws.closed_form_verdicts)

    # verify: every suite, with the oracle kept to length 8.
    suites = {
        "tables": lambda: verify.run_tables(),
        "symmetry": lambda: verify.run_symmetry(7),
        "oracle": lambda: verify.run_oracle(8),
        "egf": lambda: verify.run_egf(14, sec_power_max_n=4),
        "coeff_laws": lambda: verify.run_coeff_laws(brute_level_max_length=8),
        "closed_forms": lambda: verify.run_closed_forms(),
        "unimodality": lambda: verify.run_unimodality(),
    }
    for name, run in suites.items():
        m[f"verify.{name}_s"] = _timed(run)

    # cli: one table and one series, formatted.
    def cli_calls() -> None:
        with redirect_stdout(io.StringIO()):
            cli.main(["table", "--family", "A", "--max-index", "12", "--format", "latex"])
            cli.main(["series", "--gf", "A", "--order", "40", "--format", "json"])

    m["cli.main_s"] = _timed(cli_calls)
    return m
