import hashlib
import inspect
import itertools
import json
import subprocess
import sys
import threading
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshlab.distributions
from meshlab.algebra import EgfSeries, Poly, solve_linear_ode, tan_series, zigzag_numbers
from meshlab.distributions import (
    MMP_Q1,
    BruteForceLimitError,
    Family,
    _dist_brute_extremes,
    _dist_brute_python,
    _dist_brute_subset,
    _histogram,
    _positional,
    brute_force_limit,
    closed_form_series_check,
    dist_brute,
    egf_family,
    family_for,
    family_polynomial,
    oracle_equivalence,
    sec_power_identity,
    sec_t_power_of_x,
    sec_xt_power,
    symmetry_suite,
)
from meshlab.permutations import DOWN_UP, UP_DOWN, QuadrantSpec, enumerate_alternating
from meshlab.records import make_record
from meshlab.reference import FAMILY_TABLES

from helpers import newton_fit, sec_power_series, sole_passing_variant


# --- family plumbing -------------------------------------------------------


def test_family_index_length_maps():
    assert Family.A.length(3) == 6
    assert Family.B.length(4) == 7
    assert Family.C.index_for_length(10) == 5
    assert Family.D.index_for_length(13) == 7
    with pytest.raises(ValueError):
        Family.A.index_for_length(5)
    assert family_for(6, UP_DOWN) is Family.A
    assert family_for(6, DOWN_UP) is Family.C
    assert family_for(5, UP_DOWN) is Family.B
    assert family_for(5, DOWN_UP) is Family.D


def test_family_class_and_parity():
    assert Family.A.alternating_class is UP_DOWN
    assert Family.D.alternating_class is DOWN_UP
    assert Family.C.even_length and not Family.B.even_length


# --- brute force oracle ----------------------------------------------------


def test_dist_brute_examples():
    assert dist_brute(4, UP_DOWN, MMP_Q1) == Poly([0, 0, 3, 2])
    assert dist_brute(3, DOWN_UP, MMP_Q1) == Poly([0, 1, 1])
    # the all-zero spec is matched by every position
    assert dist_brute(2, UP_DOWN, QuadrantSpec(0, 0, 0, 0)) == Poly([0, 0, 1])
    assert dist_brute(0, UP_DOWN, MMP_Q1) == Poly.one()
    assert dist_brute(1, DOWN_UP, MMP_Q1) == Poly.one()
    with pytest.raises(ValueError, match="^length must be nonnegative$"):
        dist_brute(-1, UP_DOWN, MMP_Q1)


@pytest.mark.parametrize(
    "spec",
    [
        MMP_Q1,
        QuadrantSpec(0, 1, 0, 0),
        QuadrantSpec(1, 0, None, 0),
        QuadrantSpec(2, 1, 0, 0),
        QuadrantSpec(0, None, 0, 1),
        QuadrantSpec(0, 0, 0, 0),
    ],
)
def test_dist_brute_matches_the_reference_on_listed_specs(spec):
    for length in range(1, 8):
        for cls in (UP_DOWN, DOWN_UP):
            assert dist_brute(length, cls, spec) == _dist_brute_python(length, cls, spec)


_DPS = ("_dist_brute_extremes", "_dist_brute_subset")


@pytest.fixture
def cold_histograms():
    # dist_brute keeps each input's histogram for the process: a test that
    # counts or replaces DP runs starts, and leaves, with none kept
    _histogram.cache_clear()
    yield
    _histogram.cache_clear()


@pytest.fixture
def dp_runs(cold_histograms, monkeypatch):
    """(DP name, arguments) per DP run, in order, while the real DP answers."""
    runs = []
    for name in _DPS:
        dp = getattr(meshlab.distributions, name)

        def spy(*args, dp=dp, name=name):
            runs.append((name, args))
            return dp(*args)

        monkeypatch.setattr(meshlab.distributions, name, spy)
    return runs


def test_dist_brute_routes_each_spec_to_one_dp(dp_runs):
    # both DPs give the same histograms, so only the route shows which ran:
    # II and III both in {e, 0, 1} run the extremes DP (both 0 included),
    # and a 2 or 3 in either the subset DP
    small = (None, 0, 1)
    for reqs in itertools.product((None, 0, 1, 2, 3), repeat=4):
        dp_runs.clear()
        dist_brute(5, DOWN_UP, QuadrantSpec(*reqs))
        routed = [name for name, _ in dp_runs]
        b, c = reqs[1:3]
        expected = "_dist_brute_extremes" if b in small and c in small else "_dist_brute_subset"
        assert routed == [expected], reqs


def test_worker_partitioning_is_exact():
    for cls in (UP_DOWN, DOWN_UP):
        _histogram.cache_clear()  # so that both calls compute
        lone = dist_brute(8, cls, MMP_Q1, workers=1)
        _histogram.cache_clear()
        many = dist_brute(8, cls, MMP_Q1, workers=5)
        assert lone == many


def assert_matches_reference(length, cls, spec):
    fast = dist_brute(length, cls, spec)
    assert fast == _dist_brute_python(length, cls, spec)
    assert fast(1) == zigzag_numbers(length)[length]


@pytest.mark.parametrize("cls", [UP_DOWN, DOWN_UP])
def test_empty_word_counts_once_on_every_route(cls):
    # one convention for length 0: the generator yields the empty word once,
    # so the literal reference and each DP count it as dist_brute does
    assert list(enumerate_alternating(0, cls)) == [()]
    # specs that route to the extremes DP with no extreme tracked and with
    # one, and to the subset DP
    for spec in (MMP_Q1, QuadrantSpec(1, 0, None, 0), QuadrantSpec(None, 2, 0, 1)):
        for oracle in (dist_brute, _dist_brute_python, _dist_brute_extremes, _dist_brute_subset):
            assert oracle(0, cls, spec) == Poly.one(), (oracle.__name__, spec)


wide_requirement = st.one_of(st.none(), st.integers(0, 3))


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 8),
    st.sampled_from([UP_DOWN, DOWN_UP]),
    st.tuples(wide_requirement, wide_requirement, wide_requirement, wide_requirement),
)
def test_dist_brute_matches_the_reference_on_random_specs(length, cls, reqs):
    assert_matches_reference(length, cls, QuadrantSpec(*reqs))


@pytest.mark.parametrize("length", range(9))
def test_dist_brute_matches_the_reference_on_short_words(length):
    # 9 exceeds every quadrant count, so each quadrant runs its "empty",
    # "at least k" and "never met" threshold entries.  Up to length 5 every
    # spec runs, so both DPs (extremes, subset) meet the reference there,
    # the extremes DP with each choice of tracked extremes.  Past length 5
    # only the specs with quadrants II and III unconstrained run (the
    # extremes DP, no extreme tracked); the literal reference makes the rest
    # too slow to run them all
    entries = (None, 0, 1, 2, 9)
    middles = itertools.product(entries, repeat=2) if length <= 5 else [(0, 0)]
    for (b, c), (a, d) in itertools.product(middles, itertools.product(entries, repeat=2)):
        for cls in (UP_DOWN, DOWN_UP):
            assert_matches_reference(length, cls, QuadrantSpec(a, b, c, d))


@pytest.mark.parametrize("spec", [
    QuadrantSpec(None, 2, 0, 1),  # the subset DP
    QuadrantSpec(1, 0, None, 2),  # the extremes DP
    QuadrantSpec(2, 0, 0, 1), QuadrantSpec(None, 0, 0, 2),  # the extremes DP, untracked
])
@pytest.mark.parametrize("cls", [UP_DOWN, DOWN_UP])
def test_dist_brute_matches_the_reference_at_length_nine(cls, spec):
    assert_matches_reference(9, cls, spec)


@pytest.mark.parametrize(
    "dp, top", [(_dist_brute_extremes, 20), (_dist_brute_subset, 12)], ids=["extremes", "subset"]
)
@pytest.mark.parametrize("cls", [UP_DOWN, DOWN_UP])
def test_packed_histogram_boundaries(cls, dp, top):
    # each DP packs the coefficients of a histogram into fixed fields:
    # E_n.bit_length() bits in the subset DP, where a state holds at most E_n
    # words, and the wider max_d C(n, d) E_d bits in the extremes DP, whose
    # slots merge prefixes over every set of placed values.  The all-zero
    # spec puts all E_n words on x^n (the top field), the all-empty spec puts
    # them on x^0 (the bottom field) once n >= 2.
    ee = zigzag_numbers(top)
    for length in range(1, top + 1):
        assert dp(length, cls, QuadrantSpec(0, 0, 0, 0)) == Poly.monomial(ee[length], length)
        if length >= 2:
            assert dp(length, cls, QuadrantSpec(None, None, None, None)) == Poly([ee[length]])


def test_histogram_sum_is_checked(cold_histograms, monkeypatch):
    # each DP in turn returns a histogram that sums to 1, not E_5 = 16, for
    # specs routed to it; x, not a constant, so the message must show its
    # value at x = 1.  Such a histogram is not kept: a second call raises too
    routed = (
        ("_dist_brute_extremes", MMP_Q1),
        ("_dist_brute_extremes", QuadrantSpec(1, 0, None, 0)),
        ("_dist_brute_subset", QuadrantSpec(2, 2, 0, 0)),  # its own reversal
    )
    for name, spec in routed:
        with monkeypatch.context() as patch:
            patch.setattr(meshlab.distributions, name, lambda *args: Poly([0, 1]))
            for _ in range(2):
                with pytest.raises(ArithmeticError, match="^histogram sums to 1, not E_5 = 16$"):
                    dist_brute(5, UP_DOWN, spec)


def test_dist_brute_runs_each_input_once(dp_runs):
    # the other class, another length, a spec for each DP and one spec's
    # reverse-complement image (the same histogram, another input): each a
    # DP run of its own, however often and in whatever order it is asked
    inputs = [
        (7, UP_DOWN, MMP_Q1),
        (7, DOWN_UP, MMP_Q1),
        (6, UP_DOWN, MMP_Q1),
        (7, UP_DOWN, QuadrantSpec(2, 1, 0, 0)),
        (7, rc_class(7, UP_DOWN), QuadrantSpec(0, 0, 2, 1)),
        (7, UP_DOWN, QuadrantSpec(0, 2, 0, 0)),
    ]
    first = [dist_brute(*args) for args in inputs]
    again = [dist_brute(*args, workers=3) for args in reversed(inputs)][::-1]
    assert all(a is b for a, b in zip(first, again))
    assert first[3] == first[4]
    assert dp_runs == [("_dist_brute_extremes", args) for args in inputs[:4]] + [
        ("_dist_brute_subset", args) for args in inputs[4:]]


def test_guard_is_checked_on_every_call_of_a_kept_input(dp_runs, monkeypatch):
    kept = dist_brute(8, UP_DOWN, MMP_Q1)
    monkeypatch.setenv("MESHLAB_MAX_BRUTE", "6")
    with pytest.raises(BruteForceLimitError) as excinfo:
        dist_brute(8, UP_DOWN, MMP_Q1)
    assert (excinfo.value.length, excinfo.value.limit) == (8, 6)
    assert dist_brute(8, UP_DOWN, MMP_Q1, force=True) is kept
    assert dp_runs == [("_dist_brute_extremes", (8, UP_DOWN, MMP_Q1))]


def test_threads_filling_cold_histograms_agree(cold_histograms):
    # four threads ask the same inputs of a cold memo at once, switching
    # often; the reference is the literal enumeration
    inputs = [(length, cls, spec) for length in range(1, 9) for cls in (UP_DOWN, DOWN_UP)
              for spec in (MMP_Q1, QuadrantSpec(2, 2, 0, 0))]
    reference = [_dist_brute_python(*args) for args in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            _histogram.cache_clear()
            barrier = threading.Barrier(4)
            results = []

            def work():
                try:
                    barrier.wait(timeout=60)
                    results.append([dist_brute(*args) for args in inputs])
                except Exception as exc:  # reported below; a thread cannot fail the test
                    results.append(exc)

            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [reference] * 4
            assert [dist_brute(*args) for args in inputs] == reference
    finally:
        sys.setswitchinterval(interval)


def right_to_left_maxima(word) -> int:
    count, best = 0, 0
    for value in reversed(word):
        if value > best:
            count, best = count + 1, value
    return count


@pytest.mark.parametrize("cls", [UP_DOWN, DOWN_UP])
def test_quadrant_one_statistic_from_right_to_left_maxima(cls):
    # A position matches MMP(1,0,0,0) exactly when some later entry is
    # larger, so the statistic is n minus the number of right-to-left
    # maxima: a reference that never counts quadrants.
    for length in range(1, 9):
        hist = [0] * (length + 1)
        for word in enumerate_alternating(length, cls):
            hist[length - right_to_left_maxima(word)] += 1
        for oracle in (dist_brute, _dist_brute_python):
            assert oracle(length, cls, MMP_Q1) == Poly(hist)


requirement = st.one_of(st.none(), st.integers(0, 2))


@settings(deadline=None, max_examples=40)
@given(
    st.integers(1, 7),
    st.tuples(requirement, requirement, requirement, requirement),
)
def test_distribution_symmetries_for_arbitrary_patterns(length, reqs):
    # complementation swaps quadrants I<->IV and II<->III and maps the two
    # alternating classes onto each other; reversal swaps I<->II and III<->IV
    # and preserves the class at odd length.  Both must hold at the level of
    # whole distributions for every pattern, empty-quadrant entries included.
    a, b, c, d = reqs
    spec = QuadrantSpec(a, b, c, d)
    comp = QuadrantSpec(d, c, b, a)
    rev = QuadrantSpec(b, a, d, c)
    assert dist_brute(length, UP_DOWN, spec) == dist_brute(length, DOWN_UP, comp)
    if length % 2 == 1:
        assert dist_brute(length, UP_DOWN, spec) == dist_brute(length, UP_DOWN, rev)
        assert dist_brute(length, DOWN_UP, spec) == dist_brute(length, DOWN_UP, rev)
    else:
        assert dist_brute(length, UP_DOWN, spec) == dist_brute(length, DOWN_UP, rev)


def rc_class(length: int, cls):
    return cls if length % 2 == 0 else (DOWN_UP if cls is UP_DOWN else UP_DOWN)


@settings(deadline=None, max_examples=20)
@given(
    st.integers(10, 14),
    st.sampled_from([UP_DOWN, DOWN_UP]),
    st.tuples(wide_requirement, wide_requirement, wide_requirement, wide_requirement),
)
def test_reverse_complement_symmetry_at_long_lengths(length, cls, reqs):
    # reverse-complement swaps quadrants I<->III and II<->IV, and keeps the
    # alternating class at even length only
    a, b, c, d = reqs
    assert dist_brute(length, cls, QuadrantSpec(a, b, c, d)) == dist_brute(
        length, rc_class(length, cls), QuadrantSpec(c, d, a, b)
    )


@pytest.mark.parametrize("length", [10, 11, 12])
def test_untracked_extremes_dp_by_reverse_complement(length):
    # reverse-complement takes MMP(a,0,0,d), which the extremes DP counts
    # with no extreme tracked, to MMP(0,d,a,0), which the subset DP counts
    # whenever a or d is 2 or 9, and the extremes DP with an extreme tracked
    # whenever a and d are e, 0 or 1, not both 0
    entries = (None, 0, 1, 2, 9)
    for a, d in itertools.product(entries, repeat=2):
        image = _dist_brute_extremes if {a, d} <= {None, 0, 1} else _dist_brute_subset
        for cls in (UP_DOWN, DOWN_UP):
            assert _dist_brute_extremes(length, cls, QuadrantSpec(a, 0, 0, d)) == image(
                length, rc_class(length, cls), QuadrantSpec(0, d, a, 0)
            ), (a, d, cls)


@pytest.mark.parametrize("length", [10, 11, 12])
def test_extremes_dp_against_the_subset_dp_by_reverse_complement(length):
    # reverse-complement takes MMP(a,b,c,d) with b and c in {e, 0, 1}, which
    # the extremes DP counts (with no extreme tracked when b = c = 0), to
    # MMP(c,d,a,b), which the subset DP counts because a or d is 2
    outer = ((2, None), (2, 1), (None, 2), (0, 2))
    for (b, c), (a, d) in itertools.product(itertools.product((None, 0, 1), repeat=2), outer):
        for cls in (UP_DOWN, DOWN_UP):
            assert _dist_brute_extremes(length, cls, QuadrantSpec(a, b, c, d)) == (
                _dist_brute_subset(length, rc_class(length, cls), QuadrantSpec(c, d, a, b))
            ), (a, b, c, d, cls)


def test_brute_guard(monkeypatch):
    monkeypatch.setenv("MESHLAB_MAX_BRUTE", "6")
    assert brute_force_limit() == 6
    assert dist_brute(6, UP_DOWN, MMP_Q1)(1) == zigzag_numbers(6)[6]  # the guard itself runs
    for length in (7, 8):
        with pytest.raises(BruteForceLimitError) as excinfo:
            dist_brute(length, UP_DOWN, MMP_Q1)
        assert excinfo.value.length == length and excinfo.value.limit == 6
    # explicit override still works
    assert dist_brute(8, UP_DOWN, MMP_Q1, force=True)(1) == zigzag_numbers(8)[8]
    # a guard below 0 still admits the empty word
    monkeypatch.setenv("MESHLAB_MAX_BRUTE", "-1")
    assert dist_brute(0, UP_DOWN, MMP_Q1) == Poly.one()
    monkeypatch.setenv("MESHLAB_MAX_BRUTE", "not-a-number")
    with pytest.raises(ValueError):
        brute_force_limit()


def test_import_loads_no_numpy():
    # the library is pure Python; a heavy import must not creep back in
    proc = subprocess.run(
        [sys.executable, "-c", "import meshlab, sys; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"


_IMPORT_ADDS = (
    "import sys; before = set(sys.modules); import {}; "
    "print(' '.join(sorted(set(sys.modules) - before)))"
)


@pytest.mark.parametrize("module,absent", [
    ("meshlab", {"dataclasses", "meshlab.coeff_laws", "meshlab.reference"}),
    ("meshlab.cli", {"dataclasses", "meshlab.verify", "meshlab.coeff_laws", "meshlab.reference"}),
])
def test_import_cold_start_stays_lean(module, absent):
    # diff sys.modules around the import, so what site loads cannot count
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_ADDS.format(module)],
        capture_output=True, text=True, check=True,
    )
    added = set(proc.stdout.split())
    assert module in added
    assert not added & absent, sorted(added & absent)


def test_coeff_law_names_live_only_in_coeff_laws():
    # one way to each name: loading coeff_laws adds nothing to the package
    import meshlab
    import meshlab.coeff_laws as laws

    assert callable(laws.p_value)
    assert not hasattr(meshlab, "p_value")
    with pytest.raises(ImportError):
        from meshlab import p_value  # noqa: F401


# --- recursion route vs published tables -----------------------------------


@pytest.mark.parametrize("name,rows", sorted(FAMILY_TABLES.items()))
def test_recursion_reproduces_reference_tables(name, rows):
    family = Family(name)
    for index, coeffs in rows.items():
        assert family_polynomial(family, index) == Poly(coeffs), (name, index)


def test_specialisation_at_one():
    ee = zigzag_numbers(14)
    for n in range(0, 7):
        assert family_polynomial(Family.A, n)(1) == ee[2 * n]
        assert family_polynomial(Family.C, n)(1) == ee[2 * n]
    for n in range(1, 8):
        assert family_polynomial(Family.B, n)(1) == ee[2 * n - 1]
        assert family_polynomial(Family.D, n)(1) == ee[2 * n - 1]


def test_distribution_coefficients_are_nonnegative_integers():
    for family in Family:
        for index in range(family.min_index(), 11):
            poly = family_polynomial(family, index)
            assert all(c.denominator == 1 and c >= 0 for c in poly.coeffs)


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_cold_recursion_rows_stay_shallow():
    # a row asked first must not recurse once per shorter row: index 60
    # (length 119 or 120) has to fit in 30 frames above the caller's
    _positional.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 30)
    try:
        rows = {family: family_polynomial(family, 60) for family in Family}
    finally:
        sys.setrecursionlimit(limit)
    for family, row in rows.items():
        assert row(1) == zigzag_numbers(120)[family.length(60)], family


def test_poly_index_preconditions():
    for family, index in [(Family.A, -1), (Family.B, 0), (Family.C, -1), (Family.D, 0)]:
        with pytest.raises(ValueError):
            family_polynomial(family, index)


# --- EGF route --------------------------------------------------------------


def test_egf_routes_match_recursion():
    order = 10
    for family in Family:
        series = egf_family(family, order)
        for m in range(order + 1):
            coeff = series.coefficient(m)
            if (m % 2 == 0) != family.even_length:
                assert coeff.is_zero()
            elif m > 0:
                assert coeff == family_polynomial(family, family.index_for_length(m))


def test_a_and_d_rows_match_sec_powers_at_x_one_over_m():
    # the paper's closed forms at x = 1/m, where each exponent is an integer:
    # A = sec(t/m)^m and D = int_0^t sec(z/m)^(m+1) dz.  These series share
    # neither the product kernel nor zigzag_numbers with the library: plain
    # Fraction lists from the printed E_n, raised by repeated squaring.  The
    # values at m = 1..14 fix every row of length <= 14 (degree <= 13).
    xs = [Fraction(1, m) for m in range(1, 15)]
    a = [sec_power_series(m, m, 14) for m in range(1, 15)]
    d = [sec_power_series(m, m + 1, 12) for m in range(1, 15)]
    a_series, d_series = egf_family(Family.A, 14), egf_family(Family.D, 13)
    for length in range(0, 15, 2):
        # A_L(1/m) = L! [t^L] sec(t/m)^m
        row = newton_fit(xs, [factorial(length) * s[length] for s in a])
        assert list(family_polynomial(Family.A, length // 2).coeffs) == row, length
        assert list(a_series.coefficient(length).coeffs) == row, length
    for length in range(1, 14, 2):
        # D_L(1/m) = L! [t^L] int sec(z/m)^(m+1) dz = (L-1)! [z^(L-1)] sec(z/m)^(m+1)
        row = newton_fit(xs, [factorial(length - 1) * s[length - 1] for s in d])
        assert list(family_polynomial(Family.D, (length + 1) // 2).coeffs) == row, length
        assert list(d_series.coefficient(length).coeffs) == row, length


def test_egf_examples():
    a = egf_family(Family.A, 8)
    assert [a.coefficient(m) for m in (0, 2, 4)] == [
        Poly.one(), Poly([0, 1]), Poly([0, 0, 3, 2])
    ]
    assert a.coefficient(8) == Poly([0, 0, 0, 0, 105, 420, 588, 272])
    assert egf_family(Family.D, 5).coefficient(5) == Poly([0, 0, 3, 8, 5])
    b_at_1 = egf_family(Family.B, 7).at_x(1)
    assert [b_at_1[m] for m in (1, 3, 5, 7)] == [1, 2, 16, 272]


def test_sec_powers():
    # A is sec_xt_power's series at multiplier 1 by construction, so check it
    # against its own ODE, A' = tan(xt) A with A(0) = 1, solved directly
    for n in range(1, 13):
        zero = EgfSeries.constant(Poly.zero(), n - 1)
        assert egf_family(Family.A, n) == solve_linear_ode(tan_series(n - 1), zero, 1, n), n
    s = sec_t_power_of_x(4)
    assert s.coefficient(0) == Poly.one()
    assert s.coefficient(2) == Poly([0, 1])
    # (sec t)^x is read off A's rows; check it against its own ODE,
    # Y' = x tan(t) Y with Y(0) = 1, whose tangent series carries no x
    for n in range(1, 25):
        ee = zigzag_numbers(n)
        f = EgfSeries(Poly.monomial(ee[m], 1) if m % 2 else Poly.zero() for m in range(n + 1))
        zero = EgfSeries.constant(Poly.zero(), n)
        assert sec_t_power_of_x(n) == solve_linear_ode(f, zero, 1, n), n


def test_sec_power_lowest_orders():
    # order 0 is the constant 1 alone; from order 1 on the ODE route runs
    for multiplier in (Poly([1]), Poly([-1]), Poly([1, 1])):
        assert sec_xt_power(multiplier, 0).coeffs == (Poly.one(),)
        assert sec_xt_power(multiplier, 1).coeffs == (Poly.one(), Poly.zero())
        assert sec_xt_power(multiplier, 2).coefficient(2) == multiplier * Poly([0, 1])


def test_closed_form_series_check_lowest_order():
    records = closed_form_series_check(2)
    assert records and all(r["verdict"] == "pass" for r in records if r["check"] == "series-closed-form")
    with pytest.raises(ValueError, match="order >= 2"):
        closed_form_series_check(1)


# --- one solve per series key ----------------------------------------------

_SERIES_NAMES = ("egf_family", "sec_xt_power", "sec_t_power_of_x")
# the undecorated solves: each call solves from its own arguments
_RAW = {name: getattr(meshlab.distributions, name).__wrapped__ for name in _SERIES_NAMES}
_SERIES_KEYS = [("egf_family", (family,)) for family in Family] + [
    ("sec_xt_power", (Poly(m),)) for m in ([1], [-1], [1, 1])
] + [("sec_t_power_of_x", ())]


def _stored_series(series) -> list:
    return [[(type(c), c) for c in p.coeffs] for p in series.coeffs]


@pytest.fixture
def solve_calls(monkeypatch):
    """
    Give the three series functions empty stores, as in a new process, and
    count the solves behind them: calls[name] lists the args of each one.
    """
    calls = {name: [] for name in _SERIES_NAMES}
    for name, raw in _RAW.items():

        def counted(*args, raw=raw, log=calls[name]):
            log.append(args)
            return raw(*args)

        monkeypatch.setattr(
            meshlab.distributions, name, meshlab.distributions._longest_solve(counted)
        )
    return calls


def _cold(name, key, order):
    """The series solved from nothing: every inner series solved afresh too."""
    saved = {n: getattr(meshlab.distributions, n) for n in _SERIES_NAMES}
    vars(meshlab.distributions).update(_RAW)
    try:
        return _RAW[name](*key, order)
    finally:
        vars(meshlab.distributions).update(saved)


@pytest.mark.parametrize("name,key", _SERIES_KEYS, ids=lambda v: str(v))
@pytest.mark.parametrize("ascending", [False, True], ids=["longest-first", "ascending"])
def test_series_store_answers_every_order_as_a_cold_solve(solve_calls, name, key, ascending):
    top = 24
    cold = [_stored_series(_cold(name, key, m)) for m in range(top + 1)]
    fn = getattr(meshlab.distributions, name)

    def solved_orders():  # C and D also log their inner B and A solves
        return [args[-1] for args in solve_calls[name] if args[:-1] == key]

    if not ascending:
        assert _stored_series(fn(*key, top)) == cold[top]
    for m in range(top + 1):
        assert _stored_series(fn(*key, m)) == cold[m], m
    # each order above the longest so far is one solve, any other none
    solved = list(range(top + 1)) if ascending else [top]
    assert solved_orders() == solved
    for m in (top, 0, top // 2):
        assert _stored_series(fn(*key, m)) == cold[m]
    assert solved_orders() == solved
    assert _stored_series(fn(*key, top + 1)) == _stored_series(_cold(name, key, top + 1))
    assert solved_orders() == solved + [top + 1]


# a negative order raises what the solve itself raises: egf_family checks its
# order, and so does (sec t)^x, which reads A's rows; sec_xt_power fails in
# zigzag_numbers when it sizes the tangent series
_NEGATIVE_ORDER_ERRORS = {
    "egf_family": "order must be nonnegative",
    "sec_xt_power": "n must be nonnegative",
    "sec_t_power_of_x": "order must be nonnegative",
}


@pytest.mark.parametrize("name,key", _SERIES_KEYS, ids=lambda v: str(v))
def test_series_negative_order_raises_before_and_after_a_solve(solve_calls, name, key):
    fn = getattr(meshlab.distributions, name)
    message = f"^{_NEGATIVE_ORDER_ERRORS[name]}$"
    for order in (-1, -2, -7):
        with pytest.raises(ValueError, match=message) as err:
            fn(*key, order)
        assert type(err.value) is ValueError
    fn(*key, 6)
    for order in (-1, -2, -6, -7):
        with pytest.raises(ValueError, match=message) as err:
            fn(*key, order)
        assert type(err.value) is ValueError
    assert len(fn(*key, 6).coeffs) == 7


def test_series_store_keeps_a_longer_solve_that_ends_first():
    # two overlapping solves of one key, as two threads can make: the order-9
    # solve ends inside the order-5 one, and the order-5 result must not
    # replace it in the store
    solves = []

    def solve(order):
        solves.append(order)
        if order == 5:
            stored(9)
        return _RAW["sec_t_power_of_x"](order)

    stored = meshlab.distributions._longest_solve(solve)
    assert len(stored(5).coeffs) == 6
    assert [len(stored(m).coeffs) for m in (9, 5, 0)] == [10, 6, 1]
    assert solves == [5, 9]


def test_series_functions_show_positional_only_signatures():
    # the store takes *args, so the shown signature must not offer keywords
    for name in _SERIES_NAMES:
        params = inspect.signature(getattr(meshlab.distributions, name)).parameters
        assert {p.kind for p in params.values()} == {inspect.Parameter.POSITIONAL_ONLY}
    with pytest.raises(TypeError):
        egf_family(Family.A, order=3)


_COUNT_SOLVES = """
import io
from contextlib import redirect_stdout
import meshlab.distributions as dist
from meshlab import cli
orders = []
solve = dist.solve_linear_ode
def counted(f, g, y0, order):
    orders.append(order)
    return solve(f, g, y0, order)
dist.solve_linear_ode = counted
for family in dist.Family:
    dist.egf_family(family, 80)
dist.closed_form_series_check(40)
print(sorted(orders))
dist.sec_t_power_of_x(80)
for gf in ("A", "B", "C", "D", "secx", "tanx", "sec^x"):
    with redirect_stdout(io.StringIO()):
        cli.main(["series", "--gf", gf, "--order", "40"])
print(sorted(orders))
"""


def test_exact_series_pass_solves_each_series_once():
    # the benchmark's exact-series calls in a new process: each of A, B,
    # sec(xt)^{-1/x} and sec(xt)^{1+1/x} is solved once, at the highest order
    # asked, and every lower order is a truncation.  A and sec(xt)^{1/x} are
    # one series, so closed_form_series_check's order-40 sec(xt)^{1/x} is a
    # truncation of A's order-80 solve, and (sec t)^x is read off A's rows
    # with no solve of its own
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_SOLVES], capture_output=True, text=True, check=True,
    )
    assert proc.stdout.splitlines() == ["[39, 39, 80, 80]", "[39, 39, 80, 80]"]


def _all_int(polys) -> bool:
    return all(type(c) is int for p in polys for c in p.coeffs)


def test_exact_hot_path_runs_on_ints():
    # the series and recursion rows are integral, so they must be stored as
    # plain ints: a Fraction creeping back in here is an ~8x slowdown
    for family in Family:
        assert _all_int(egf_family(family, 40).coeffs), family
        assert _all_int(
            family_polynomial(family, i) for i in range(family.min_index(), 41)
        ), family
    assert _all_int(sec_t_power_of_x(40).coeffs)
    assert _all_int(sec_xt_power(Poly([1, 1]), 30).coeffs)
    # the sec(xt)^{-1/x} series that closed_form_series_check(40) integrates
    assert _all_int(sec_xt_power(Poly([-1]), 39).coeffs)


# sha256 of the exact results at the benchmark's scale, as the code printed
# them before products were summed in one coefficient list
SERIES_80_DIGESTS = {
    "egf-A": "d7b412f9b5805581e8929cd30eb359249bbe730ae4112db87d7c26a6f625ba90",
    "egf-B": "74e35d0a09a12ad7d3b22b5e0b2a1a9b21cc359484dd3957239a6a4b9c60bec8",
    "egf-C": "7a280c7ba990a455b93a3ba0969a13c6eacf7d3adb296372ea52b5f8873b1c2e",
    "egf-D": "bb9dd098c58c0e31b8335a35653b4dee12878ee8eefcd1c817a20ad4b4614fac",
    "sec^x": "d9c4b79b453de9a4559256387f2d6e5e8feae12614b920ef9685eef6b944e4ff",
    "rows-A": "cc42b68e9cea48999c9445f3a4aacc2db182351c4bc1c669c1ddb842cdcfb529",
    "rows-B": "aa74a507f4300b9f50bb05b1e1048c659874634d65714a3c7e7f8e0595150a93",
    "rows-C": "bfdb53343ef4e890ad2dae18fbf2905fbcec591efe19f53afd21e1dbc41a3def",
    "rows-D": "15aae3e1589a84f18a19b0417484d589d6f664b2e9d2eb942d998d0d6051792c",
    "closed-forms": "74469bda52392e7d7d1d7a59d9b5812d22d2ec89cfc06327131390aa12cf55c1",
}


def test_exact_results_at_benchmark_scale_are_pinned():
    # egf_family and sec_t_power_of_x at order 80, recursion rows 0..40 and
    # the closed-form records at order 40: repr prints every stored type
    texts = {"sec^x": repr(sec_t_power_of_x(80).coeffs)}
    for family in Family:
        texts[f"egf-{family.value}"] = repr(egf_family(family, 80).coeffs)
        texts[f"rows-{family.value}"] = repr(
            [family_polynomial(family, i) for i in range(family.min_index(), 41)]
        )
    texts["closed-forms"] = json.dumps(closed_form_series_check(40), sort_keys=True)
    digests = {key: hashlib.sha256(text.encode()).hexdigest() for key, text in texts.items()}
    assert digests == SERIES_80_DIGESTS


# sha256 of repr([dist_brute(L, cls, spec).coeffs for L in 1..12]), as the
# dist_brute printed them when it called spec.accepts for every entry
ORACLE_12_DIGESTS = {
    "MMP(1,0,0,0)-ud": "ea85c14d2b6bff569cae438e559a6be4b1f8c82cc1326aea1c93c95224f00c77",
    "MMP(1,0,0,0)-du": "612bff6ee8ffbfed6060434d1be035b59c2231251af389a9483918452f2a05e9",
    "MMP(1,0,e,0)-ud": "987bf51f88d0dc9dd128e4a788d38ab44e8e4beea75c1aebda2dc9ea1016c50f",
    "MMP(1,0,e,0)-du": "e33f076c1fd449dc960e3f3a73119611eafe30b172c304cefd0cac3cd07ad893",
    "MMP(e,2,0,1)-ud": "b96debf2bdbf6255a58b9501007b6f243aa35e0e15ea15c750b9ff216f99487d",
    "MMP(e,2,0,1)-du": "361097c0d5d837ad27282048cbd112975e48ea469c5bdf301a460bcc35ee97cc",
    "MMP(2,e,1,0)-ud": "c891b2f6309a79ad1a4fbfeaf961d6406d943ce34071db75a59cc92fb92c55d9",
    "MMP(2,e,1,0)-du": "b5b5634500ea0fb0835a77ae89d2d5829ccd242fd33d5977b64dc7e57ba5b0ab",
}


def test_oracle_at_benchmark_scale_is_pinned():
    specs = (MMP_Q1, QuadrantSpec(1, 0, None, 0), QuadrantSpec(None, 2, 0, 1),
             QuadrantSpec(2, None, 1, 0))
    digests = {}
    for spec in specs:
        for cls in (UP_DOWN, DOWN_UP):
            text = repr([dist_brute(length, cls, spec).coeffs for length in range(1, 13)])
            digests[f"{spec}-{cls.value}"] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == ORACLE_12_DIGESTS


SUBSET_DP_13_14_DIGESTS = {
    "MMP(e,2,0,1)-ud": "f0108351049fbc933dd27e61d40d71983976a6b66197def2f2ff72d0a839c727",
    "MMP(e,2,0,1)-du": "d2a5f16ccb01c4d1dd6080cf87f29199658a85713f7709f4535c6c4078fa5af1",
    "MMP(1,e,2,0)-ud": "9ab639fa409a4a585db6c007f6b489563b063f6ed4098909b4f250389f151a5c",
    "MMP(1,e,2,0)-du": "45311789f2b8e759781c948a45218f680ff55077fb140d605ad664c8b71bf48e",
}
EXTREMES_DP_13_14_DIGESTS = {
    "MMP(1,0,e,2)-ud": "8bfcafc6269fc749a99eba59dae4ca902222a37823e6b3b585b66a916478ce78",
    "MMP(1,0,e,2)-du": "3dd3a3cb136cd1b3d0393bc5092c5d61b1d9f2292aaa3f4bd0565e9b12aa51cc",
    "MMP(1,0,e,0)-ud": "4367043e387cd3d77998e3fc53b537a2b34aa043f3ad5ce45bba323261bbaf05",
    "MMP(1,0,e,0)-du": "214a61c852bf81527d8c02d1062549d194a6c2a22ab7c1050b22295cb1142470",
}


def digests_at_13_and_14(dp, specs) -> dict[str, str]:
    digests = {}
    for spec in specs:
        for cls in (UP_DOWN, DOWN_UP):
            text = repr([dp(length, cls, spec).coeffs for length in (13, 14)])
            digests[f"{spec}-{cls.value}"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def test_subset_dp_past_length_twelve_is_pinned():
    # 2^13 and 2^14 states; both classes, so both sweep directions run at
    # every depth
    specs = (QuadrantSpec(None, 2, 0, 1), QuadrantSpec(1, None, 2, 0))
    assert digests_at_13_and_14(_dist_brute_subset, specs) == SUBSET_DP_13_14_DIGESTS


def test_extremes_dp_past_length_twelve_is_pinned():
    # quadrant II asks 0 and III e, in the extremes DP's domain; the digests
    # are the subset DP's histograms for the same inputs
    specs = (QuadrantSpec(1, 0, None, 2), QuadrantSpec(1, 0, None, 0))
    assert digests_at_13_and_14(_dist_brute_extremes, specs) == EXTREMES_DP_13_14_DIGESTS


def test_headline_theorems_against_the_oracle_past_length_twelve():
    # A(t) = sec(xt)^{1/x} and D(t) = int_0^t sec(xz)^{1+1/x} dz, coefficient
    # by coefficient, at lengths the oracle suites do not reach by default;
    # every oracle row also matches the positional recursion
    a_series = sec_xt_power(Poly([1]), 16)
    d_series = sec_xt_power(Poly([1, 1]), 15).integrate()
    for length, cls, series in (
        (14, UP_DOWN, a_series), (16, UP_DOWN, a_series),
        (13, DOWN_UP, d_series), (15, DOWN_UP, d_series),
    ):
        oracle = dist_brute(length, cls, MMP_Q1, force=True)
        assert series.coefficient(length) == oracle
        family = family_for(length, cls)
        assert family_polynomial(family, family.index_for_length(length)) == oracle
    for family, length in ((Family.B, 13), (Family.B, 15), (Family.C, 14), (Family.C, 16)):
        assert family_polynomial(family, family.index_for_length(length)) == dist_brute(
            length, family.alternating_class, MMP_Q1, force=True
        )
    # (sec t)^x against MMP(1,0,e,0) over up-down words
    sec_power = sec_t_power_of_x(16)
    for length in (14, 16):
        assert sec_power.coefficient(length) == dist_brute(
            length, UP_DOWN, QuadrantSpec(1, 0, None, 0), force=True
        )


# Far past the guard the extremes DP packs thousands of bits per slot, so a
# field too narrow would carry one coefficient into the next.


def test_untracked_extremes_dp_through_length_forty():
    # the extremes DP with no extreme tracked: the quadrant-I statistic, and
    # the all-zero spec, whose E_n words all sit in the top field
    ee = zigzag_numbers(40)
    for length in range(1, 41):
        for cls in (UP_DOWN, DOWN_UP):
            family = family_for(length, cls)
            row = family_polynomial(family, family.index_for_length(length))
            assert dist_brute(length, cls, MMP_Q1, force=True) == row, (length, cls)
            assert dist_brute(length, cls, QuadrantSpec(0, 0, 0, 0), force=True) == Poly.monomial(
                ee[length], length
            ), (length, cls)


def test_extremes_dp_against_the_sec_power_through_length_forty():
    # (sec t)^x is MMP(1,0,e,0) over up-down words of even length
    series = sec_t_power_of_x(40)
    spec = QuadrantSpec(1, 0, None, 0)
    for length in range(0, 41, 2):
        assert dist_brute(length, UP_DOWN, spec, force=True) == series.coefficient(length), length


@pytest.mark.parametrize("length", [24, 32, 40])
def test_symmetry_chains_far_past_the_guard(length):
    for cls in (UP_DOWN, DOWN_UP):
        family = family_for(length, cls)
        row = family_polynomial(family, family.index_for_length(length))
        for spec, other_cls in meshlab.distributions._SYMMETRY_CHAINS[family]:
            assert dist_brute(length, other_cls, spec, force=True) == row, (spec, other_cls)


def test_both_extremes_tracked_at_length_thirty():
    # MMP(0,e,1,e) asks about quadrants II and III, so the extremes DP tracks
    # both; its reverse-complement image MMP(1,e,0,e) tracks II alone
    for cls in (UP_DOWN, DOWN_UP):
        assert dist_brute(30, cls, QuadrantSpec(0, None, 1, None), force=True) == dist_brute(
            30, rc_class(30, cls), QuadrantSpec(1, None, 0, None), force=True
        ), cls


def test_oracle_equivalence_small():
    records = oracle_equivalence(9)
    assert records and all(r["verdict"] == "pass" for r in records)


def test_oracle_equivalence_checks_each_length_and_class_once():
    # lengths 1, 2, 3, up-down before down-up, two routes against the oracle each
    records = oracle_equivalence(3)
    assert [(r["check"], r["family"], r["n"]) for r in records] == [
        (check, family, n)
        for family, n in [("B", 1), ("D", 1), ("A", 1), ("C", 1), ("B", 2), ("D", 2)]
        for check in ("oracle-vs-recursion", "oracle-vs-egf")
    ]


# --- symmetry and identity suites ------------------------------------------


def test_symmetry_suite_passes():
    records = symmetry_suite(6)
    assert len(records) == 36
    assert all(r["verdict"] == "pass" for r in records)


def test_named_symmetry_instances():
    assert dist_brute(4, DOWN_UP, QuadrantSpec(0, 1, 0, 0)) == Poly([0, 0, 3, 2])
    assert dist_brute(3, UP_DOWN, QuadrantSpec(0, 1, 0, 0)) == Poly([0, 2])


def test_sec_power_identity():
    records = sec_power_identity(3)
    assert [r["n"] for r in records] == [0, 1, 2, 3]
    assert all(r["verdict"] == "pass" for r in records)
    # n = 1 case by hand: the single up-down word 12 contributes x
    assert sec_t_power_of_x(2).coefficient(2) == Poly([0, 1])


def test_composite_series_forms_and_c_adjudication():
    records = closed_form_series_check(10)
    by_variant = {r["variant"]: r["verdict"] for r in records}
    assert by_variant["sec^(1/x) * int sec^(-1/x)"] == "pass"
    assert by_variant["int sec^(1+1/x)"] == "pass"
    assert by_variant["inner exponent -1/x"] == "pass"
    assert by_variant["inner exponent +1/x"] == "fail"
    c_records = (r for r in records if r["check"] == "c-double-integral")
    assert sole_passing_variant(c_records) == "inner exponent -1/x"


def _variant_records(*pairs):
    return [make_record("t", expected=1, actual=int(ok), variant=v) for v, ok in pairs]


def test_sole_passing_variant():
    # a variant passes when every one of its records passes, in any order
    records = _variant_records(("a", True), ("b", True), ("a", True), ("b", False))
    assert sole_passing_variant(records) == "a"
    assert sole_passing_variant(iter(records)) == "a"
    assert sole_passing_variant(_variant_records(("a", False), ("a", True), ("b", True))) == "b"
    assert sole_passing_variant(_variant_records(("c", True))) == "c"
    # none passes, two pass, or there is nothing to read
    for pairs in ([("a", False), ("b", True), ("b", False)], [("a", True), ("b", True)], []):
        with pytest.raises(RuntimeError, match="expected exactly one passing variant"):
            sole_passing_variant(_variant_records(*pairs))
