import doctest
import itertools
import sys
import threading
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshlab.algebra
from meshlab.algebra import (
    EgfSeries,
    Poly,
    sec_series,
    solve_linear_ode,
    tan_series,
    zigzag_numbers,
)
from helpers import fit_polynomial, is_up_down

X = Poly([0, 1])

# Exactly the 97 values st.fractions(-4, 4, max_denominator=6) draws: n/d with
# d <= 6.  sampled_from shrinks toward earlier entries, so they are listed
# simplest first (0, 1, -1, 1/2, -1/2, ...); picking from a list costs a
# fraction of building each Fraction draw by draw.
rationals = st.sampled_from(sorted(
    {Fraction(n, d) for d in range(1, 7) for n in range(-4 * d, 4 * d + 1)},
    key=lambda v: (abs(v.numerator), v.denominator, v < 0),
))


def polys(max_degree: int = 4):
    return st.lists(rationals, max_size=max_degree + 1).map(Poly)


def shifted():
    """x^k p for k <= 12: windows that start above x^0, as tan's E_k x^k do."""
    return st.tuples(st.integers(0, 12), polys()).map(
        lambda kp: Poly([0] * kp[0] + [*kp[1].coeffs])
    )


# what the product tests draw: a plain polynomial or a shifted one
factors = polys() | shifted()


def test_module_doctests():
    assert doctest.testmod(meshlab.algebra).failed == 0


# --- polynomial ring -------------------------------------------------------


def test_poly_examples():
    assert X * Poly([3, 2]) == Poly([0, 3, 2])
    p = Poly([1, 2, 3])
    assert p + Poly.zero() == p


def test_poly_normalisation():
    assert Poly([1, 0, 0]) == Poly([1])
    assert Poly([0, 0]).is_zero()
    assert Poly().degree == -1
    assert Poly([Fraction(1, 2)]).coeffs == (Fraction(1, 2),)
    assert type(Poly([Fraction(1, 2)]).coeffs[0]) is Fraction
    # integral values are stored as int, whatever type they arrive as
    p = Poly([Fraction(6, 2)])
    assert p.coeffs == (3,) and type(p.coeffs[0]) is int
    assert type(Poly([True]).coeffs[0]) is int
    # a float converts exactly, never by truncation
    assert Poly([0.5]).coeffs == (Fraction(1, 2),)
    assert Poly([3]) == Poly([Fraction(3)])
    assert hash(Poly([3])) == hash(Poly([Fraction(3)]))


def test_poly_equals_only_polys():
    # equal objects must hash equal, and hash(Poly([3])) != hash(3), so a
    # Poly never equals a scalar; compare p.coeffs[0] or Poly(value)
    assert Poly([3]) != 3 and 3 != Poly([3])
    assert Poly() != 0 and Poly([Fraction(1, 2)]) != Fraction(1, 2)
    assert len({Poly([3]), 3, Poly(), 0}) == 4
    assert Poly([3]) == Poly([3]) and Poly() == Poly.zero()


@given(polys())
def test_equal_polys_hash_equal(p):
    for twin in (Poly([*p.coeffs, 0, 0]), Poly([Fraction(c) for c in p.coeffs]), p + 0):
        assert twin == p and hash(twin) == hash(p)


def test_poly_public_values_stay_fractions():
    p = Poly([0, 0, 3, 2])
    assert type(p(1)) is Fraction and p(1) == Fraction(5, 1)
    assert type(Poly()(1)) is Fraction
    assert p(Fraction(1, 2)) == 1 and type(p(Fraction(1, 2))) is Fraction


def _fraction_sum(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _fraction_product(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _normal_form(values: list[Fraction]) -> list[tuple]:
    """(type, value) per coefficient, trailing zeros trimmed, as Poly stores them."""
    while values and values[-1] == 0:
        values = values[:-1]
    return [(int, v.numerator) if v.denominator == 1 else (Fraction, v) for v in values]


@given(factors, factors)
def test_poly_arithmetic_matches_fraction_convolution(a, b):
    fa = [Fraction(c) for c in a.coeffs]
    fb = [Fraction(c) for c in b.coeffs]
    for got, want in ((a + b, _fraction_sum(fa, fb)), (a * b, _fraction_product(fa, fb))):
        assert [(type(c), c) for c in got.coeffs] == _normal_form(want)


def _lowest_nonzero(p: Poly) -> int:
    return next((i for i, c in enumerate(p.coeffs) if c), 0)


def test_poly_records_its_lowest_nonzero_coefficient():
    # the slot the product kernel starts each window from; 0 for the zero poly
    cases = [
        (Poly(), 0), (Poly([0, 0, 0]), 0), (Poly([5]), 0), (Poly([0, 0, -3, 1]), 2),
        (Poly([0, Fraction(-1, 2)]), 1), (Poly([Fraction(0), 0, 0, Fraction(2, 3), 0]), 3),
        (Poly.monomial(7, 9), 9),
        # results in which terms cancel
        (Poly([1, 1]) * Poly([1, -1]), 0),  # 1 - x^2
        (Poly([0, 1, 1]) + Poly([0, -1]), 2),  # x^2
        (Poly([1, 1]) + Poly([-1]), 1),  # x
        (Poly([0, 1]) * Poly([0, 0, 1]) + Poly([0, 0, 0, -1]), 0),  # zero
    ]
    for p, lo in cases:
        assert p._lo == lo == _lowest_nonzero(p), p
    # an EGF coefficient whose constant terms cancel: (x - 1) + (x + 1) = 2x
    f, g = EgfSeries([Poly([1]), Poly([1, 1])]), EgfSeries([Poly([1]), Poly([-1, 1])])
    assert (f * g).coeffs == (Poly([1]), Poly([0, 2])) and (f * g).coeffs[1]._lo == 1
    assert (Poly.monomial(2, 3) * Poly([0, 0, 1, 1]))._lo == 5


def test_poly_scalar_and_eval():
    p = Poly([1, 0, 2])
    assert p(2) == 9
    assert p(Fraction(1, 2)) == Fraction(3, 2)


@given(polys(), polys(), polys())
def test_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# --- zigzag numbers --------------------------------------------------------


def test_zigzag_prefix(monkeypatch):
    expected = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]
    assert zigzag_numbers(10) == expected
    assert zigzag_numbers(12)[12] == 2702765
    assert zigzag_numbers(8) == expected[:9]
    # from a cold table, each call asks for one row more than the table holds
    monkeypatch.setattr(meshlab.algebra, "_zigzag", ([1], (1,)))
    assert [zigzag_numbers(n) for n in range(11)] == [expected[: n + 1] for n in range(11)]
    with pytest.raises(ValueError):
        zigzag_numbers(-1)


def test_zigzag_against_direct_filter():
    # independent of both the Seidel recurrence and the library enumerator:
    # count up-down permutations by filtering the whole symmetric group
    for n in range(1, 9):
        direct = sum(
            1 for p in itertools.permutations(range(1, n + 1)) if is_up_down(p)
        )
        assert zigzag_numbers(n)[n] == direct


def test_threads_filling_a_cold_zigzag_table_agree(monkeypatch):
    # four threads make the first calls on a cold table at once, switching
    # often; one that reads another's half-built Seidel row raises or returns
    # a wrong E_n.  The reference comes from the convolution 2 E_{m+1} =
    # sum_k binom(m, k) E_k E_{m-k} (m >= 1), independent of the recurrence.
    n = 300
    reference = [1, 1]
    for m in range(1, n):
        reference.append(sum(comb(m, k) * reference[k] * reference[m - k] for k in range(m + 1)) // 2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(meshlab.algebra, "_zigzag", ([1], (1,)))
            barrier = threading.Barrier(4)
            results = []

            def work():
                try:
                    barrier.wait(timeout=60)
                    results.append(zigzag_numbers(n))
                except Exception as exc:  # reported below; a thread cannot fail the test
                    results.append(exc)

            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [reference] * 4
            assert zigzag_numbers(n) == reference
    finally:
        sys.setswitchinterval(interval)


def test_tangent_secant_accessors():
    # the tangent and secant numbers are the odd- and even-indexed zigzag numbers
    assert zigzag_numbers(7)[1::2] == [1, 2, 16, 272]
    assert zigzag_numbers(6)[::2] == [1, 1, 5, 61]


# --- tan / sec series ------------------------------------------------------


def test_tan_sec_series_examples():
    assert tan_series(4).coefficient(3) == Poly([0, 0, 0, 2])
    assert tan_series(4).coefficient(2).is_zero()
    assert sec_series(4).coefficient(4) == Poly([0, 0, 0, 0, 5])
    assert sec_series(4).coefficient(0) == Poly.one()


def test_series_specialise_to_zigzag_numbers():
    order = 11
    ee = zigzag_numbers(order)
    tan_at_1 = tan_series(order).at_x(1)
    sec_at_1 = sec_series(order).at_x(1)
    for m in range(order + 1):
        if m % 2:
            assert tan_at_1[m] == ee[m] and sec_at_1[m] == 0
        else:
            assert sec_at_1[m] == ee[m] and tan_at_1[m] == 0


def test_sec_times_cos_is_one():
    order = 12
    cos = EgfSeries(
        Poly.monomial((-1) ** (m // 2), m) if m % 2 == 0 else Poly.zero()
        for m in range(order + 1)
    )
    product = sec_series(order) * cos
    assert product == EgfSeries.constant(Poly.one(), order)


# --- EGF arithmetic --------------------------------------------------------


def test_egf_mul_identity_and_constant_term():
    one = EgfSeries.constant(Poly.one(), 9)
    assert tan_series(9) * one == tan_series(9)
    f = sec_series(6)
    g = tan_series(6)
    assert (f * g).coefficient(0) == f.coefficient(0) * g.coefficient(0)


def test_egf_mul_binomial_convolution_value():
    # t^4/4! coefficient of sec(xt)^2: 2 * 1 * 5x^4 + binom(4,2) x^2 x^2 = 16x^4
    square = sec_series(8) * sec_series(8)
    assert square.coefficient(4) == Poly([0, 0, 0, 0, 16])


def test_egf_times_a_polynomial_scales_every_coefficient():
    # how sec_xt_power forms multiplier * tan(xt); the order is kept
    scaled = tan_series(3) * Poly([1, 1])
    assert scaled.coeffs == (Poly(), Poly([0, 1, 1]), Poly(), Poly([0, 0, 0, 2, 2]))
    # a scalar is no operand, as for Poly: wrap it as Poly([c])
    for scalar in (2, Fraction(1, 2)):
        with pytest.raises(TypeError):
            tan_series(3) * scalar


def test_egf_order_mismatch_is_an_error():
    with pytest.raises(ValueError):
        sec_series(4) * sec_series(5)
    with pytest.raises(ValueError):
        sec_series(4) + sec_series(3)


def _derivative(series: EgfSeries) -> EgfSeries:
    """d/dt of an EGF shifts its coefficients left; the order drops by one."""
    return EgfSeries(series.coeffs[1:])


def test_differentiate_integrate():
    tan = tan_series(9)
    assert _derivative(tan.integrate()) == tan
    assert sec_series(6).integrate().coefficient(1) == Poly.one()
    assert sec_series(6).integrate().coefficient(0).is_zero()  # starts at zero by default
    assert _derivative(tan).coefficient(0) == Poly([0, 1])


def test_integrate_orders():
    s = sec_series(5)
    assert s.integrate().order == 6
    assert _derivative(s).order == 4
    assert s.truncate(3).order == 3
    with pytest.raises(ValueError):
        s.truncate(9)


def test_truncate_keeps_orders_zero_through_its_own():
    s = sec_series(5)
    assert s.truncate(0).coeffs == (Poly.one(),)
    assert s.truncate(4).coeffs == s.coeffs[:5]
    assert s.truncate(5) == s
    with pytest.raises(ValueError, match="cannot extend order 5 to 6"):
        s.truncate(6)
    # a negative order must not wrap around to a slice from the end
    for order in (-1, -2, -6, -7):
        with pytest.raises(ValueError, match=f"must be nonnegative, got {order}"):
            s.truncate(order)


def test_negative_orders_and_powers_are_refused():
    # order 0 and power 0 are the smallest valid values ...
    assert Poly.monomial(5, 0) == Poly([5])
    assert EgfSeries.constant(Poly.one(), 0) == EgfSeries([Poly.one()])
    zero = EgfSeries.constant(Poly.zero(), 0)
    assert solve_linear_ode(zero, zero, Poly([7]), 0) == EgfSeries([Poly([7])])
    # ... and one below must raise, not come back as an order-0 object
    for bad in (-1, -3):
        with pytest.raises(ValueError, match=f"must be nonnegative, got {bad}"):
            Poly.monomial(5, bad)
        with pytest.raises(ValueError, match=f"must be nonnegative, got {bad}"):
            EgfSeries.constant(Poly.one(), bad)
        with pytest.raises(ValueError, match=f"must be nonnegative, got {bad}"):
            solve_linear_ode(zero, zero, Poly.one(), bad)


# --- linear ODE solver -----------------------------------------------------


def test_ode_trivial():
    zero = EgfSeries.constant(Poly.zero(), 5)
    y = solve_linear_ode(zero, zero, Poly.one(), 6)
    assert y == EgfSeries.constant(Poly.one(), 6)


def test_ode_reproduces_first_family_rows():
    y = solve_linear_ode(
        tan_series(3), EgfSeries.constant(Poly.zero(), 3), Poly.one(), 4
    )
    assert [y.coefficient(m) for m in range(5)] == [
        Poly.one(), Poly.zero(), Poly([0, 1]), Poly.zero(), Poly([0, 0, 3, 2]),
    ]


def test_ode_with_forcing_term():
    y = solve_linear_ode(
        tan_series(2), EgfSeries.constant(Poly.one(), 2), Poly.zero(), 3
    )
    assert [y.coefficient(m) for m in range(4)] == [
        Poly.zero(), Poly.one(), Poly.zero(), Poly([0, 2]),
    ]


@settings(deadline=None)
@given(
    st.lists(polys(2), min_size=4, max_size=4),
    st.lists(polys(2), min_size=4, max_size=4),
    polys(2),
)
def test_ode_residual_vanishes(f_coeffs, g_coeffs, y0):
    order = 4
    f = EgfSeries(f_coeffs)
    g = EgfSeries(g_coeffs)
    y = solve_linear_ode(f, g, y0, order)
    assert _derivative(y) == f * y.truncate(order - 1) + g
    assert y.coefficient(0) == y0


def _fraction_series_product(f: list[list[Fraction]], g: list[list[Fraction]]) -> list:
    """c_n = sum_k binom(n, k) f_k g_{n-k}, one Fraction list per term."""
    out = []
    for n in range(len(f)):
        acc: list[Fraction] = []
        for k in range(n + 1):
            term = [comb(n, k) * c for c in _fraction_product(f[k], g[n - k])]
            acc = _fraction_sum(acc, term)
        out.append(acc)
    return out


def _fraction_ode(f: list, g: list, y0: list[Fraction], order: int) -> list:
    """c_0 = y0, c_{n+1} = g_n + sum_k binom(n, k) f_k c_{n-k}, all in Fractions."""
    ys = [y0]
    for n in range(order):
        acc = list(g[n])
        for k in range(n + 1):
            term = [comb(n, k) * c for c in _fraction_product(f[k], ys[n - k])]
            acc = _fraction_sum(acc, term)
        ys.append(acc)
    return ys


def _as_fractions(series: list[Poly]) -> list[list[Fraction]]:
    return [[Fraction(c) for c in p.coeffs] for p in series]


def _stored(series: EgfSeries) -> list[list[tuple]]:
    return [[(type(c), c) for c in p.coeffs] for p in series.coeffs]


def _series_pair(max_order: int = 5):
    def of_order(n):
        series = st.lists(factors, min_size=n + 1, max_size=n + 1)
        return st.tuples(series, series)

    return st.integers(0, max_order).flatmap(of_order)


@settings(deadline=None)
@given(_series_pair())
def test_egf_mul_matches_a_per_term_fraction_loop(pair):
    f, g = pair
    want = _fraction_series_product(_as_fractions(f), _as_fractions(g))
    assert _stored(EgfSeries(f) * EgfSeries(g)) == [_normal_form(w) for w in want]


@settings(deadline=None)
@given(_series_pair(), factors)
def test_ode_matches_a_per_term_fraction_loop(pair, y0):
    # f and g through order - 1 determine Y through order
    f, g = pair
    order = len(f)
    want = _fraction_ode(_as_fractions(f), _as_fractions(g), _as_fractions([y0])[0], order)
    got = solve_linear_ode(EgfSeries(f), EgfSeries(g), y0, order)
    assert _stored(got) == [_normal_form(w) for w in want]


def test_ode_underdefined_inputs_error():
    with pytest.raises(ValueError):
        solve_linear_ode(
            tan_series(2), EgfSeries.constant(Poly.zero(), 2), Poly.one(), 9
        )
    # exactly one order short, in f or in g, is refused before any indexing
    order = 6
    full, short = tan_series(order - 1), tan_series(order - 2)
    for f, g in ((short, full), (full, short)):
        with pytest.raises(ValueError, match="through order 5"):
            solve_linear_ode(f, g, Poly.one(), order)
    assert solve_linear_ode(full, full, Poly.one(), order).order == order


# --- interpolation ---------------------------------------------------------


def test_fit_polynomial_examples():
    assert fit_polynomial([(0, 1), (1, 2), (2, 5)]) == Poly([1, 0, 1])
    with pytest.raises(ValueError):
        fit_polynomial([(1, 1), (1, 2)])


@given(polys(3))
def test_fit_polynomial_roundtrip(p):
    points = [(n, p(n)) for n in range(p.degree + 2)]
    if not points:
        points = [(0, p(0))]
    assert fit_polynomial(points) == p
