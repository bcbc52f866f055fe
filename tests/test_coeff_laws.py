import doctest
import hashlib
import sys
import threading
from fractions import Fraction
from functools import cache, partial
from math import factorial, lcm, perm

import pytest

import meshlab.coeff_laws
from meshlab.algebra import Poly, zigzag_numbers
from meshlab.coeff_laws import (
    closed_form_check,
    closed_form_verdicts,
    double_factorial,
    highest_coefficient_check,
    level_base,
    level_law_check,
    level_law_value,
    level_multiplier,
    level_set,
    level_set_brute,
    lowest_coefficient_check,
    p_value,
    p_values,
    q_value,
    q_values,
    q_variant_adjudication,
    r_value,
    r_values,
    s_value,
    s_values,
    seed_identity_check,
    unimodality_check,
)
from meshlab.distributions import Family, family_polynomial
from meshlab.permutations import UP_DOWN, QuadrantSpec
from helpers import fit_polynomial, sole_passing_variant


def test_module_doctests():
    assert doctest.testmod(meshlab.coeff_laws).failed == 0


# --- factorial helpers -----------------------------------------------------


def test_double_factorial_values():
    assert [double_factorial(m) for m in (-1, 0, 1, 2, 3, 7, 8)] == [
        1, 1, 1, 2, 3, 105, 384,
    ]
    with pytest.raises(ValueError):
        double_factorial(-2)


# --- level sets --------------------------------------------------------------


def test_level_set_examples():
    assert level_set(Family.A, 2, 1) == 2
    assert level_set(Family.C, 3, 1) == 28
    for n in range(1, 7):
        assert level_set(Family.A, n, 0) == double_factorial(2 * n - 1)


def test_level_set_matches_brute_force():
    for family in Family:
        for n in range(1, 5):
            for k in range(0, 4):
                assert level_set(family, n, k) == level_set_brute(family, n, k)


def test_level_sets_outside_the_row_are_zero():
    # past the top term, and below x^0: C's level 0 is the row C_0 = 1, whose
    # base exponent is -1
    for count in (level_set, level_set_brute):
        assert count(Family.A, 2, 5) == 0  # A_4 has degree 3
        assert count(Family.C, 0, 0) == 0
        assert count(Family.C, 0, 1) == 1


def test_level_sets_refuse_a_negative_k_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("computed a row before checking k")

    monkeypatch.setattr(meshlab.coeff_laws, "_level_polynomial", no_work)
    monkeypatch.setattr(meshlab.coeff_laws, "dist_brute", no_work)
    for count in (level_set, level_set_brute):
        with pytest.raises(ValueError, match=r"^k must be nonnegative, got -1$"):
            count(Family.A, 2, -1)
    assert p_values(1, -3) == []  # an empty range is no error


def test_level_set_refuses_non_integral_count(monkeypatch):
    # a bare assert would vanish under python -O and int() would truncate
    monkeypatch.setattr(
        meshlab.coeff_laws, "_level_polynomial",
        lambda family, n: Poly([Fraction(7, 2)] * 8),
    )
    with pytest.raises(ArithmeticError):
        level_set(Family.A, 2, 1)


# --- boundary coefficient laws -----------------------------------------------


def test_boundary_checks_pass_through_index_8():
    for family in Family:
        for index in range(1, 9):
            assert lowest_coefficient_check(family, index)["verdict"] == "pass"
            assert highest_coefficient_check(family, index)["verdict"] == "pass"


@pytest.mark.parametrize(
    "check, family",
    [
        (highest_coefficient_check, Family.A),
        (highest_coefficient_check, Family.C),
        (lowest_coefficient_check, Family.C),
    ],
)
def test_boundary_checks_refuse_row_zero(check, family):
    # row 0 exists for A and C, but the boundary laws start at row 1
    family_polynomial(family, 0)
    with pytest.raises(ValueError, match="index >= 1"):
        check(family, 0)


def test_level_parameterisation_matches_the_docstring_table():
    # the module docstring's laws written out by hand, with no shared table
    laws = {
        Family.A: (lambda n: 2 * n, lambda n: n, lambda n: 2 * n - 1),
        Family.B: (lambda n: 2 * n + 1, lambda n: n, lambda n: 2 * n),
        Family.C: (lambda n: 2 * n, lambda n: n - 1, lambda n: 2 * n - 2),
        Family.D: (lambda n: 2 * n + 1, lambda n: n, lambda n: 2 * n - 1),
    }
    for family, (length, base, multiplier) in laws.items():
        for n in range(1, 9):
            assert family.length(n + family.min_index()) == length(n)
            assert level_base(family, n) == base(n)
            assert level_multiplier(family, n) == double_factorial(multiplier(n))


def test_level_n_is_the_family_row_of_index_n_plus_min_index():
    for family in Family:
        for n in range(8):
            index = n + family.min_index()
            assert meshlab.coeff_laws._level_polynomial(family, n) == (
                family_polynomial(family, index)
            )
        # below level 0 there is no row, by either route
        for n in (-1, -2):
            floor = rf"^family {family.value} needs index >= {family.min_index()}$"
            with pytest.raises(ValueError, match=floor):
                level_set(family, n, 0)
            with pytest.raises(ValueError, match=r"^length must be nonnegative$"):
                level_set_brute(family, n, 0)


def test_boundary_spot_values():
    ee = zigzag_numbers(13)
    # lowest coefficients
    assert family_polynomial(Family.A, 4).coeffs[4] == 105  # 7!!
    assert family_polynomial(Family.B, 4).coeffs[3] == 48   # 6!!
    assert family_polynomial(Family.C, 1) == Poly.one()
    # highest coefficients
    a10 = family_polynomial(Family.A, 5)
    assert a10.degree == 9 and a10.coeffs[9] == ee[9] == 7936
    b13 = family_polynomial(Family.B, 7)
    assert b13.degree == 11 and b13.coeffs[11] == 12 * ee[11] == 4245504
    d3 = family_polynomial(Family.D, 2)
    assert d3.degree == 2 and d3.coeffs[2] == 1


# --- ratio polynomial values --------------------------------------------------


def test_p_values_examples():
    assert p_values(1, 4) == [Fraction(2, 3), Fraction(2), Fraction(4)]
    assert p_value(0, 9) == 1
    assert p_values(0, 3) == [Fraction(1), Fraction(1), Fraction(1)]


def test_q_values_examples():
    assert q_values(1, 3) == [Fraction(1), Fraction(8, 3)]
    assert q_value(2, 3) == 2


def test_r_s_values_examples():
    assert r_value(0, 5) == 1
    assert s_value(0, 5) == 1
    assert r_value(1, 2) == Fraction(3, 2)
    assert s_value(1, 3) == 5
    assert r_values(1, 4) == [r_value(1, n) for n in (2, 3, 4)]
    assert s_values(2, 5) == [s_value(2, n) for n in (3, 4, 5)]


def test_value_domain_errors():
    with pytest.raises(ValueError):
        p_value(2, 2)
    with pytest.raises(ValueError):
        q_value(1, 1)
    # r and s name their own domain; at k = 0 nothing below would raise
    for law, k, n in [(r_value, 3, 3), (s_value, 2, 1), (r_value, 0, 0), (s_value, 0, 0)]:
        letter = law.__name__[0]
        with pytest.raises(ValueError, match=rf"^{letter}_{k} is defined for n >= {k + 1}$"):
            law(k, n)


def test_seed_identities():
    records = seed_identity_check(5)
    assert len(records) == 12
    assert all(r["verdict"] == "pass" for r in records)
    # each record names its law's family and the seed point n = k + 1
    assert [(r["check"], r["family"], r["k"], r["n"]) for r in records] == [
        (f"seed-{letter}", family, k, k + 1)
        for k in range(6)
        for letter, family in (("p", "A"), ("q", "B"))
    ]
    # spelled out for one k: p_3(4) = 272/105 and q_3(4) = 272/48
    assert p_value(3, 4) == Fraction(272, 105)
    assert q_value(3, 4) == Fraction(272, 48)


# --- the running-sum store -----------------------------------------------------


@pytest.fixture
def fresh_sums(monkeypatch):
    store = {}
    monkeypatch.setattr(meshlab.coeff_laws, "_RATIO_SUMS", store)
    return store


def tangent(m):
    return zigzag_numbers(m)[m]


# The double sums of the p_value and q_value docstrings, summed afresh for each
# n: the reference the library's running sums must equal.
@cache
def literal_p(k, n):
    if k == 0:
        return Fraction(1)
    acc = Fraction(tangent(2 * k + 1), double_factorial(2 * k + 1))
    for j in range(1, k + 1):
        for t in range(k + 2, n + 1):
            coeff = Fraction(tangent(2 * j + 1) * 2**j * perm(t - 1, j), factorial(2 * j + 1))
            acc += coeff * literal_p(k - j, t - j - 1)
    return acc


@cache
def literal_q(k, n):
    if k == 0:
        return Fraction(1)
    acc = Fraction(tangent(2 * k + 1), double_factorial(2 * k))
    for j in range(1, k + 1):
        for t in range(k + 2, n + 1):
            odd = 1
            for s in range(j):
                odd *= 2 * t - 1 - 2 * s
            coeff = Fraction(tangent(2 * j + 1) * odd, factorial(2 * j + 1))
            acc += coeff * literal_q(k - j, t - j - 1)
    return acc


@cache
def literal_q_in_proof(k, n):
    # the in-proof factor 2^j prod_{s=1}^{j-1} (2n-2s-1) reads n, not t
    if k == 0:
        return Fraction(1)
    acc = Fraction(tangent(2 * k + 1), double_factorial(2 * k))
    for j in range(1, k + 1):
        odd = 1
        for s in range(1, j):
            odd *= 2 * n - 2 * s - 1
        for t in range(k + 2, n + 1):
            coeff = Fraction(tangent(2 * j + 1) * 2**j * odd, factorial(2 * j + 1))
            acc += coeff * literal_q_in_proof(k - j, t - j - 1)
    return acc


def secant(m):
    return zigzag_numbers(m)[m]


# The secant sums of the r_value and s_value docstrings, term by term.
def literal_r(k, n):
    acc = Fraction(0)
    for j in range(k + 1):
        rising = 1
        for s in range(1, j + 1):
            rising *= 2 * n + 1 - 2 * s
        m = k - j
        q = Fraction(0) if m >= 1 and n - j - 1 == m else literal_q(m, n - j - 1)
        acc += Fraction(secant(2 * j) * rising, factorial(2 * j)) * q
    return acc


def literal_s(k, n):
    acc = Fraction(0)
    for j in range(k + 1):
        rising = 1
        for s in range(1, j + 1):
            rising *= 2 * n + 2 - 2 * s
        acc += Fraction(secant(2 * j) * rising, factorial(2 * j)) * literal_p(k - j, n - j)
    return acc


@pytest.mark.parametrize(
    "law, literal",
    [
        (partial(q_value, variant="in-proof"), literal_q_in_proof),
        (r_value, literal_r),
        (s_value, literal_s),
    ],
    ids=["q in-proof", "r", "s"],
)
def test_integer_sums_match_the_literal_fraction_sums(fresh_sums, law, literal):
    for k in range(5):
        for n in range(k + 1, 21):
            value = law(k, n)
            assert type(value) is Fraction and value == literal(k, n), (k, n)


@cache
def running_den(k, parity):
    return lcm(
        double_factorial(2 * k + parity),
        *(factorial(2 * j + 1) * running_den(k - j, parity) for j in range(1, k + 1)),
    )


def test_one_denominator_serves_all_four_laws(fresh_sums):
    # Each law's own denominator, the lcm of its terms' denominators:
    # lcm((2k+parity)!!, (2j+1)! D(k-j) for j = 1..k) for the running sums of
    # p (parity 1) and q (parity 0), and lcm((2j)! D(k-j) for j = 0..k) for the
    # secant sums of s (over p) and r (over q).  All four equal the one D(k).
    scale = meshlab.coeff_laws._scale
    for k in range(11):
        secant_dens = [
            lcm(*(factorial(2 * j) * running_den(k - j, parity) for j in range(k + 1)))
            for parity in (0, 1)
        ]
        assert {running_den(k, 0), running_den(k, 1), *secant_dens} == {scale(k)[0]}, k
    laws = [p_value, q_value, partial(q_value, variant="in-proof"), r_value, s_value]
    for k in range(6):
        for n in range(k + 1, k + 9):
            for law in laws:
                assert scale(k)[0] % law(k, n).denominator == 0, (law, k, n)


# sha256 of repr([law(k, n) for k in 0..5 for n in k+1..30]), taken from the
# double sums summed afresh for every n.
RATIO_DIGESTS = {
    "p": "0c61ead794c80a08fb5dc9178398799fec7a5001ccf41471a3a06a464f48b1a4",
    "q": "8d54b734e5ff5242147b443295028694241a3a97368a5c1f2547270c682f6eec",
    "q in-proof": "1cff97243137f0b502770beca80483c93f73a28c5dca5702dc299017d7bbf1ce",
    "r": "58f0c02bcb27f2eb8d116ea17e9ee552b0106a36024c646ffed06e4a18d6a362",
    "s": "6db5319e5fcdef6f28d1638f6f0c718148cb3a3746e943c940c5c261dc3fd647",
}


def test_ratio_values_are_pinned(fresh_sums):
    laws = {
        "p": p_value, "q": q_value, "q in-proof": partial(q_value, variant="in-proof"),
        "r": r_value, "s": s_value,
    }
    for name, law in laws.items():
        values = [law(k, n) for k in range(6) for n in range(k + 1, 31)]
        assert hashlib.sha256(repr(values).encode()).hexdigest() == RATIO_DIGESTS[name], name


@pytest.mark.parametrize("descending_first", [True, False])
def test_running_sums_match_the_literal_double_sums(fresh_sums, descending_first):
    requests = [(k, n) for n in range(2, 21) for k in range(1, 5) if n >= k + 1]
    passes = (requests[::-1], requests) if descending_first else (requests, requests[::-1])
    for order in passes:
        for k, n in order:
            assert p_value(k, n) == literal_p(k, n), (k, n)
            assert q_value(k, n) == literal_q(k, n), (k, n)
    parities = (meshlab.coeff_laws._P, meshlab.coeff_laws._Q)
    assert set(fresh_sums) == {
        (parity, k, n) for parity in parities for k in range(1, 5) for n in range(k + 2, 21)
    }


@pytest.mark.parametrize(
    "law, literal, trigger",
    [(p_value, literal_p, range(8, 4, -2)), (q_value, literal_q, range(9, 5, -2))],
)
def test_nested_extension_of_the_same_k(fresh_sums, monkeypatch, law, literal, trigger):
    # While k = 2 is extended through t = 5, its j = 2 term (the factor
    # prod(trigger)) asks for n = 9 of the same k.  A store indexed by
    # position would put t = 5 after t = 9.
    original = meshlab.coeff_laws.prod
    nested = []

    def term(factors):
        if factors == trigger and not nested:
            nested.append(None)  # fire once: the nested extension calls term too
            nested[0] = law(2, 9)
        return original(factors)

    monkeypatch.setattr(meshlab.coeff_laws, "prod", term)
    assert law(2, 7) == literal(2, 7)
    assert nested == [literal(2, 9)]
    assert [law(2, n) for n in range(3, 13)] == [literal(2, n) for n in range(3, 13)]


def test_threads_extending_the_same_rows_store_equal_values(fresh_sums):
    # more threads than cores, switching often, half ascending and half
    # descending through the same (k, n); a value stored under the wrong key
    # or from a torn running sum would differ from the literal sum
    requests = [(k, n) for n in range(2, 41) for k in range(1, 5) if n >= k + 1]
    orders = [requests, requests[::-1]] * 3
    errors = []

    def work(order):
        try:
            for k, n in order:
                if p_value(k, n) != literal_p(k, n) or q_value(k, n) != literal_q(k, n):
                    errors.append((k, n))
        except Exception as exc:  # reported below; a thread cannot fail the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(order,)) for order in orders]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    # the store holds each value's numerator over D(k), the one denominator of
    # every law at k, under its (parity, k, n): parity 1 for p, 0 for q
    laws = meshlab.coeff_laws
    literal = {laws._P: literal_p, laws._Q: literal_q}
    assert len(fresh_sums) == 2 * (38 + 37 + 36 + 35)
    for (parity, k, n), value in fresh_sums.items():
        den = laws._scale(k)[0]
        assert Fraction(value, den) == literal[parity](k, n), (parity, k, n)


def test_cold_long_row_recurses_only_in_k(fresh_sums):
    # a row 1500 long would overflow the stack if each n recursed on n - 1
    assert p_value(1, 1500) == literal_p(1, 1500) == Fraction(1500 * 1499, 3)
    assert q_value(1, 1500) == literal_q(1, 1500)


DOMAIN_ERRORS = [
    (p_value, (2, 2), "p_2 is defined for n >= 3"),
    (p_value, (3, -7), "p_3 is defined for n >= 4"),
    (p_value, (-2, -5), "k must be nonnegative, got -2"),
    (p_value, (-1, 3), "k must be nonnegative, got -1"),
    (q_value, (1, 1), "q_1 is defined for n >= 2"),
    (q_value, (1, 1, "in-proof"), "q_1 is defined for n >= 2"),
    (q_value, (-1, 3), "k must be nonnegative, got -1"),
    (q_value, (-3, 0, "in-proof"), "k must be nonnegative, got -3"),
    (r_value, (-1, 2), "k must be nonnegative, got -1"),
    (s_value, (-1, 2), "k must be nonnegative, got -1"),
    (q_value, (1, 3, "folklore"), "unknown variant 'folklore'"),
    (q_value, (0, 1, "folklore"), "unknown variant 'folklore'"),
]


def test_domain_errors_hold_before_and_after_the_store_fills(fresh_sums):
    def check():
        for law, args, message in DOMAIN_ERRORS:
            with pytest.raises(ValueError) as info:
                law(*args)
            assert info.type is ValueError and str(info.value) == message, args
        for value in (p_value(0, -4), q_value(0, -4), q_value(0, 0, "in-proof")):
            assert type(value) is Fraction and value == 1

    check()
    for k in range(1, 5):
        p_value(k, 20), q_value(k, 20), q_value(k, 9, "in-proof")
    assert len(fresh_sums) == 2 * (18 + 17 + 16 + 15)
    check()


# --- the q recursion variants ---------------------------------------------


def test_q_variant_adjudication():
    records = q_variant_adjudication(3, 8)
    statement = [r for r in records if r["variant"] == "statement"]
    in_proof = [r for r in records if r["variant"] == "in-proof"]
    assert statement and all(r["verdict"] == "pass" for r in statement)
    # the literal in-proof factor disagrees beyond the seed
    first_bad = next(r for r in in_proof if r["verdict"] == "fail")
    assert (first_bad["k"], first_bad["n"]) == (1, 3)
    assert sole_passing_variant(records) == "statement"


def test_q_variant_argument_checked():
    with pytest.raises(ValueError):
        q_value(1, 3, variant="folklore")


# --- level-set laws ----------------------------------------------------------


@pytest.mark.parametrize("family", list(Family))
def test_level_laws_recursion_route(family):
    for k in range(0, 4):
        records = level_law_check(family, k, 12)
        assert records and all(r["verdict"] == "pass" for r in records)


def test_level_laws_brute_route():
    for family, n_max in ((Family.A, 4), (Family.B, 4)):
        for k in range(0, 3):
            records = level_law_check(family, k, n_max, source="brute")
            assert all(r["verdict"] == "pass" for r in records)


def test_level_law_check_refuses_an_unknown_source():
    with pytest.raises(ValueError, match=r"^unknown source 'bogus'$"):
        level_law_check(Family.A, 1, 3, source="bogus")


def test_level_law_value_units():
    assert level_law_value(Family.A, 1, 3) == 2 * 15  # p_1(3) (2*3-1)!!
    assert level_law_value(Family.B, 1, 2) == 8
    assert level_law_value(Family.D, 1, 2) == Fraction(8, 3) * 3
    assert level_multiplier(Family.C, 3) == 8


# --- published closed forms ---------------------------------------------------


def test_closed_form_verdicts_reflect_reality():
    # Exact recomputation confirms twelve of the sixteen published forms and
    # refutes four: p_3, q_2, s_2 and s_3.  These verdicts are tied to the
    # brute-force oracle through the level-law tests above.
    verdicts = closed_form_verdicts()
    expected = {
        ("p", 0): True, ("p", 1): True, ("p", 2): True, ("p", 3): False,
        ("q", 0): True, ("q", 1): True, ("q", 2): False, ("q", 3): True,
        ("r", 0): True, ("r", 1): True, ("r", 2): True, ("r", 3): True,
        ("s", 0): True, ("s", 1): True, ("s", 2): False, ("s", 3): False,
    }
    assert verdicts == expected


def test_closed_form_check_records():
    records = closed_form_check("p", 1)
    assert [r["n"] for r in records] == list(range(2, 10))
    assert all(r["verdict"] == "pass" for r in records)
    records = closed_form_check("q", 2)
    assert records[0]["n"] == 3 and records[0]["verdict"] == "fail"
    assert records[0]["expected"] == "2" and records[0]["actual"] == "1"


_RATIO_LAWS = {"p": p_value, "q": q_value, "r": r_value, "s": s_value}


def fit_ratio_polynomial(which: str, k: int) -> Poly:
    """
    Interpolate the ratio values on 2k + 1 points from the seed: the printed
    forms have degree 2k, so this is the unique candidate polynomial.
    """
    points = [(Fraction(n), _RATIO_LAWS[which](k, n)) for n in range(k + 1, k + 2 + 2 * k)]
    return fit_polynomial(points)


def test_fitted_ratio_polynomials():
    # interpolation on 2k+1 points, then two extra points as out-of-sample
    # confirmation of polynomiality
    for which, value_fn in _RATIO_LAWS.items():
        for k in range(0, 4):
            fitted = fit_ratio_polynomial(which, k)
            assert fitted.degree <= 2 * k
            for n in (3 * k + 2, 3 * k + 3):
                assert fitted(Fraction(n)) == value_fn(k, n)


def test_fitted_forms_where_published_ones_fail():
    # the exact polynomials behind the four refuted forms, as computed facts:
    # q_2 carries (n+1) where the published text has (n-1)
    q2 = fit_ratio_polynomial("q", 2)
    factored = Poly([-2, 1]) * Poly([1, 1]) * Poly([-3, 1, 5])
    assert q2 * Poly([90]) == factored
    # s_2's linear tail is -8n - 13, not -68n + 47
    assert fit_ratio_polynomial("s", 2) * Poly([90]) == Poly([0, -13, -8, 16, 5])
    # s_3 matches the published numerator exactly; only the denominator
    # differs (5670, not 5760)
    assert fit_ratio_polynomial("s", 3) * Poly([5670]) == Poly([0, -60, 656, -417, -340, 126, 35])
    # p_3's n^4 term is -189, not -198
    assert fit_ratio_polynomial("p", 3) * Poly([5670]) == Poly([0, 192, -478, 213, 227, -189, 35])


# --- unimodality --------------------------------------------------------------


def test_unimodality_through_index_8():
    for family in Family:
        records = unimodality_check(family, 8)
        assert len(records) == 8
        assert all(r["verdict"] == "pass" for r in records)


def test_unimodality_mode_location():
    records = unimodality_check(Family.A, 4)
    assert records[-1]["variant"] == "mode at x^6"
    assert unimodality_check(Family.B, 1)[0]["variant"] == "mode at x^0"


def test_unimodality_verdicts_on_crafted_rows(monkeypatch):
    # no real row breaks unimodality, so feed rows that dip before the peak,
    # rise at the end, or hold plateaus on either side of it
    rows = {
        1: ([2, 1, 3], "fail", 2),
        2: ([3, 1, 2], "fail", 0),
        3: ([1, 1, 2], "pass", 2),
        4: ([1, 2, 2, 1], "pass", 1),
        5: ([0, 0, 1, 2, 2, 1], "pass", 3),
    }
    monkeypatch.setattr(
        meshlab.coeff_laws, "family_polynomial", lambda family, index: Poly(rows[index][0])
    )
    records = unimodality_check(Family.A, len(rows))
    for record, (row, verdict, mode) in zip(records, rows.values()):
        assert record["verdict"] == verdict, row
        assert record["variant"] == f"mode at x^{mode}", row


# --- structural consequence of the lowest-coefficient law ---------------------


def test_minimal_statistic_forces_peak_position():
    # in an even-length up-down permutation attaining the minimal statistic n,
    # the largest value must sit in position 2
    from meshlab.permutations import enumerate_alternating, mmp_count

    top = 8
    for length in range(2, top + 1, 2):
        n = length // 2
        for p in enumerate_alternating(length, UP_DOWN):
            if mmp_count(p, QuadrantSpec(1, 0, 0, 0)) == n:
                assert p[1] == length
