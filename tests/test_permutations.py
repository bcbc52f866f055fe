import copy
import doctest
import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

import meshlab.permutations
from meshlab.algebra import zigzag_numbers
from meshlab.permutations import (
    DOWN_UP,
    UP_DOWN,
    QuadrantSpec,
    enumerate_alternating,
    matches,
    mmp_count,
    quadrant_counts,
)
from helpers import complement, is_down_up, is_up_down, reverse

Q1 = QuadrantSpec(1, 0, 0, 0)
Q2 = QuadrantSpec(0, 1, 0, 0)
Q3 = QuadrantSpec(0, 0, 1, 0)
Q4 = QuadrantSpec(0, 0, 0, 1)

RUNNING_EXAMPLE = (4, 7, 1, 5, 6, 9, 2, 8, 3)


def perms(max_n: int = 7):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ).map(tuple)


def test_module_doctests():
    assert doctest.testmod(meshlab.permutations).failed == 0


# --- quadrant counts -------------------------------------------------------


def test_quadrant_counts_examples():
    assert quadrant_counts(RUNNING_EXAMPLE, 4) == (3, 1, 2, 2)
    assert quadrant_counts(RUNNING_EXAMPLE, 3) == (6, 2, 0, 0)
    assert quadrant_counts((1,), 1) == (0, 0, 0, 0)


def test_quadrant_counts_position_errors():
    with pytest.raises(IndexError):
        quadrant_counts((1, 2), 0)
    with pytest.raises(IndexError):
        quadrant_counts((1, 2), 3)


@given(perms())
def test_quadrant_counts_sum(p):
    n = len(p)
    for i in range(1, n + 1):
        assert sum(quadrant_counts(p, i)) == n - 1


# --- matches / mmp_count ---------------------------------------------------


def test_matches_examples():
    assert matches(RUNNING_EXAMPLE, 4, QuadrantSpec(2, 1, 2, 1))
    assert matches(RUNNING_EXAMPLE, 3, QuadrantSpec(4, 2, None, None))
    assert not matches((2, 1), 2, Q1)


def test_matches_empty_requirement():
    # position 1 of 12 has an empty lower-left quadrant and a point upper-right
    assert matches((1, 2), 1, QuadrantSpec(1, 0, None, 0))
    assert not matches((2, 1, 3), 2, QuadrantSpec(0, None, 0, 0))


def test_zero_spec_matches_everywhere():
    p = (3, 1, 4, 2, 5)
    spec = QuadrantSpec(0, 0, 0, 0)
    assert mmp_count(p, spec) == len(p)


def test_mmp_count_examples():
    assert mmp_count((1, 2), Q1) == 1
    for n in range(1, 8):
        identity = tuple(range(1, n + 1))
        assert mmp_count(identity, Q1) == n - 1
    assert mmp_count((2, 1, 3), Q1) == 2
    assert mmp_count((3, 1, 2), Q1) == 1


def test_quadrant_spec_validation():
    with pytest.raises(ValueError):
        QuadrantSpec(-1, 0, 0, 0)
    # a bool would equal and hash like its int but print as True/False
    for reqs in ((True, 0, False, 0), (1, 0, 0, False), (None, True, 0, 0)):
        with pytest.raises(ValueError):
            QuadrantSpec(*reqs)
    with pytest.raises(ValueError):
        QuadrantSpec(1.0, 0, 0, 0)


def test_quadrant_spec_value_contract():
    spec = QuadrantSpec(1, 0, None, 0)
    assert repr(spec) == "QuadrantSpec(q1=1, q2=0, q3=None, q4=0)"
    assert str(spec) == "MMP(1,0,e,0)"
    assert QuadrantSpec(q1=1, q2=0, q3=None, q4=0) == spec
    assert QuadrantSpec(1, 0, q3=None, q4=0).requirements == (1, 0, None, 0)
    assert spec != QuadrantSpec(1, 0, 0, 0)
    # equal specs hash alike, and the hash is the requirements tuple's, so
    # set and dict order is that of the tuples
    assert hash(spec) == hash(QuadrantSpec(1, 0, None, 0)) == hash(spec.requirements)
    assert spec != (1, 0, None, 0)
    assert spec.__eq__((1, 0, None, 0)) is NotImplemented
    assert len({spec, QuadrantSpec(1, 0, None, 0), Q1}) == 2
    with pytest.raises(ValueError, match=r"must be None or an int >= 0, got True"):
        QuadrantSpec(True, 0, 0, 0)
    with pytest.raises(TypeError):
        QuadrantSpec(1, 0, 0)


def test_quadrant_spec_is_frozen():
    spec = QuadrantSpec(1, 0, None, 0)
    with pytest.raises(AttributeError):
        spec.q1 = 2
    with pytest.raises(AttributeError):
        del spec.q4
    with pytest.raises(AttributeError):
        spec.extra = 1
    assert spec.requirements == (1, 0, None, 0)


def test_quadrant_spec_copies_and_pickles():
    spec = QuadrantSpec(2, None, 0, 1)
    for clone in (
        copy.copy(spec),
        copy.deepcopy(spec),
        pickle.loads(pickle.dumps(spec)),
    ):
        assert type(clone) is QuadrantSpec
        assert clone == spec and hash(clone) == hash(spec)
        assert repr(clone) == repr(spec)


# --- reverse / complement --------------------------------------------------


def test_reverse_complement_examples():
    assert reverse(RUNNING_EXAMPLE) == (3, 8, 2, 9, 6, 5, 1, 7, 4)
    assert complement((1, 2)) == (2, 1)


@given(perms())
def test_reverse_complement_involutions_commute(p):
    assert reverse(reverse(p)) == p
    assert complement(complement(p)) == p
    assert complement(reverse(p)) == reverse(complement(p))


@given(perms())
def test_statistic_rotation_under_symmetries(p):
    # the quadrant-I statistic migrates to the rotated quadrant under
    # reversal, complementation and their composition
    expected = mmp_count(p, Q1)
    assert mmp_count(reverse(p), Q2) == expected
    assert mmp_count(complement(p), Q4) == expected
    assert mmp_count(complement(reverse(p)), Q3) == expected


def test_reverse_complement_class_maps():
    # complement always swaps the classes; reverse swaps them at even length
    # and preserves them at odd length (length 1 belongs to both classes)
    for n in range(2, 7):
        for p in enumerate_alternating(n, UP_DOWN):
            assert is_down_up(complement(p))
            assert is_down_up(reverse(p)) == (n % 2 == 0)
            assert is_up_down(reverse(p)) == (n % 2 == 1)


# --- classification --------------------------------------------------------


def test_length_one_belongs_to_both_classes():
    assert is_up_down((1,))
    assert is_down_up((1,))


# --- standardisation -------------------------------------------------------


def test_reduce_preserves_suffix_statistic():
    # For the quadrant-I pattern, whether a suffix position matches depends
    # only on the suffix itself, so standardising the suffix (the i-th
    # smallest entry becomes i) preserves the statistic.  Exhaustive over
    # every suffix of every permutation, n <= 6.
    for n in range(1, 7):
        for p in itertools.permutations(range(1, n + 1)):
            for start in range(n):
                suffix = p[start:]
                in_full = sum(
                    1 for i in range(start + 1, n + 1) if matches(p, i, Q1)
                )
                standard = tuple(sorted(suffix).index(v) + 1 for v in suffix)
                assert mmp_count(standard, Q1) == in_full


# --- enumeration -----------------------------------------------------------


def test_enumerate_examples():
    assert list(enumerate_alternating(2, UP_DOWN)) == [(1, 2)]
    assert list(enumerate_alternating(4, UP_DOWN)) == [
        (1, 3, 2, 4), (1, 4, 2, 3), (2, 3, 1, 4), (2, 4, 1, 3), (3, 4, 1, 2)
    ]
    assert list(enumerate_alternating(3, DOWN_UP)) == [(2, 1, 3), (3, 1, 2)]
    assert list(enumerate_alternating(0, UP_DOWN)) == [()]


def test_enumerate_is_lexicographic_and_complete():
    # independent oracle: filter the full symmetric group
    for n in range(1, 8):
        for cls, pred in ((UP_DOWN, is_up_down), (DOWN_UP, is_down_up)):
            got = list(enumerate_alternating(n, cls))
            want = sorted(
                p for p in itertools.permutations(range(1, n + 1)) if pred(p)
            )
            assert got == want
            assert got == sorted(got)


def test_enumeration_counts_match_zigzag_numbers():
    ee = zigzag_numbers(9)
    for n in range(1, 10):
        ud = sum(1 for _ in enumerate_alternating(n, UP_DOWN))
        du = sum(1 for _ in enumerate_alternating(n, DOWN_UP))
        assert ud == du == ee[n]


def test_odd_positions_always_match_in_even_updown():
    # in an up-down permutation of even length every odd position sits below
    # an ascent, so it always has a point to its upper right
    for n in (2, 4, 6, 8):
        for p in enumerate_alternating(n, UP_DOWN):
            assert all(matches(p, i, Q1) for i in range(1, n, 2))
