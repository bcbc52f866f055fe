"""
Permutations in one-line notation, quadrant statistics, and alternating classes.

A permutation of length n is represented as a tuple of the values 1..n, each
occurring exactly once (one-line notation).  Its graph is the point set
{(i, p_i)}; we never materialise the graph, all quadrant counts are computed
directly from the value sequence.

Positions are 1-based throughout the public API, matching the usual
combinatorial convention.  Centering axes on the point (i, p_i), the four
quadrants hold:

    I   later positions with larger values      (j > i, p_j > p_i)
    II  earlier positions with larger values    (j < i, p_j > p_i)
    III earlier positions with smaller values   (j < i, p_j < p_i)
    IV  later positions with smaller values     (j > i, p_j < p_i)

A quadrant marked mesh pattern MMP(a, b, c, d) asks each quadrant to contain
at least a/b/c/d points, where an entry of 0 imposes no condition and the
special entry "empty" (spelled None here) demands an empty quadrant.
"""
from __future__ import annotations

import enum
from typing import Iterator, Sequence

Perm = tuple[int, ...]


def quadrant_counts(perm: Sequence[int], i: int) -> tuple[int, int, int, int]:
    """
    Number of points in quadrants I..IV relative to position i (1-based).

    The four counts always sum to n - 1.

    >>> quadrant_counts((4, 7, 1, 5, 6, 9, 2, 8, 3), 4)
    (3, 1, 2, 2)
    >>> quadrant_counts((4, 7, 1, 5, 6, 9, 2, 8, 3), 3)
    (6, 2, 0, 0)
    >>> quadrant_counts((1,), 1)
    (0, 0, 0, 0)
    """
    n = len(perm)
    if not 1 <= i <= n:
        raise IndexError(f"position {i} out of range 1..{n}")
    vi = perm[i - 1]
    c1 = c2 = c3 = c4 = 0
    for j in range(i, n):
        if perm[j] > vi:
            c1 += 1
        else:
            c4 += 1
    for j in range(i - 1):
        if perm[j] > vi:
            c2 += 1
        else:
            c3 += 1
    return (c1, c2, c3, c4)


class QuadrantSpec:
    """
    The four quadrant requirements of MMP(a, b, c, d).

    Each field is either a nonnegative integer k ("at least k points"; 0 means
    no condition) or None ("the quadrant must be empty").  A spec is an
    immutable value: it compares and hashes as its requirements tuple.

    >>> str(QuadrantSpec(1, 0, None, 0))
    'MMP(1,0,e,0)'
    >>> QuadrantSpec(1, 0, None, 0)
    QuadrantSpec(q1=1, q2=0, q3=None, q4=0)
    """

    __slots__ = __match_args__ = ("q1", "q2", "q3", "q4")

    def __init__(self, q1: int | None, q2: int | None, q3: int | None, q4: int | None) -> None:
        for name, req in zip(self.__slots__, (q1, q2, q3, q4)):
            # a bool is an int: MMP(True,0,0,0) would equal MMP(1,0,0,0) yet print otherwise
            if req is not None and (isinstance(req, bool) or not isinstance(req, int) or req < 0):
                raise ValueError(f"quadrant requirement must be None or an int >= 0, got {req!r}")
            object.__setattr__(self, name, req)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (QuadrantSpec, self.requirements)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.requirements == other.requirements

    def __hash__(self) -> int:
        return hash(self.requirements)

    def __repr__(self) -> str:
        q1, q2, q3, q4 = self.requirements
        return f"QuadrantSpec(q1={q1!r}, q2={q2!r}, q3={q3!r}, q4={q4!r})"

    @property
    def requirements(self) -> tuple[int | None, ...]:
        return (self.q1, self.q2, self.q3, self.q4)

    def __str__(self) -> str:
        return f"MMP({format_pattern(self)})"

    def accepts(self, counts: Sequence[int]) -> bool:
        """
        Do the quadrant counts (I..IV) meet every requirement?

        >>> QuadrantSpec(1, 0, None, 0).accepts((2, 1, 0, 3))
        True
        >>> QuadrantSpec(1, 0, None, 0).accepts((2, 1, 1, 3))
        False
        """
        for count, req in zip(counts, self.requirements):
            if req is None:
                if count != 0:
                    return False
            elif count < req:
                return False
        return True


def format_pattern(spec: QuadrantSpec) -> str:
    """The requirements joined by commas, e for empty: what the CLI's --pattern reads."""
    return ",".join("e" if r is None else str(r) for r in spec.requirements)


def matches(perm: Sequence[int], i: int, spec: QuadrantSpec) -> bool:
    """
    Does position i match the quadrant marked mesh pattern?

    >>> matches((4, 7, 1, 5, 6, 9, 2, 8, 3), 4, QuadrantSpec(2, 1, 2, 1))
    True
    >>> matches((4, 7, 1, 5, 6, 9, 2, 8, 3), 3, QuadrantSpec(4, 2, None, None))
    True
    >>> matches((2, 1), 2, QuadrantSpec(1, 0, 0, 0))
    False
    """
    return spec.accepts(quadrant_counts(perm, i))


def mmp_count(perm: Sequence[int], spec: QuadrantSpec) -> int:
    """
    The pattern statistic: how many positions match the spec.

    >>> mmp_count((1, 2), QuadrantSpec(1, 0, 0, 0))
    1
    >>> mmp_count((2, 1, 3), QuadrantSpec(1, 0, 0, 0))
    2
    >>> mmp_count((3, 1, 2), QuadrantSpec(1, 0, 0, 0))
    1
    """
    return sum(1 for i in range(1, len(perm) + 1) if matches(perm, i, spec))


class AlternatingClass(enum.Enum):
    """The two alternating classes: up-down (p1 < p2 > p3 < ...) and down-up."""

    UP_DOWN = "ud"
    DOWN_UP = "du"

    __hash__ = object.__hash__  # members are singletons: identity is equality

    def rises_into(self, j: int) -> bool:
        """
        Whether the step into 0-based position j must be an ascent.  At j = 0
        it is the step from a virtual opening value: True means an ascent from
        0 (a down-up word), False a descent from n + 1 (an up-down word).
        """
        return j % 2 == (1 if self is AlternatingClass.UP_DOWN else 0)


UP_DOWN = AlternatingClass.UP_DOWN
DOWN_UP = AlternatingClass.DOWN_UP


def enumerate_alternating(n: int, cls: AlternatingClass) -> Iterator[Perm]:
    """
    Yield every alternating permutation of length n of the given class, in
    lexicographic order of the one-line word.  n = 0 yields the empty word
    once, as dist_brute counts it; a negative n yields nothing.

    Depth-first backtracking, inserting values left to right and checking the
    ascent/descent parity incrementally; memory stays O(n).

    >>> list(enumerate_alternating(2, UP_DOWN))
    [(1, 2)]
    >>> list(enumerate_alternating(3, DOWN_UP))
    [(2, 1, 3), (3, 1, 2)]
    >>> list(enumerate_alternating(0, UP_DOWN))
    [()]
    """
    used = [False] * (n + 1)
    prefix: list[int] = []

    def extend() -> Iterator[Perm]:
        depth = len(prefix)
        if depth == n:
            yield tuple(prefix)
            return
        prev = prefix[-1] if prefix else None
        rising = cls.rises_into(depth)
        for v in range(1, n + 1):
            if used[v]:
                continue
            if prev is not None and (prev < v) != rising:
                continue
            used[v] = True
            prefix.append(v)
            yield from extend()
            prefix.pop()
            used[v] = False

    yield from extend()
