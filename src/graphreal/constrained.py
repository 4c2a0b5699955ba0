"""Star-constrained graphicality: reductions, set orders and the CG test."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    AdjacencySet,
    ForbiddenSet,
    Incomparable,
    InvalidDegree,
    InvalidSet,
    TooManyForbidden,
    as_residuals,
)
from .graphicality import erdos_gallai_test


@dataclass(frozen=True)
class ReducedSequence:
    """Residual degrees after removing a focal node and its adjacency set.

    Zeros stay in place so node labels remain stable.  Any -1 entry marks
    the reduction as immediately non-graphical (a neighbour had no stub
    left to give).
    """

    residuals: tuple[int, ...]
    removed: int

    @property
    def has_negative(self) -> bool:
        return bool(self.residuals) and min(self.residuals) < 0

    def sorted_positive(self) -> tuple[int, ...]:
        positive = filter((0).__lt__, self.residuals)  # x > 0
        return tuple(sorted(positive, reverse=True))


def reduce_by_set(d, a: AdjacencySet) -> ReducedSequence:
    """Remove the focal node, decrementing each member's degree by one."""
    residuals = list(as_residuals(d))
    n = len(residuals)
    if not (1 <= a.focal <= n):
        raise InvalidSet(f"focal {a.focal} outside 1..{n}")
    if any(not (1 <= m <= n) for m in a.members):
        raise InvalidSet(f"adjacency set {a.members} outside 1..{n}")
    residuals[a.focal - 1] = 0
    for m in a.members:
        residuals[m - 1] -= 1
    return ReducedSequence(tuple(residuals), a.focal)


def set_leq(b: AdjacencySet, a: AdjacencySet) -> bool:
    """Elementwise order on equal-size adjacency sets: b is "to the left"."""
    if b.focal != a.focal or len(b) != len(a):
        raise Incomparable("sets must share focal node and cardinality")
    return all(x <= y for x, y in zip(b.members, a.members))


def colex_less(a: AdjacencySet, b: AdjacencySet) -> bool:
    """Strict colexicographic order: compare at the largest differing position."""
    if len(a) != len(b):
        raise Incomparable("sets must have equal cardinality")
    return tuple(reversed(a.members)) < tuple(reversed(b.members))


def _star(degs: tuple[int, ...], i: int, x) -> tuple[int, frozenset[int], int]:
    """``(i, X, d_i)`` for focal node i and forbidden set x on ``degs``,
    checked: i and every member of X in 1..n, d_i >= 0, |X| <= n - 1 - d_i."""
    n = len(degs)
    star = x if isinstance(x, ForbiddenSet) else ForbiddenSet(i, frozenset(x))
    if star.focal != i:
        raise InvalidSet(f"forbidden set focal {star.focal} != {i}")
    if not (1 <= i <= n):
        raise InvalidSet(f"focal {i} outside 1..{n}")
    if max(star.members, default=0) > n:
        raise InvalidSet(f"forbidden set {sorted(star.members)} outside 1..{n}")
    di = degs[star.focal - 1]
    if di < 0:
        raise InvalidDegree(f"focal {i} has negative degree {di}")
    if len(star) > n - 1 - di:
        raise TooManyForbidden(f"|X|={len(star)} exceeds n-1-d_i={n - 1 - di}")
    return star.focal, star.members, di


def leftmost_restricted(d, i: int, x) -> AdjacencySet:
    """The d_i allowed nodes of largest residual degree, smallest label first.

    On a nonincreasing sequence this is exactly the d_i lowest-index nodes
    outside the forbidden set; the residual-degree ordering generalizes it
    to unsorted residual views (ties cannot affect the CG verdict because
    tied allowed nodes produce identical reduced multisets).  A negative
    d_i raises InvalidDegree.
    """
    degs = as_residuals(d)
    i, forbidden, di = _star(degs, i, x)
    allowed = [j for j in range(1, len(degs) + 1) if j != i and j not in forbidden]
    # Largest degree first; the sort is stable, also reversed, so ties stay
    # in label order.
    allowed.sort(key=(0, *degs).__getitem__, reverse=True)
    return AdjacencySet(i, tuple(sorted(allowed[:di])))


def cg_test(d, i: int, x=frozenset()) -> bool:
    """Can d be realized avoiding every connection from i into x?

    True iff the sequence reduced by the leftmost restricted set of i is
    graphical: no residual is negative and the Erdos-Gallai test passes.
    Only the reduced multiset matters, so it is built from the sorted
    allowed degrees, with no set built.
    """
    degs = as_residuals(d)
    i, forbidden, di = _star(degs, i, x)
    allowed = list(degs)
    for j in sorted(forbidden | {i}, reverse=True):
        del allowed[j - 1]
    allowed.sort(reverse=True)
    reduced = [v - 1 for v in allowed[:di]] + allowed[di:]
    reduced += [degs[j - 1] for j in forbidden]
    return min(reduced, default=0) >= 0 and erdos_gallai_test(reduced).graphical
