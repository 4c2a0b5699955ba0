"""Star-constrained graphicality: reductions, set orders and the CG test."""

from __future__ import annotations

from .core import (
    AdjacencySet,
    ForbiddenSet,
    Incomparable,
    InvalidDegree,
    InvalidSet,
    _check_labels,
    _check_room,
    _Record,
    as_residuals,
)
from .graphicality import _eg_counts, _residual_counts


class ReducedSequence(_Record):
    """Residual degrees after removing a focal node and its adjacency set.

    Zeros stay in place so node labels remain stable.  Any -1 entry marks
    the reduction as immediately non-graphical (a neighbour had no stub
    left to give).
    """

    __slots__ = ("residuals", "removed")

    @property
    def has_negative(self) -> bool:
        return bool(self.residuals) and min(self.residuals) < 0

    def sorted_positive(self) -> tuple[int, ...]:
        positive = filter((0).__lt__, self.residuals)  # x > 0
        return tuple(sorted(positive, reverse=True))


def _check_sets(*sets) -> None:
    """InvalidSet unless every one of ``sets`` is an AdjacencySet."""
    for a in sets:
        if not isinstance(a, AdjacencySet):
            raise InvalidSet(f"expected an AdjacencySet, got {type(a).__name__}")


def reduce_by_set(d, a: AdjacencySet) -> ReducedSequence:
    """Remove the focal node, decrementing each member's degree by one."""
    _check_sets(a)
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
    _check_sets(b, a)
    if b.focal != a.focal or len(b) != len(a):
        raise Incomparable("sets must share focal node and cardinality")
    return all(x <= y for x, y in zip(b.members, a.members))


def colex_less(a: AdjacencySet, b: AdjacencySet) -> bool:
    """Strict colexicographic order: compare at the largest differing position."""
    _check_sets(a, b)
    if len(a) != len(b):
        raise Incomparable("sets must have equal cardinality")
    return tuple(reversed(a.members)) < tuple(reversed(b.members))


def _star(degs: tuple[int, ...], i: int, x) -> tuple[int, frozenset[int], int]:
    """``(i, X, d_i)`` for focal node i and forbidden set x on ``degs``,
    checked: i and every member of X in 1..n, d_i >= 0, |X| <= n - 1 - d_i."""
    if isinstance(x, ForbiddenSet):
        star = x
    else:
        try:
            members = frozenset(x)
        except TypeError:
            raise InvalidSet(f"forbidden set {x!r} is not a set of labels") from None
        star = ForbiddenSet(i, members)
    if star.focal != i:
        raise InvalidSet(f"forbidden set focal {star.focal} != {i}")
    _check_labels(len(degs), star)
    di = degs[star.focal - 1]
    if di < 0:
        raise InvalidDegree(f"focal {i} has negative degree {di}")
    _check_room(degs, star)
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
    Only the reduced multiset matters, so ``graphicality._eg_counts`` decides
    on the counts of nodes per degree, with no set built.  An odd sum or a
    degree > n - 1 is False at once.
    """
    degs = as_residuals(d)
    i, forbidden, _ = _star(degs, i, x)
    if min(degs) < 0 or max(degs) >= len(degs) or sum(degs) % 2:  # _star checks d_i
        return False
    return _cg_counts(_residual_counts(degs), degs, i, forbidden)


def _cg_counts(counts, residual, i: int, neighbours) -> bool:
    """The CG verdict for node i with forbidden set ``neighbours``, where
    ``residual[j - 1]`` is node j's residual degree (all >= 0, even sum)
    and ``counts[v]`` the number of nodes whose residual is v.

    Node i and its neighbours leave the counts, one stub each goes to the
    r_i highest remaining residuals, and the neighbours come back.  False
    if a stub would come from a node of residual 0, else the Erdos-Gallai
    verdict on the counts.  O(len(counts) + |neighbours|); ``counts`` is
    left as it was.  With r_i = 0 no stub moves, and nodes of residual 0
    leave the Erdos-Gallai verdict as it is, so that is the verdict on
    ``counts`` itself, with no copy made.
    """
    need = residual[i - 1]
    if not need:
        return not _eg_counts(counts)
    c = list(counts)
    c[need] -= 1
    for j in neighbours:
        c[residual[j - 1]] -= 1
    takes = []
    v = len(c) - 1
    while need:
        if not v:
            return False
        t = min(need, c[v])
        if t:
            takes.append((v, t))
            need -= t
        v -= 1
    for v, t in takes:
        c[v] -= t
        c[v - 1] += t
    for j in neighbours:
        c[residual[j - 1]] += 1
    return not _eg_counts(c)
