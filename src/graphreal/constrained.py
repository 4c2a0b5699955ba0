"""Star-constrained graphicality: reductions, set orders and the CG test."""

from __future__ import annotations

from itertools import accumulate
from operator import mul

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
    Only the reduced multiset matters, so the verdict comes from the counts
    of nodes per degree, with no set built.
    """
    degs = as_residuals(d)
    i, forbidden, _ = _star(degs, i, x)
    if min(degs) < 0:  # another node's; _star refuses a negative focal
        return False
    return _cg_counts(_residual_counts(degs), degs, i, forbidden)


def _residual_counts(residual) -> list[int]:
    """``counts[v]``: how many of the nonnegative ``residual`` equal v."""
    counts = [0] * (max(residual, default=0) + 1)
    for v in residual:
        counts[v] += 1
    return counts


def _cg_counts(counts, residual, i: int, neighbours) -> bool:
    """The CG verdict for node i with forbidden set ``neighbours``, where
    ``residual[j - 1]`` is node j's residual degree (all of them >= 0) and
    ``counts[v]`` the number of nodes whose residual is v.

    Node i and its neighbours leave the counts, one stub each goes to the
    r_i highest remaining residuals, and the neighbours come back.  False
    if a stub would come from a node of residual 0, else the Erdos-Gallai
    verdict on the counts.  O(len(counts) + |neighbours|); ``counts`` is
    left as it was.
    """
    c = list(counts)
    need = residual[i - 1]
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
    return _eg_counts(c)


def _eg_counts(c) -> bool:
    """Erdos-Gallai on the multiset with ``c[v]`` members of value v >= 0.

    In nonincreasing order d, the inequality needs checking only at the
    ends of blocks of equal values (Tripathi & Vijay, "A note on a theorem
    of Erdos & Gallai", 2003), and only up to the largest k with d_k >= k,
    the cutoff of ``erdos_gallai_test``.  Up to there, each member past
    position k adds min(k, d_j) = k unless it is < k, so with m members in
    all the right-hand side is k(m-1) - k*below[k] + below_sum[k], where
    ``below[t]`` and ``below_sum[t]`` count and sum the members < t.
    """
    below = list(accumulate(c, initial=0))
    below_sum = list(accumulate(map(mul, range(len(c)), c), initial=0))
    if below_sum[-1] % 2:
        return False
    m = below[-1]
    k = lhs = 0
    v = len(c) - 1
    while v > k:
        if c[v]:
            x = min(c[v], v - k)  # a block cut short ends at the cutoff
            k += x
            lhs += v * x
            if lhs > k * (m - 1 - below[k]) + below_sum[k]:
                return False
        v -= 1
    return True
