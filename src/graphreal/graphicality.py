"""Unconstrained graphicality: Erdos-Gallai test and Havel-Hakimi steps."""

from __future__ import annotations

import enum
from itertools import accumulate, chain, repeat
from operator import mul

from .core import (
    DegreeSequence,
    DegreeTooLarge,
    InvalidArgument,
    InvalidDegree,
    LabeledGraph,
    NotGraphical,
    _Record,
    as_residuals,
)


class EgReport(_Record):
    """Outcome of the Erdos-Gallai test.

    ``s_bound`` is the largest prefix length actually checked; with the
    Tripathi-Vijay cutoff this is the largest k with d_k >= k.
    """

    __slots__ = ("graphical", "parity_ok", "first_violated_k", "s_bound")


class NodeSelectionPolicy(enum.Enum):
    """Which node connects all its stubs next during construction."""

    MAX_RESIDUAL = "max"
    MIN_RESIDUAL = "min"
    FIXED_LABEL_ORDER = "fixed"

    @classmethod
    def _missing_(cls, value):
        raise InvalidArgument(f"unknown policy {value!r}")


def erdos_gallai_test(d, check_all_k: bool = False) -> EgReport:
    """Decide graphicality of a degree sequence given in any order.

    ``first_violated_k`` and ``s_bound`` refer to the nonincreasing order;
    only k = 1..s are checked, s the largest index with d_s >= s, unless
    ``check_all_k`` forces k = 1..n (for the cutoff-soundness tests).  The
    empty sequence is graphical; a negative entry raises InvalidDegree.
    ``_eg_counts`` decides in O(n) on the counts per degree, clamped to n.
    """
    degs = as_residuals(d)
    n = len(degs)
    if degs and min(degs) < 0:
        raise InvalidDegree(f"negative degree {min(degs)}")
    parity_ok = sum(degs) % 2 == 0
    counts = _residual_counts(degs if max(degs, default=0) < n else
                              [min(x, n) for x in degs])  # >= n fails at k = 1
    first_violated = _eg_counts(counts, check_all_k) or None
    at_least = zip(range(len(counts) - 1, 0, -1), accumulate(reversed(counts)))
    s = n if check_all_k else next((v for v, w in at_least if w >= v), 0)
    return EgReport(parity_ok and first_violated is None, parity_ok, first_violated, s)


def _residual_counts(residual) -> list[int]:
    """``counts[v]``: how many of the nonnegative ``residual`` equal v."""
    counts = [0] * (max(residual, default=0) + 1)
    for v in residual:
        counts[v] += 1
    return counts


def _eg_counts(c, all_k: bool = False) -> int:
    """The first k where the Erdos-Gallai inequality fails on the multiset
    with ``c[v]`` members of value v >= 0, or 0; parity is the caller's.

    In nonincreasing order d, only k up to the cutoff, the largest k with
    d_k >= k (``all_k`` goes on to n), and only the ends of blocks of equal
    values need checking (Tripathi & Vijay, "A note on a theorem of Erdos &
    Gallai", 2003): in a block lhs - rhs is convex up to the cutoff and falls
    past it, so only a block whose end fails is walked again one k at a time.
    Up to the cutoff each member past position k adds k unless it is < k, so
    the right-hand side is k(m-1-below[k]) + below_sum[k], with ``below[t]``
    and ``below_sum[t]`` the count and sum of the members < t; past it, every
    later member is < k, so it is k(k-1) + (sum - prefix).
    """
    below = list(accumulate(c, initial=0))
    below_sum = list(accumulate(map(mul, range(len(c)), c), initial=0))
    m, v = below[-1], len(c)
    k = lhs = left = 0  # left: members of value v not yet placed
    scan = False  # a block end failed: walk that block again one k at a time
    while left or v:
        if not left:
            v -= 1
            left = c[v]
            continue
        if v <= k and not all_k:  # past the cutoff
            return 0
        # A block is split where it crosses the cutoff.
        x = 1 if scan else min(left, v - k) if v > k else left
        j, prefix = k + x, lhs + v * x
        if prefix > (j * (m - 1 - below[j]) + below_sum[j] if v >= j
                     else j * (j - 1) + below_sum[-1] - prefix):
            if x == 1:
                return j
            scan = True
        else:
            k, lhs, left = j, prefix, left - x
    return 0


def havel_hakimi_reduce(d) -> DegreeSequence:
    """One Havel-Hakimi step: drop the top node, decrement its targets.

    The input is graphical iff the (re-sorted) result is.  A negative
    residual, only possible when the top degree exceeds the number of
    remaining positive entries, raises NotGraphical.
    """
    degs = as_residuals(d)
    if not degs or degs[0] < 1:
        raise NotGraphical("reduction needs a nonempty sequence with d_1 >= 1")
    d1 = degs[0]
    if d1 > len(degs) - 1:
        raise DegreeTooLarge(f"degree {d1} exceeds n-1 = {len(degs) - 1}")
    reduced = [x - 1 for x in degs[1 : d1 + 1]] + list(degs[d1 + 1 :])
    if reduced and min(reduced) < 0:
        raise NotGraphical(f"reduction of {list(degs)} forces a negative degree")
    return DegreeSequence(tuple(sorted(reduced, reverse=True)))


def havel_hakimi_construct(
    d, policy: NodeSelectionPolicy = NodeSelectionPolicy.MAX_RESIDUAL
) -> LabeledGraph:
    """Build one realization by repeatedly emptying a focal node's stubs.

    The focal node is chosen by ``policy``, a NodeSelectionPolicy or its
    value ``"max"``, ``"min"`` or ``"fixed"``; its stubs always attach to
    the nodes of largest residual degree, smallest label first on ties.
    Raises InvalidArgument for any other policy, InvalidDegree on a
    negative entry and NotGraphical when no valid attachment exists.

    The graph is made from the rows of ``construction._hh_rows``, which
    ``graphreal construct`` writes as they are.
    """
    from .construction import _hh_rows

    rows = _hh_rows(d, policy)
    pairs = map(zip, map(repeat, range(len(rows))), rows)  # (a, b) for b in row a
    return LabeledGraph._trusted(len(rows) - 1, chain.from_iterable(pairs))
