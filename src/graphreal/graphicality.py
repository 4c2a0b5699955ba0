"""Unconstrained graphicality: Erdos-Gallai test and Havel-Hakimi steps."""

from __future__ import annotations

import enum
from bisect import bisect_left
from itertools import accumulate

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


def erdos_gallai_test(d, check_all_k: bool = False) -> EgReport:
    """Decide graphicality of a degree sequence given in any order.

    The entries are sorted nonincreasingly first, and ``first_violated_k``
    and ``s_bound`` refer to that sorted order.  By default only prefixes
    k = 1..s are checked, where s is the largest index with d_s >= s;
    ``check_all_k`` forces k = 1..n instead (used by the cutoff-soundness
    tests).  The empty sequence is graphical; a negative entry raises
    InvalidDegree.

    After the sort each k costs O(1) (Ivanyi, Lucz, Mori & Soter, "Linear
    Erdos-Gallai test"): with w = #{i : d_i >= k}, the right-hand side
    k(k-1) + sum_{i>k} min(k, d_i) is k(k-1) + k*max(0, w-k) + S[max(w, k)],
    where S[j] = d_{j+1} + ... + d_n, and w only moves down as k grows.
    """
    degs = sorted(as_residuals(d), reverse=True)
    n = len(degs)
    if degs and degs[-1] < 0:
        raise InvalidDegree(f"negative degree {degs[-1]}")
    parity_ok = sum(degs) % 2 == 0
    if check_all_k:
        # k = n is needed when d_1 > n-1; for k beyond the cutoff the
        # inequality holds automatically on sequences with d_1 <= n-1.
        s = n
    else:
        s = 0
        while s < n and degs[s] >= s + 1:
            s += 1
    suffix = list(accumulate(reversed(degs), initial=0))
    suffix.reverse()  # suffix[j] = S[j]
    first_violated = None
    prefix = 0
    w = n
    for k in range(1, s + 1):
        prefix += degs[k - 1]
        while w and degs[w - 1] < k:
            w -= 1
        if w > k:
            bound = k * (k - 1) + k * (w - k) + suffix[w]
        else:
            bound = k * (k - 1) + suffix[k]
        if prefix > bound:
            first_violated = k
            break
    graphical = parity_ok and first_violated is None
    return EgReport(graphical, parity_ok, first_violated, s)


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

    Active nodes sit in buckets by residual degree, each bucket in label
    order, so the focal node and its targets are bucket heads.  No target
    can already be a neighbour of the focal node: every earlier edge has an
    earlier focal node at one end, and that node's residual is 0.
    """
    try:
        policy = NodeSelectionPolicy(policy)
    except ValueError:
        raise InvalidArgument(f"unknown policy {policy!r}") from None
    degs = as_residuals(d)
    n = len(degs)
    if degs and min(degs) < 0:
        raise InvalidDegree(f"negative degree {min(degs)}")
    if degs and degs[0] > n - 1:
        raise DegreeTooLarge(f"degree {degs[0]} exceeds n-1 = {n - 1}")
    residual = list(degs)
    buckets: list[list[int]] = [[] for _ in range(max(degs, default=0) + 1)]
    for v, r in enumerate(degs, start=1):
        if r:
            buckets[r].append(v)
    top, low, nxt = len(buckets) - 1, 1, 0
    edges: list[tuple[int, int]] = []
    while True:
        while top and not buckets[top]:
            top -= 1
        if not top:
            break
        if policy is NodeSelectionPolicy.MAX_RESIDUAL:
            focal = buckets[top].pop(0)
        elif policy is NodeSelectionPolicy.MIN_RESIDUAL:
            while not buckets[low]:
                low += 1
            focal = buckets[low].pop(0)
        else:
            while not residual[nxt]:
                nxt += 1
            focal = nxt + 1
            bucket = buckets[residual[nxt]]
            del bucket[bisect_left(bucket, focal)]
        need = residual[focal - 1]
        residual[focal - 1] = 0
        # Take the targets top bucket first; move them one bucket down,
        # lowest bucket first, so that no node moves twice.
        takes = []
        r = top
        while need and r:
            k = min(need, len(buckets[r]))
            if k:
                takes.append((r, k))
                need -= k
            r -= 1
        if need:
            raise NotGraphical(f"{list(degs)} is not graphical")
        for r, k in reversed(takes):
            bucket = buckets[r]
            moved = bucket[:k]
            del bucket[:k]
            for v in moved:
                residual[v - 1] = r - 1
                edges.append((focal, v) if focal < v else (v, focal))
            if r > 1:
                below = buckets[r - 1]
                below += moved
                below.sort()
            low = min(low, max(r - 1, 1))
    return LabeledGraph._trusted(n, edges)
