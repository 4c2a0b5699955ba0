"""Havel-Hakimi construction as rows, loaded by ``graphreal construct`` and by
``havel_hakimi_construct`` on first use.

Row a of a graph lists the names b > a of the neighbours of the node named
a, so the command line can write the rows of a realization without its
edges ever being tuples, a list or a set.  A step with k targets costs
O(k log n), however large the buckets are.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .core import (
    DegreeTooLarge,
    InvalidDegree,
    NotGraphical,
    as_residuals,
)
from .graphicality import NodeSelectionPolicy


def _hh_rows(d, policy, names=None) -> list[list[int]]:
    """The rows, each in no order, of ``havel_hakimi_construct(d, policy)``
    with node v named ``names[v]`` (v itself by default), sized by the
    largest name; raises what that function raises.

    Active nodes sit in heaps of labels by residual degree.  The focal
    node is the head of the top heap (``max``), the lowest non-empty heap
    (``min``) or the heap of the smallest active label (``fixed``); each
    target is a head too, pushed one heap down.  No target can already be
    a neighbour of the focal node: every earlier edge has an earlier focal
    node at one end, and that node's residual is 0.
    """
    policy = NodeSelectionPolicy(policy)
    degs = as_residuals(d)
    n = len(degs)
    if degs and min(degs) < 0:
        raise InvalidDegree(f"negative degree {min(degs)}")
    if degs and degs[0] > n - 1:
        raise DegreeTooLarge(f"degree {degs[0]} exceeds n-1 = {n - 1}")
    if degs and max(degs) > n - 1:  # before the buckets are sized by it
        raise NotGraphical(f"{list(degs)} is not graphical")
    names = tuple(range(n + 1)) if names is None else names
    rows: list[list[int]] = [[] for _ in range(max(names) + 1)]
    residual = list(degs)
    buckets: list[list[int]] = [[] for _ in range(max(degs, default=0) + 1)]
    for v, r in enumerate(degs, start=1):
        if r:  # appended in label order, so each bucket is already a heap
            buckets[r].append(v)
    top, low, nxt = len(buckets) - 1, 1, 0
    while True:
        while top and not buckets[top]:
            top -= 1
        if not top:
            return rows
        if policy is NodeSelectionPolicy.MAX_RESIDUAL:
            need = top
        elif policy is NodeSelectionPolicy.MIN_RESIDUAL:
            while not buckets[low]:
                low += 1
            need = low
        else:
            while not residual[nxt]:
                nxt += 1
            need = residual[nxt]
        focal = heappop(buckets[need])
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
        a = names[focal]
        for r, k in reversed(takes):
            bucket, below = buckets[r], buckets[r - 1]
            for _ in range(k):
                v = heappop(bucket)
                residual[v - 1] = r - 1
                if r > 1:
                    heappush(below, v)
                if a < (b := names[v]):
                    rows[a].append(b)
                else:
                    rows[b].append(a)
            low = min(low, max(r - 1, 1))
