"""Unconstrained graphicality: Erdos-Gallai test and Havel-Hakimi steps."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import (
    DegreeSequence,
    DegreeTooLarge,
    LabeledGraph,
    NotGraphical,
    as_residuals,
)


@dataclass(frozen=True)
class EgReport:
    """Outcome of the Erdos-Gallai test.

    ``s_bound`` is the largest prefix length actually checked; with the
    Tripathi-Vijay cutoff this is the largest k with d_k >= k.
    """

    graphical: bool
    parity_ok: bool
    first_violated_k: int | None
    s_bound: int


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
    ``check_all_k`` forces k = 1..n-1 instead (used by the cutoff-soundness
    tests).  The empty sequence is graphical.
    """
    degs = sorted(as_residuals(d), reverse=True)
    n = len(degs)
    parity_ok = sum(degs) % 2 == 0
    if check_all_k:
        # k = n is needed when d_1 > n-1; for k beyond the cutoff the
        # inequality holds automatically on sequences with d_1 <= n-1.
        s = n
    else:
        s = 0
        while s < n and degs[s] >= s + 1:
            s += 1
    first_violated = None
    prefix = 0
    for k in range(1, s + 1):
        prefix += degs[k - 1]
        bound = k * (k - 1) + sum(min(k, degs[i]) for i in range(k, n))
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

    The focal node is chosen by ``policy``; its stubs always attach to the
    nodes of largest residual degree, smallest label first on ties.  Raises
    NotGraphical when no valid attachment exists.
    """
    degs = as_residuals(d)
    n = len(degs)
    if degs and degs[0] > n - 1:
        raise DegreeTooLarge(f"degree {degs[0]} exceeds n-1 = {n - 1}")
    residual = list(degs)
    adjacency: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    edges: list[tuple[int, int]] = []
    while True:
        active = [v for v in range(1, n + 1) if residual[v - 1] > 0]
        if not active:
            break
        if policy is NodeSelectionPolicy.MAX_RESIDUAL:
            focal = max(active, key=lambda v: (residual[v - 1], -v))
        elif policy is NodeSelectionPolicy.MIN_RESIDUAL:
            focal = min(active, key=lambda v: (residual[v - 1], v))
        else:
            focal = active[0]
        need = residual[focal - 1]
        targets = sorted(
            (v for v in active if v != focal and v not in adjacency[focal]),
            key=lambda v: (-residual[v - 1], v),
        )[:need]
        if len(targets) < need:
            raise NotGraphical(f"{list(degs)} is not graphical")
        residual[focal - 1] = 0
        for v in targets:
            residual[v - 1] -= 1
            adjacency[focal].add(v)
            adjacency[v].add(focal)
            edges.append((focal, v) if focal < v else (v, focal))
    return LabeledGraph(n, edges)
