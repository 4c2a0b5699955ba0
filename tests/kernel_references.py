"""Slow, literal versions of the graphicality kernels, kept as test oracles.

``erdos_gallai_reference`` sums min(k, d_i) afresh for every k, and
``havel_hakimi_reference`` rebuilds and re-sorts the active list for every
focal node.  The library's kernels must agree with them exactly.
"""

from graphreal.core import DegreeTooLarge, LabeledGraph, NotGraphical, as_residuals
from graphreal.graphicality import EgReport, NodeSelectionPolicy


def erdos_gallai_reference(d, check_all_k=False) -> EgReport:
    """The Erdos-Gallai test with the O(n) inner sum written out."""
    degs = sorted(as_residuals(d), reverse=True)
    n = len(degs)
    parity_ok = sum(degs) % 2 == 0
    if check_all_k:
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
    return EgReport(parity_ok and first_violated is None, parity_ok, first_violated, s)


def havel_hakimi_reference(
    d, policy: NodeSelectionPolicy = NodeSelectionPolicy.MAX_RESIDUAL
) -> LabeledGraph:
    """Havel-Hakimi construction with a full re-sort for every focal node."""
    degs = as_residuals(d)
    n = len(degs)
    if degs and degs[0] > n - 1:
        raise DegreeTooLarge(f"degree {degs[0]} exceeds n-1 = {n - 1}")
    residual = list(degs)
    adjacency = {v: set() for v in range(1, n + 1)}
    edges = []
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
