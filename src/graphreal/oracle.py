"""Brute-force ground truth, independent of the construction algorithms.

Backtracks over the lexicographic list of candidate node pairs, deciding
for each pair whether it is an edge, with residual-degree, parity and
remaining-capacity pruning.  Deliberately shares nothing with the
enumeration and constrained modules beyond the core types, so agreement
between the two is meaningful evidence.
"""

from __future__ import annotations

from collections.abc import Iterator

from .core import ForbiddenSet, InvalidSet, LabeledGraph, OracleTooLarge, as_residuals
from .core import InvalidArgument, _check_labels, _Record

_MAX_NODES = 10


class OracleQuery(_Record):
    """Degrees to realize, an optional forbidden star, optional forced edges.

    The star and the forced edges must lie on the nodes 1..n of the degrees,
    else InvalidSet.
    """

    __slots__ = ("degrees", "forbidden_star", "fixed_partial")

    def __init__(self, degrees, forbidden_star=None, fixed_partial=None):
        degrees = as_residuals(degrees)
        n = len(degrees)
        if forbidden_star is not None:
            if not isinstance(forbidden_star, ForbiddenSet):
                raise InvalidSet(
                    f"forbidden_star {forbidden_star!r} is not a ForbiddenSet")
            _check_labels(n, forbidden_star)
        if fixed_partial is not None:
            if not isinstance(fixed_partial, LabeledGraph):
                raise InvalidSet(f"fixed_partial {fixed_partial!r} is not a LabeledGraph")
            if fixed_partial.n != n:
                raise InvalidSet(f"fixed_partial has {fixed_partial.n} nodes, not {n}")
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "forbidden_star", forbidden_star)
        object.__setattr__(self, "fixed_partial", fixed_partial)


def _solutions(q: OracleQuery) -> Iterator[LabeledGraph]:
    if not isinstance(q, OracleQuery):
        raise InvalidArgument(f"{q!r} is not an OracleQuery")
    degrees = q.degrees
    n = len(degrees)
    if n > _MAX_NODES:
        raise OracleTooLarge(f"oracle limited to n <= {_MAX_NODES}, got {n}")

    excluded: set[tuple[int, int]] = set()
    if q.forbidden_star is not None:
        i = q.forbidden_star.focal
        for j in q.forbidden_star.members:
            excluded.add((i, j) if i < j else (j, i))

    residual = list(degrees)
    fixed: list[tuple[int, int]] = []
    if q.fixed_partial is not None:
        for u, v in q.fixed_partial.canonical_edges():
            if (u, v) in excluded:
                return  # forced edge contradicts the forbidden star
            excluded.add((u, v))
            fixed.append((u, v))
            residual[u - 1] -= 1
            residual[v - 1] -= 1

    if any(r < 0 for r in residual) or sum(residual) % 2 != 0:
        return

    pairs = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u, v) not in excluded
    ]
    # Remaining candidate pairs incident on each node, for capacity pruning.
    capacity = [0] * n
    for u, v in pairs:
        capacity[u - 1] += 1
        capacity[v - 1] += 1

    chosen: list[tuple[int, int]] = []

    def backtrack(idx: int) -> Iterator[LabeledGraph]:
        if all(r == 0 for r in residual):
            yield LabeledGraph(n, fixed + chosen)
            return
        if idx == len(pairs):
            return
        if any(residual[w] > capacity[w] for w in range(n)):
            return
        u, v = pairs[idx]
        capacity[u - 1] -= 1
        capacity[v - 1] -= 1
        if residual[u - 1] > 0 and residual[v - 1] > 0:
            residual[u - 1] -= 1
            residual[v - 1] -= 1
            chosen.append((u, v))
            yield from backtrack(idx + 1)
            chosen.pop()
            residual[u - 1] += 1
            residual[v - 1] += 1
        yield from backtrack(idx + 1)
        capacity[u - 1] += 1
        capacity[v - 1] += 1

    yield from backtrack(0)


def oracle_enumerate(q: OracleQuery) -> set[LabeledGraph]:
    """All simple graphs meeting the query, found by pair backtracking."""
    return set(_solutions(q))


def oracle_exists(q: OracleQuery) -> bool:
    """Whether any realization exists; stops at the first solution."""
    return next(_solutions(q), None) is not None
