"""Exhaustive construction of every labeled realization, and exact counts.

Each level of the construction tree picks the node of largest residual
degree (smallest label on ties), generates every graphicality-preserving
adjacency set for it in decreasing colexicographic order, and descends on
the reduced residuals.  Each labeled graph is produced exactly once.  One
walker, ``_walk``, serves enumeration and both tree samplers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .core import AdjacencySet, LabeledGraph, NotGraphical, as_residuals
from .constrained import cg_test
from .graphicality import erdos_gallai_test

# Cap on how many recently accepted sets the dominance shortcut scans;
# beyond that a full pairwise scan costs more than the EG test it saves.
_DOMINANCE_WINDOW = 8


@dataclass(frozen=True)
class CountResult:
    count: int
    memo_hits: int
    memo_entries: int


def rightmost_adjacency_set(d) -> AdjacencySet:
    """Colex-largest graphicality-preserving adjacency set of node 1.

    Connects node 1 to node n first (never breaks graphicality), then scans
    k = n-1 downwards, keeping each tentative connection iff the constrained
    graphicality test passes with the kept members as forbidden connections.
    """
    degs = as_residuals(d)
    n = len(degs)
    if not erdos_gallai_test(degs).graphical:
        raise NotGraphical(f"{list(degs)} is not graphical")
    d1 = degs[0]
    if d1 < 1:
        raise NotGraphical("rightmost set needs d_1 >= 1")
    residual = list(degs)
    residual[0] -= 1
    residual[n - 1] -= 1
    members = [n]
    k = n - 1
    while len(members) < d1:
        # Graphicality of the input guarantees the scan never exhausts.
        assert k >= 2, "rightmost-set scan exhausted on a graphical sequence"
        if residual[k - 1] > 0:
            trial = list(residual)
            trial[0] -= 1
            trial[k - 1] -= 1
            if cg_test(trial, 1, frozenset(members) | {k}):
                residual = trial
                members.append(k)
        k -= 1
    return AdjacencySet(1, tuple(sorted(members)))


def _all_sets(seq: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All graphicality-preserving adjacency sets of node 1, decreasing colex.

    ``seq`` must be nonincreasing with positive entries.  Candidates are
    grown by prefix extension from the largest element down, pruning any
    prefix that fails the CG test with the chosen-so-far as forbidden set.
    A candidate elementwise below a recently accepted set is accepted
    without a graphicality check (left shifts preserve graphicality).
    """
    ar = rightmost_adjacency_set(seq).members
    d1 = seq[0]
    n = len(seq)
    out: list[tuple[int, ...]] = []

    def dominated(members: tuple[int, ...]) -> bool:
        for acc in out[-_DOMINANCE_WINDOW:]:
            if all(m <= a for m, a in zip(members, acc)):
                return True
        return False

    def extend(pos: int, chosen: list[int], residual: list[int], tight: bool):
        hi = ar[pos - 1] if tight else chosen[-1] - 1
        for v in range(hi, pos, -1):
            if residual[v - 1] == 0:
                continue
            new_res = list(residual)
            new_res[0] -= 1
            new_res[v - 1] -= 1
            if pos == 1:
                members = tuple(sorted(chosen + [v]))
                if dominated(members):
                    out.append(members)
                else:
                    if erdos_gallai_test(new_res[1:]).graphical:
                        out.append(members)
            else:
                if cg_test(new_res, 1, frozenset(chosen) | {v}):
                    extend(
                        pos - 1,
                        chosen + [v],
                        new_res,
                        tight and v == ar[pos - 1],
                    )

    extend(d1, [], list(seq), True)
    return tuple(out)


# The family of adjacency sets depends only on the sorted residual sequence,
# so results are shared across enumeration, counting and sampling.
_all_sets_cached = lru_cache(maxsize=1 << 16)(_all_sets)


def all_adjacency_sets(d) -> list[AdjacencySet]:
    """The set A(d) for node 1, ordered colex-decreasing starting at A_R."""
    seq = as_residuals(d)
    return [AdjacencySet(1, m) for m in _all_sets(tuple(seq))]


def _sorted_view(residual: list[int]) -> tuple[list[int], tuple[int, ...]]:
    """Surviving labels ordered by (residual desc, label asc), plus degrees."""
    labels = sorted(
        (v for v in range(1, len(residual) + 1) if residual[v - 1] > 0),
        key=lambda v: (-residual[v - 1], v),
    )
    return labels, tuple(residual[v - 1] for v in labels)


def _walk(degs, pick=None) -> Iterator[
    tuple[tuple[tuple[int, int], ...], tuple[int, ...]]
]:
    """Depth-first walk of the construction tree below the residuals ``degs``.

    Yields ``(edges, branch_sizes)`` at each leaf, where ``branch_sizes``
    holds the number of adjacency sets offered at each level of the path.
    With ``pick`` None every set is taken in turn, in decreasing colex
    order; otherwise ``pick(k)`` chooses one of the ``k`` sets at each
    level and the walk ends at the single leaf it reaches.  The tree is
    walked with an explicit stack, so its depth is not bounded by Python's
    recursion limit.
    """
    residual = list(degs)
    edges: list[tuple[int, int]] = []
    # One entry per level: [focal, labels, options, option index, saved residual].
    stack: list[list] = []
    while True:
        labels, seq = _sorted_view(residual)
        if labels:
            options = _all_sets_cached(seq)
            index = 0 if pick is None else pick(len(options))
            stack.append([labels[0], labels, options, index, residual[labels[0] - 1]])
        else:
            yield tuple(edges), tuple(len(level[2]) for level in stack)
            if pick is not None:
                return
            # Undo levels until one has a next option, then move to it.
            while stack:
                level = stack[-1]
                focal, labels, options, index, saved = level
                residual[focal - 1] = saved
                for p in options[index]:
                    residual[labels[p - 1] - 1] += 1
                del edges[-len(options[index]):]
                if index + 1 < len(options):
                    level[3] = index + 1
                    break
                stack.pop()
            else:
                return
        focal, labels, options, index, _ = stack[-1]
        for p in options[index]:
            v = labels[p - 1]
            residual[v - 1] -= 1
            edges.append((focal, v) if focal < v else (v, focal))
        residual[focal - 1] = 0


def enumerate_all(d) -> Iterator[LabeledGraph]:
    """Lazily yield every labeled simple graph realizing d, each exactly once.

    Non-graphical input yields nothing.  Order is deterministic: depth
    first, adjacency sets in decreasing colex order at every level.
    """
    degs = as_residuals(d)
    if not erdos_gallai_test(degs).graphical:
        return
    for edges, _ in _walk(degs):
        yield LabeledGraph(len(degs), edges)


def enumerate_all_parallel(
    d, threads: int = 1, ordered: bool = True
) -> Iterator[LabeledGraph]:
    """Serial alias of :func:`enumerate_all`, kept for compatibility.

    ``threads`` and ``ordered`` are ignored: the stream is always the
    single-threaded one, in its deterministic order.
    """
    return enumerate_all(d)


def count_realizations(d, memoize: bool = True) -> CountResult:
    """Exact number of labeled realizations via the branch-sum recursion.

    The memo key is the sorted multiset of positive residual degrees: the
    count is invariant under relabeling (any permutation of labels bijects
    the realization sets), so it depends only on the degree multiset.
    """
    degs = as_residuals(d)
    key = tuple(sorted((x for x in degs if x > 0), reverse=True))
    if not erdos_gallai_test(key).graphical:
        return CountResult(0, 0, 0)
    memo: dict[tuple[int, ...], int] | None = {} if memoize else None
    hits = 0

    def count(seq: tuple[int, ...]) -> int:
        nonlocal hits
        if not seq:
            return 1
        if memo is not None and seq in memo:
            hits += 1
            return memo[seq]
        total = 0
        for members in _all_sets_cached(seq):
            child = list(seq)
            child[0] = 0
            for p in members:
                child[p - 1] -= 1
            total += count(tuple(sorted((x for x in child if x > 0), reverse=True)))
        if memo is not None:
            memo[seq] = total
        return total

    total = count(key)
    return CountResult(total, hits, len(memo) if memo is not None else 0)
