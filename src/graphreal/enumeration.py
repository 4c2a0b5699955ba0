"""Exhaustive construction of every labeled realization, and exact counts.

Each level of the construction tree picks the node of largest residual
degree (smallest label on ties), offers every graphicality-preserving
adjacency set for it in decreasing colex order and descends on the reduced
residuals, producing each labeled graph once.  A(d) is derived from its
groupings: how many members a set takes from each class of equal degree.
They are keyed by ``_key``: entry v counts the nodes of degree v, entry 0 is
0 and the last entry is nonzero.  ``_walk`` serves enumeration, ``_draw``
the weighted sampler; the count and the estimate descend the keys alone.
The walk gives each leaf's edges as integer codes: the command line sorts
them and writes the text of each code, made once, and ``_graphs`` decodes
each code once into the (min, max) pair that the library's graphs share.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from itertools import combinations, takewhile
from math import comb, prod

from .core import AdjacencySet, DegreeSequence, LabeledGraph, NotGraphical, as_residuals
from .core import InvalidArgument, _integers, _Record
from .graphicality import _eg_counts, _residual_counts, erdos_gallai_test


class CountResult(_Record):
    __slots__ = ("count", "memo_hits", "memo_entries")


def _focal_sequence(d) -> tuple[int, ...]:
    """The positive part of ``d``, which must be nonincreasing (else
    InvalidDegree), graphical and nonzero (else NotGraphical)."""
    seq = tuple(x for x in DegreeSequence(d).degrees if x > 0)
    if not seq or not erdos_gallai_test(seq).graphical:
        raise NotGraphical(f"no adjacency set of node 1 keeps {list(seq)} graphical")
    return seq


def rightmost_adjacency_set(d) -> AdjacencySet:
    """Colex-largest graphicality-preserving adjacency set of node 1.

    Connects node 1 to node n first (never breaks graphicality), then scans
    k = n-1 downwards, keeping each tentative connection iff the constrained
    graphicality test passes with the kept members as forbidden connections.
    ``d`` must be nonincreasing; nodes of degree 0 are never members.
    """
    from .constrained import cg_test  # loaded only where it is used
    degs = _focal_sequence(d)
    n = len(degs)
    residual = list(degs)
    residual[0] -= 1
    residual[n - 1] -= 1
    members = [n]
    k = n - 1
    while len(members) < degs[0]:
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


def _key(degrees) -> tuple[int, ...]:
    """``(0, c_1, ..., c_top)``: c_v of ``degrees`` (>= 0) equal v; ``()`` if none."""
    counts = _residual_counts(degrees)[1:]
    return (0, *counts) if counts else ()


def _groupings(key):
    """|A(d)| and the graphicality-preserving groupings of node 1's neighbours.

    ``key`` is the ``_key`` of a nonempty multiset: node 1 has its top
    degree, and nodes 2..n fall into classes of equal degree, highest
    first.  A grouping is ``(picks, ways, child)``: ``picks`` holds
    ``(first position, size, k)`` for each class giving k >= 1 members,
    ``ways`` = prod C(size, k) counts the adjacency sets with those picks,
    and ``child`` is the key of the multiset all of them leave.  Nothing is
    cached: each caller keeps what it still needs.
    """
    top = len(key) - 1
    classes, first = [], 2  # (degree, first position, size) of nodes 2..n
    for deg in range(top, 0, -1):
        if size := key[deg] - (deg == top):
            classes.append((deg, first, size))
            first += size
    # Choose k class by class, keeping the choices that the classes still to
    # come can complete to d_1 members.
    room, choices = first - 2, [((), top)]
    for _, _, size in classes:
        room -= size
        choices = [
            (ks + (k,), left - k)
            for ks, left in choices
            for k in range(min(size, left) + 1)
            if left - k <= room
        ]
    out = []
    for ks, _ in choices:
        child = [0] * (top + 1)
        for (deg, _, size), k in zip(classes, ks):
            child[deg] += size - k
            child[deg - 1] += k
        child[0] = 0
        while child and not child[-1]:
            child.pop()
        if not _eg_counts(child):  # the sum of child is even
            picks = tuple((first, size, k)
                          for (_, first, size), k in zip(classes, ks) if k)
            out.append((picks, prod(comb(size, k) for _, size, k in picks), tuple(child)))
    return sum(ways for _, ways, _ in out), tuple(out)


def _sets_of(picks: tuple) -> Iterator[tuple[int, ...]]:
    """The sets of one grouping, members decreasing, in decreasing colex
    order: the class of the highest positions varies slowest."""
    *inner, (first, size, k) = picks
    parts = combinations(range(first + size - 1, first - 1, -1), k)
    if not inner:
        return parts
    return (part + rest for part in parts for rest in _sets_of(inner))


def _adjacency_sets(groupings) -> Iterator[tuple[int, ...]]:
    """Members (positions, decreasing) of every set of the ``groupings`` of
    a multiset, in decreasing colex order, merged lazily."""
    runs = [_sets_of(picks) for picks, _, _ in groupings]
    return runs[0] if len(runs) == 1 else heapq.merge(*runs, reverse=True)


def _nth_set(groupings, r: int) -> tuple[int, ...]:
    """A bijection from range(|A|) onto the sets A of the ``groupings``,
    members decreasing: ``r`` falls in one grouping, and the digits of its
    offset there, in the mixed radix of the C(size, k), rank one k-subset
    of each class."""
    for picks, ways, _ in groupings:
        if r < ways:
            break
        r -= ways
    members = []
    for first, size, k in reversed(picks):
        r, rank = divmod(r, comb(size, k))
        x = size
        for j in range(k, 0, -1):  # the combinatorial number system
            x -= 1
            while comb(x, j) > rank:
                x -= 1
            members.append(first + x)
            rank -= comb(x, j)
    return tuple(members)


def _draw(degs, pick) -> tuple[tuple, tuple[int, ...]]:
    """``(edges, branch_sizes)`` of one root-to-leaf path of the tree below
    the graphical residuals ``degs``: at each level ``pick(k)`` draws an
    index into its ``k`` sets, which ``_nth_set`` maps to a set without
    building A(d).  Each edge is a (min, max) pair of labels."""
    residual, edges, sizes = list(degs), [], []
    while True:
        labels, seq = _sorted_view(residual)
        if not seq:
            return tuple(edges), tuple(sizes)
        size, groupings = _groupings(_key(seq))
        sizes.append(size)
        a = labels[0]
        for p in _nth_set(groupings, pick(size)):
            b = labels[p - 1]
            residual[b - 1] -= 1
            edges.append((a, b) if a < b else (b, a))
        residual[a - 1] = 0


def all_adjacency_sets(d) -> list[AdjacencySet]:
    """The set A(d) for node 1, ordered colex-decreasing starting at A_R.
    ``d`` must be nonincreasing; nodes of degree 0 are never members."""
    _, groupings = _groupings(_key(_focal_sequence(d)))
    return [AdjacencySet(1, m[::-1]) for m in _adjacency_sets(groupings)]


def _sorted_view(residual):
    """Surviving labels ordered by (residual desc, label asc), plus degrees."""
    # A stable sort keeps labels ascending among equal residuals.
    order = sorted(range(len(residual)), key=residual.__getitem__, reverse=True)
    degs = tuple(takewhile(bool, map(residual.__getitem__, order)))
    return [v + 1 for v in order[:len(degs)]], degs


_KEEP = 1 << 16  # members and pairs that the set lists of one walk may hold


def _walk(degs, names=None) -> Iterator[tuple[list[int], tuple[int, ...]]]:
    """Depth-first walk of the construction tree below the residuals ``degs``.

    Yields ``(edges, branch_sizes)`` at each leaf, ``branch_sizes`` holding
    the number of adjacency sets offered at each level of the path; a
    non-graphical ``degs`` yields nothing.  Every set is taken in turn, in
    decreasing colex order.  ``edges`` is a new list, the caller's to sort
    or keep, of one int per edge: a * N + b for the names a < b of its ends,
    ``names[v]`` (v itself without names), where N is the largest name + 1,
    so the ints sort as the pairs do.  Names leave the order of the leaves
    as it is.

    A level whose top residual equals the edges left is forced: the other
    positive residuals are all 1, and the one set is the star of them all.
    Every level offers its sets lazily from ``_offers``, each with the
    position pairs that finish its path when its child is such a star, so
    no forced level is ever descended into (a root that is a star yields its
    one leaf itself); the list is kept in ``known``, one per multiset, once
    all of its sets were offered, and later levels on that multiset walk the
    list.  Most levels of a walk stand on residuals that an earlier level
    stood on, so ``views`` keeps, by residuals, the sorted view of a level
    with the names of its positions: a level sorts and maps its positions to
    names only on residuals not seen before.
    The kept lists hold at most ``_KEEP`` members and pairs in all, and the
    views are dropped whenever they hold more than ``_KEEP`` labels, so
    memory stays bounded on a huge A(d) or a long walk.  The explicit stack
    has no depth limit.
    """
    if not erdos_gallai_test(degs).graphical:
        return
    residual = list(degs)
    names = range(len(residual) + 1) if names is None else names
    base = max(names) + 1
    m = sum(residual) // 2  # a leaf has m edges
    if not m:
        yield [], ()
        return
    edges = []
    # Per level: [labels, names (by position p), offers, set, top, star_sizes].
    stack = []
    known = {}  # multiset -> its _offers
    views = {}  # residuals -> (labels, names, multiset) of a level on them
    room = [_KEEP]  # members and pairs the lists may still take
    star_sizes = (1,)  # the branch sizes of a leaf one forced level below
    while True:
        if (view := views.get(state := tuple(residual))) is None:
            if len(views) * len(residual) > _KEEP:
                views.clear()
            labels, seq = _sorted_view(residual)
            labels.insert(0, 0)
            view = views[state] = labels, list(map(names.__getitem__, labels)), seq
        labels, named, seq = view
        if (offers := known.get(seq)) is not None:
            size = len(offers)
        else:
            size, groupings = _groupings(_key(seq))
            offers = _offers(seq, _adjacency_sets(groupings), known, room)
        # A star root's one child has no edges, so no forced level below.
        star_sizes = (*star_sizes[:-1], size, 1) if m > seq[0] else (size,)
        stack.append([labels, named, iter(offers), (), seq[0], star_sizes])
        # Undo levels until one has a next set; finish each star child at
        # once, and descend into the first other child.
        while stack:
            level = stack[-1]
            labels, named, offers, current, top, star_sizes = level
            if current:
                residual[labels[1] - 1] = top
                for p in current:
                    residual[labels[p] - 1] += 1
                del edges[-len(current):]
            for current, finish in offers:
                if finish is None:
                    break
                yield [*edges, *[a * base + b if (a := named[p]) < (b := named[q])
                                 else b * base + a for p, q in finish]], star_sizes
            else:
                stack.pop()
                continue
            level[3] = current
            a = named[1]
            for p in current:
                residual[labels[p] - 1] -= 1
                edges.append(a * base + b if a < (b := named[p]) else b * base + a)
            residual[labels[1] - 1] = 0
            break
        else:
            return


def _offers(seq, sets, known, room):
    """Each of ``sets``, the sets of the multiset ``seq``, with the position
    pairs that finish its path if its child is a star or has no edges (its
    own edges, then the star's), else None.  The list of them goes into
    ``known`` once every set was offered, its members and pairs taken from
    ``room[0]``; a list that outgrows the room is dropped and gives its share
    back, so its multiset is offered afresh at each visit."""
    left = sum(seq) // 2 - seq[0]  # edges of each child
    offered, held = [], 0
    for members in sets:
        child = [0, *seq[1:]]
        for p in members:
            child[p - 1] -= 1
        finish = None
        if max(child) == left:
            hub = child.index(left) + 1
            finish = (*[(1, p) for p in members],
                      *[(hub, q) for q in range(len(seq), 1, -1) if child[q - 1] and q != hub])
        if offered is not None:
            cost = len(finish or members)
            if cost <= room[0]:
                room[0] -= cost
                held += cost
                offered.append((members, finish))
            else:
                room[0] += held
                offered = None
        yield members, finish
    if offered is not None:
        known[seq] = offered


def _graphs(degs):
    """``(graph, branch_sizes)`` at each leaf of ``_walk(degs)``: each edge
    code is decoded once, into a pair that every later graph shares."""
    n, pairs, graph = len(degs), {}, LabeledGraph._trusted
    for codes, sizes in _walk(degs):
        try:
            g = graph(n, map(pairs.__getitem__, codes))
        except KeyError:
            g = graph(n, [pairs.setdefault(c, divmod(c, n + 1)) for c in codes])
        yield g, sizes


def enumerate_all(d) -> Iterator[LabeledGraph]:
    """Lazily yield every labeled simple graph realizing d, each exactly once.

    Non-graphical input yields nothing.  Order is deterministic: depth
    first, adjacency sets in decreasing colex order at every level.
    """
    for g, _ in _graphs(as_residuals(d)):
        yield g


def enumerate_all_parallel(
    d, threads: int = 1, ordered: bool = True
) -> Iterator[LabeledGraph]:
    """Serial alias of :func:`enumerate_all`, kept for compatibility.

    ``threads`` and ``ordered`` are ignored: the stream is always the
    single-threaded one, in its deterministic order.  ``threads`` must
    still be an integer, else InvalidArgument.
    """
    _integers((threads,), InvalidArgument)
    return enumerate_all(d)


def count_realizations(d) -> CountResult:
    """Exact number of labeled realizations: count(d) is the sum over the
    groupings of node 1's neighbours of ways * count(child).

    The memo key is the ``_key`` of the degree multiset, its counts of nodes
    per degree: the count is invariant under relabeling (any permutation of
    labels bijects the realization sets), so it depends only on the
    multiset.  The multisets still to count are kept on an explicit stack,
    so long chains do not hit Python's recursion limit.  A multiset's
    groupings are made when it is first expanded and dropped once its count
    is memoised, so the call holds only those of the multisets on its stack,
    and nothing once it returns.
    """
    degs = as_residuals(d)
    if not erdos_gallai_test(degs).graphical:
        return CountResult(0, 0, 0)
    key = _key(degs)
    memo = {(): 1}
    held = {}  # groupings of multisets not yet counted
    lookups = 0  # references to nonempty children
    stack = [key] if key else []
    while stack:
        seq = stack[-1]
        if seq in memo:  # a multiset may be pushed more than once
            stack.pop()
            continue
        if (groupings := held.get(seq)) is None:
            groupings = held[seq] = _groupings(seq)[1]
        pending = [child for _, _, child in groupings if child not in memo]
        if pending:
            stack += pending
            continue
        stack.pop()
        del held[seq]
        memo[seq] = sum(ways * memo[child] for _, ways, child in groupings)
        lookups += sum(1 for _, _, child in groupings if child)
    entries = len(memo) - 1  # the empty multiset is not an entry
    # Each multiset below the root is counted on its first reference, and
    # every later reference is answered from the memo.
    return CountResult(memo[key], lookups - max(entries - 1, 0), entries)
