"""Samplers: weighted tree descent with exact probabilities, and Molloy-Reed
stub matching, whose early rejection imports the CG kernel of ``constrained``.

The RNG is an explicit splitmix64 generator so that identical seeds give
bit-identical samples everywhere: stream ``i`` of seed ``s`` starts from
``mix64(mix64(s) ^ mix64(i + 1))`` and advances by the golden-ratio
increment, finalizing each output with the splitmix64 mixer.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .core import (
    InvalidArgument,
    LabeledGraph,
    NotGraphical,
    RestartBudgetExceeded,
    _integers,
    _Record,
    as_residuals,
)
from .graphicality import _residual_counts, erdos_gallai_test

_WORD = 1 << 64
_MASK = _WORD - 1
_GOLDEN = 0x9E3779B97F4A7C15
_ENTRIES = 1 << 14  # multisets an estimate_count table holds before it is emptied


def _mix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Minimal splittable 64-bit generator (splitmix64)."""

    def __init__(self, state: int):
        (state,) = _integers((state,), InvalidArgument)
        self._state = state & _MASK

    @classmethod
    def stream(cls, seed: int, index: int) -> "SplitMix64":
        seed, index = _integers((seed, index), InvalidArgument)
        return cls(_mix64(seed) ^ _mix64(index + 1))  # _mix64 reduces mod 2**64

    def next_u64(self) -> int:
        return self.randrange(_WORD)

    def randrange(self, n: int) -> int:
        # Exactly uniform by rejection; a try joins ceil(bits / 64) words above
        # 2**64.  Up to 2**64 a try advances the state here, as next_u64 would,
        # so that a draw takes no next_u64 frame.
        if type(n) is not int or n < 1:
            raise InvalidArgument(f"randrange needs an int bound >= 1, got {n!r}")
        if n > _WORD:
            words = -(-(n - 1).bit_length() // 64)
            limit = (1 << 64 * words) - ((1 << 64 * words) % n)
            while True:
                u = 0
                for _ in range(words):
                    u = u << 64 | self.next_u64()
                if u < limit:
                    return u % n
        limit = _WORD - _WORD % n
        while True:
            self._state = z = (self._state + _GOLDEN) & _MASK
            z = _mix64(z)
            if z < limit:
                return z % n


class RealizationSample(_Record):
    """One realization with its exact generation probability."""

    __slots__ = ("graph", "probability", "branch_sizes")


class CountEstimate(_Record):
    __slots__ = ("estimate", "stderr", "samples")


class MrRunStats(_Record):
    """Counters of one Molloy-Reed run, updated in place, so not hashable."""

    __slots__ = ("restarts", "rejection_causes", "stub_connections_made")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, restarts=0, rejection_causes=None, stub_connections_made=0):
        self.restarts = restarts
        self.rejection_causes = (rejection_causes if rejection_causes is not None
                                 else {"self_loop": 0, "multi_edge": 0, "cg_reject": 0})
        self.stub_connections_made = stub_connections_made


def _check_graphical(degs: tuple[int, ...]) -> None:
    if not erdos_gallai_test(degs).graphical:
        raise NotGraphical(f"{list(degs)} is not graphical")


def sample_weighted(d, seed: int, stream: int = 0) -> RealizationSample:
    """Walk the construction tree root to leaf, uniform at each level.

    The returned probability is exact: the ``Fraction`` 1 / w, where the
    weight w is the product of the branch counts along the path.
    Deterministic given seed and stream index (one stream per sample in a
    batch).
    """
    graph, weight, branch_sizes = _weighted(d, seed, stream)
    from fractions import Fraction
    return RealizationSample(graph, Fraction(1, weight), branch_sizes)


def _weighted(d, seed, stream):
    """``sample_weighted``'s draw as ``(graph, weight, branch_sizes)``, with
    the weight 1 / P(G) an int: the product of ``branch_sizes``."""
    from .enumeration import _draw
    degs = as_residuals(d)
    rng = SplitMix64.stream(seed, stream)
    _check_graphical(degs)
    edges, branch_sizes = _draw(degs, lambda k: rng.randrange(k) if k > 1 else 0)
    return LabeledGraph._trusted(len(degs), edges), math.prod(branch_sizes), branch_sizes


def estimate_count(d, samples: int, seed: int) -> CountEstimate:
    """Unbiased estimate of the number of realizations: the mean of 1/P(G).

    A draw descends degree multisets, kept as counts per degree, not
    labelled residuals: at each level it draws the index of one of the
    |A(d)| sets, as ``sample_weighted`` does, and moves to the multiset that
    set leaves.  Draws and |A(d)| depend only on the multiset, so each weight
    equals that of ``sample_weighted``'s descent for the same seed.

    The call keeps its own table of the multisets its draws reach, filled
    as they first reach them.  A multiset with several groupings holds its
    size, the running totals of its groupings' ways and the keys of their
    children, not the groupings, and a draw picks its child by bisection.
    A multiset that has one grouping, as has every multiset below it,
    holds the fixed weight that every path from it has, so a draw that
    reaches it stops there: on 1^n each draw stops at once.  The table
    holds at most about ``_ENTRIES`` multisets; when full it is emptied and
    filled afresh, which changes no weight.

    Draw ``i`` uses RNG stream ``i``, so batches may run concurrently and
    merge associatively, and stopping a draw early changes no other draw.
    The estimate is the exact ``Fraction`` of the sum of the weights over
    ``samples``.  The standard error is the sample standard deviation of
    the weights divided by sqrt(samples); it is computed exactly on ints
    and only the final square root is a float, so weights far beyond the
    float range cannot overflow it.
    """
    total, stderr, samples = _estimate(d, samples, seed)
    from fractions import Fraction
    return CountEstimate(Fraction(total, samples), stderr, samples)


def _estimate(d, samples, seed):
    """``estimate_count`` on ints: ``(total, stderr, samples)``, where
    ``total`` is the sum of the weights, so the estimate is total / samples."""
    from bisect import bisect_right
    from .enumeration import _key
    samples, seed = _integers((samples, seed), InvalidArgument)
    if samples < 1:
        raise InvalidArgument(f"samples must be >= 1, got {samples}")
    degs = as_residuals(d)
    _check_graphical(degs)
    root = _key(degs)
    table = {(): (1, None, None)}
    total = total_sq = 0
    rng, mixed_seed = SplitMix64(0), _mix64(seed)
    for i in range(samples):
        rng._state = mixed_seed ^ _mix64(i + 1)  # SplitMix64.stream(seed, i)
        key, w = root, 1  # w ends as the product of |A(d)|: exactly 1 / P(G)
        while True:
            size, totals, children = table.get(key) or _node(table, key)
            w *= size
            if totals is None:
                break
            r = rng.randrange(size) if size > 1 else 0
            key = children[bisect_right(totals, r)]
        total += w
        total_sq += w * w
    # variance / samples, with variance = (S2 - S1^2 / N) / (N - 1)
    stderr = (_float_sqrt(total_sq * samples - total * total,
                          samples * samples * (samples - 1))
              if samples > 1 else math.inf)
    return total, stderr, samples


def _node(table: dict, key: tuple[int, ...]) -> tuple:
    """The entry of ``key`` in an ``estimate_count`` table, made if missing.

    An entry is ``(weight, None, None)`` where the multiset and every one
    below it has a single grouping, so that every path from it has that
    weight; otherwise it is ``(size, totals, children)``, with ``totals``
    the running sums of the ways of ``_groupings(key)`` and ``children``
    the keys of their children, the only part of a grouping a draw reads,
    so the groupings themselves are dropped once made.  A chain of single
    groupings is followed in a loop, not by recursion: 1^3200 is 1,600
    levels deep.  Only the top of a chain with a fixed weight is kept, so
    1^n keeps one weight, not one per level.
    """
    from itertools import accumulate
    from .enumeration import _groupings
    if len(table) >= _ENTRIES:  # every entry is a function of its key
        table.clear()
        table[()] = (1, None, None)
    top, chain = key, []  # (key, size, child) of the single groupings from ``top`` down
    while key not in table:
        size, groupings = _groupings(key)
        if len(groupings) > 1:
            table[key] = (size, tuple(accumulate(ways for _, ways, _ in groupings)),
                          tuple(child for _, _, child in groupings))
            break
        child = groupings[0][2]
        chain.append((key, size, child))
        key = child
    weight, totals, _ = table[key]
    if totals is None:
        table[top] = (weight * math.prod(size for _, size, _ in chain), None, None)
    else:
        for key, size, child in chain:
            table[key] = (size, (size,), (child,))
    return table[top]


def _float_sqrt(num: int, den: int) -> float:
    """The square root of num / den >= 0 as a float; inf if too large."""
    try:
        return math.sqrt(num / den)
    except OverflowError:  # num / den is beyond the float range; its root may not be
        try:
            return float(math.isqrt(num // den))
        except OverflowError:
            return math.inf


def enumerate_with_probabilities(d) -> Iterator[tuple[LabeledGraph, Fraction]]:
    """Every realization together with its weighted-sampler probability.

    Walks the whole construction tree depth first; the probability of a
    leaf is the product of the reciprocals of the branch counts along its
    path, so summing the probabilities over the full stream yields exactly
    1 for any graphical sequence.
    """
    from fractions import Fraction
    from .enumeration import _graphs
    for g, branch_sizes in _graphs(as_residuals(d)):
        yield g, Fraction(1, math.prod(branch_sizes))


def _stub_tree(residual) -> list[int]:
    """A Fenwick tree (Fenwick 1994) over ``residual``, padded with nodes of
    residual 0 to a power of two above n, so a descent needs no bound check.  O(n)."""
    size = 1 << len(residual).bit_length()
    tree = [0, *residual] + [0] * (size - len(residual))
    for k in range(1, size):
        tree[k + (k & -k)] += tree[k]
    return tree


def _take_stub(tree: list[int], r: int) -> int:
    """Take stub r out of ``tree`` and return its node in O(log n): the
    first v with r < r_1 + ... + r_v, 0 <= r < r_1 + ... + r_n.

    Below the root, the nodes whose range holds v are those where the
    descent does not step right, so the stub leaves them there.
    """
    v, step = 0, len(tree) >> 1  # tree[2 * step], the root, is never read
    while step:
        k = v + step
        if tree[k] <= r:
            v = k
            r -= tree[k]
        else:
            tree[k] -= 1
        step >>= 1
    return v + 1


def molloy_reed_sample(
    d,
    seed: int,
    early_reject: bool = False,
    budget: int = 10_000_000,
    stream: int = 0,
) -> tuple[LabeledGraph, MrRunStats]:
    """Uniform sampling by random stub pairing with restart on conflicts.

    Stubs are drawn uniformly irrespective of their node; a self-loop or
    duplicate edge abandons the attempt.  With ``early_reject`` the CG test
    runs after every connection i-j, centered on i first (the endpoint
    whose stub was drawn first) then on j, with the node's current
    neighbours as its forbidden set; a failure restarts immediately.  The
    test reads ``counts[v]``, the number of nodes of residual v, which each
    connection updates in O(1), so it costs O(max degree + neighbours).
    A stub is drawn in O(log n) from a Fenwick tree over the residuals.
    The budget caps the total number of stub pairings drawn across
    restarts.  Only ``early_reject`` imports ``constrained``.
    """
    (budget,) = _integers((budget,), InvalidArgument)
    degs = as_residuals(d)
    _check_graphical(degs)
    if early_reject:
        from .constrained import _cg_counts
    n = len(degs)
    rng = SplitMix64.stream(seed, stream)
    stats = MrRunStats()
    drawn = 0
    while True:
        residual = list(degs)
        tree = _stub_tree(degs)  # so a failed attempt needs no stub put back
        counts = _residual_counts(degs) if early_reject else None
        remaining = sum(residual)
        adjacency: list[set[int]] = [set() for _ in range(n + 1)]
        fail: str | None = None
        while remaining > 0:
            if drawn >= budget:
                raise RestartBudgetExceeded(
                    f"exceeded {budget} stub pairings", stats
                )
            drawn += 1
            i = _take_stub(tree, rng.randrange(remaining))
            j = _take_stub(tree, rng.randrange(remaining - 1))
            if i == j:
                fail = "self_loop"
                break
            if j in adjacency[i]:
                fail = "multi_edge"
                break
            residual[i - 1] -= 1
            residual[j - 1] -= 1
            remaining -= 2
            adjacency[i].add(j)
            adjacency[j].add(i)
            stats.stub_connections_made += 1
            if early_reject:
                for v in (i, j):
                    counts[residual[v - 1] + 1] -= 1
                    counts[residual[v - 1]] += 1
                # The input passed EG, so d_i <= n-1, and an attempt stops
                # at its first multi-edge, so a node's residual never
                # exceeds its non-neighbours: the CG test's preconditions
                # hold.  With i and j at residual 0, j's verdict is i's.
                if not (
                    _cg_counts(counts, residual, i, adjacency[i])
                    and (residual[i - 1] == residual[j - 1] == 0
                         or _cg_counts(counts, residual, j, adjacency[j]))
                ):
                    fail = "cg_reject"
                    break
        if fail is None:
            edges = [(u, v) for u in range(1, n + 1) for v in adjacency[u] if u < v]
            return LabeledGraph._trusted(n, edges), stats
        stats.restarts += 1
        stats.rejection_causes[fail] += 1
