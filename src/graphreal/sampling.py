"""Samplers: weighted tree descent with exact probabilities, and stub matching.

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
from .constrained import _cg_counts
from .graphicality import _residual_counts, erdos_gallai_test

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Minimal splittable 64-bit generator (splitmix64)."""

    def __init__(self, state: int):
        self._state = state & _MASK

    @classmethod
    def stream(cls, seed: int, index: int) -> "SplitMix64":
        return cls._stream(*_integers((seed, index), InvalidArgument))

    @classmethod
    def _stream(cls, seed: int, index: int) -> "SplitMix64":  # checked ints
        return cls(_mix64(seed & _MASK) ^ _mix64((index + 1) & _MASK))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix64(self._state)

    def randrange(self, n: int) -> int:
        # Exactly uniform by rejection; a try joins ceil(bits / 64) words above 2**64.
        words = 1 if n <= 1 << 64 else -(-(n - 1).bit_length() // 64)
        limit = (1 << 64 * words) - ((1 << 64 * words) % n)
        while True:
            u = self.next_u64()
            for _ in range(1, words):
                u = u << 64 | self.next_u64()
            if u < limit:
                return u % n


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


def _draw(degs, rng: SplitMix64):
    """``(edges, branch_sizes)`` of one root-to-leaf path of the tree,
    uniform over the adjacency sets at each level; NotGraphical if there is
    none.  A level with a single set draws nothing from ``rng``.
    """
    from .enumeration import _walk
    for leaf in _walk(degs, lambda k: rng.randrange(k) if k > 1 else 0):
        return leaf
    raise NotGraphical(f"{list(degs)} is not graphical")


def sample_weighted(d, seed: int, stream: int = 0) -> RealizationSample:
    """Walk the construction tree root to leaf, uniform at each level.

    The returned probability is exact: the product of the reciprocals of
    the branch counts along the path.  Deterministic given seed and
    stream index (one stream per sample in a batch).
    """
    from fractions import Fraction
    degs = as_residuals(d)
    edges, branch_sizes = _draw(degs, SplitMix64.stream(seed, stream))
    return RealizationSample(
        LabeledGraph._trusted(len(degs), edges),
        Fraction(1, math.prod(branch_sizes)),
        branch_sizes,
    )


def estimate_count(d, samples: int, seed: int) -> CountEstimate:
    """Unbiased estimate of the number of realizations: the mean of 1/P(G).

    A draw descends degree multisets, kept as counts per degree, not
    labelled residuals: at each level it draws the index of one of the
    |A(d)| sets, as ``sample_weighted`` does, and moves to the multiset that
    set leaves.  Draws and |A(d)| depend only on the multiset, so each weight
    equals that of the labelled walk for the same seed.

    Each draw uses its own RNG stream, so batches may run concurrently and
    merge associatively.  The standard error is the sample standard
    deviation of the weights divided by sqrt(samples); it is computed
    exactly and only the final square root is a float, so weights far
    beyond the float range cannot overflow it.
    """
    from fractions import Fraction
    from .enumeration import _groupings, _key
    samples, seed = _integers((samples, seed), InvalidArgument)
    if samples < 1:
        raise InvalidArgument(f"samples must be >= 1, got {samples}")
    degs = as_residuals(d)
    _check_graphical(degs)
    root = _key(degs)
    total = 0
    total_sq = 0
    for i in range(samples):
        rng = SplitMix64._stream(seed, i)
        key, w = root, 1  # w ends as the product of |A(d)|: exactly 1 / P(G)
        while key:
            size, groupings = _groupings(key)
            r = rng.randrange(size) if size > 1 else 0
            w *= size
            for _, ways, key in groupings:  # the grouping r falls in
                if r < ways:
                    break
                r -= ways
        total += w
        total_sq += w * w
    estimate = Fraction(total, samples)
    if samples > 1:
        # variance / samples, with variance = (S2 - S1^2 / N) / (N - 1)
        stderr = _float_sqrt(Fraction(
            total_sq * samples - total * total, samples * samples * (samples - 1)
        ))
    else:
        stderr = float("inf")
    return CountEstimate(estimate, stderr, samples)


def _float_sqrt(x: Fraction) -> float:
    """The square root of a nonnegative fraction as a float; inf if too large."""
    try:
        return math.sqrt(x)
    except OverflowError:  # x is beyond the float range, its root may not be
        try:
            return float(math.isqrt(x.numerator // x.denominator))
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
    from .enumeration import _walk
    degs = as_residuals(d)
    for edges, branch_sizes in _walk(degs):
        yield LabeledGraph._trusted(len(degs), edges), Fraction(1, math.prod(branch_sizes))


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
    The budget caps the total number of stub pairings drawn across
    restarts.
    """
    (budget,) = _integers((budget,), InvalidArgument)
    degs = as_residuals(d)
    _check_graphical(degs)
    n = len(degs)
    rng = SplitMix64.stream(seed, stream)
    stats = MrRunStats()
    drawn = 0
    while True:
        residual = list(degs)
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
            i = _draw_stub(residual, rng.randrange(remaining))
            residual[i - 1] -= 1
            j = _draw_stub(residual, rng.randrange(remaining - 1))
            residual[i - 1] += 1
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
                # hold.
                if not (
                    _cg_counts(counts, residual, i, adjacency[i])
                    and _cg_counts(counts, residual, j, adjacency[j])
                ):
                    fail = "cg_reject"
                    break
        if fail is None:
            edges = [(u, v) for u in range(1, n + 1) for v in adjacency[u] if u < v]
            return LabeledGraph._trusted(n, edges), stats
        stats.restarts += 1
        stats.rejection_causes[fail] += 1


def _draw_stub(residual: list[int], r: int) -> int:
    for v, count in enumerate(residual, start=1):
        if r < count:
            return v
        r -= count
    raise AssertionError("stub index out of range")

