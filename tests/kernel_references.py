"""Slow, literal versions of the graphicality kernels, kept as test oracles.

``erdos_gallai_reference`` sums min(k, d_i) afresh for every k,
``havel_hakimi_reference`` rebuilds and re-sorts the active list for every
focal node, ``molloy_reed_reference`` scans the residuals for every stub
it draws (``draw_stub_reference``) and runs the public ``cg_test`` on the
whole residual list after every connection, ``estimate_reference`` weighs
each draw by the branch sizes of ``walk_reference``'s labelled walk and
takes its standard error on ``Fraction``s (``float_sqrt_reference``),
``groupings_reference`` builds each child multiset of A(d) as a sorted
tuple and runs ``erdos_gallai_test`` on it, and ``walk_reference`` sorts the
residuals at every inner node of the construction tree, the star levels
just above the leaves included.  The library's kernels must agree with them
exactly.  ``parser_reference`` is the command line's argparse parser, which
the option table of ``graphreal.cli`` replaced; the table's parser must
read every argument list it accepts into the same namespace.
"""

import argparse
import math
from collections.abc import Iterator
from fractions import Fraction
from itertools import groupby

from graphreal.cli import _at_least, _forbid_spec
from graphreal.constrained import cg_test
from graphreal.core import (
    DegreeTooLarge,
    LabeledGraph,
    NotGraphical,
    RestartBudgetExceeded,
    as_residuals,
)
from graphreal.enumeration import _adjacency_sets, _groupings, _key, _nth_set, _sorted_view
from graphreal.graphicality import EgReport, NodeSelectionPolicy, erdos_gallai_test
from graphreal.sampling import (
    CountEstimate,
    MrRunStats,
    SplitMix64,
    _check_graphical,
)


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


def draw_stub_reference(residual, r):
    """The node of stub r, found by scanning the residuals in label order."""
    for v, count in enumerate(residual, start=1):
        if r < count:
            return v
        r -= count
    raise AssertionError("stub index out of range")


def molloy_reed_reference(d, seed, early_reject=False, budget=10_000_000, stream=0):
    """Molloy-Reed stub matching with ``cg_test`` after every connection."""
    degs = as_residuals(d)
    _check_graphical(degs)
    n = len(degs)
    rng = SplitMix64.stream(seed, stream)
    stats = MrRunStats()
    drawn = 0
    while True:
        residual = list(degs)
        remaining = sum(residual)
        adjacency = [set() for _ in range(n + 1)]
        fail = None
        while remaining > 0:
            if drawn >= budget:
                raise RestartBudgetExceeded(f"exceeded {budget} stub pairings", stats)
            drawn += 1
            i = draw_stub_reference(residual, rng.randrange(remaining))
            residual[i - 1] -= 1
            j = draw_stub_reference(residual, rng.randrange(remaining - 1))
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
            if early_reject and not (
                cg_test(residual, i, adjacency[i])
                and cg_test(residual, j, adjacency[j])
            ):
                fail = "cg_reject"
                break
        if fail is None:
            edges = [(u, v) for u in range(1, n + 1) for v in adjacency[u] if u < v]
            return LabeledGraph(n, edges), stats
        stats.restarts += 1
        stats.rejection_causes[fail] += 1


def estimate_reference(d, samples, seed) -> CountEstimate:
    """The importance-sampling estimate with every draw a labelled walk of
    the construction tree: each weight is the product of its branch sizes."""
    degs = as_residuals(d)
    _check_graphical(degs)
    weights = []
    for i in range(samples):
        rng = SplitMix64.stream(seed, i)
        _, sizes = next(walk_reference(degs, lambda k: rng.randrange(k) if k > 1 else 0))
        weights.append(math.prod(sizes))
    total, total_sq = sum(weights), sum(w * w for w in weights)
    if samples > 1:
        stderr = float_sqrt_reference(Fraction(
            total_sq * samples - total * total, samples * samples * (samples - 1)
        ))
    else:
        stderr = float("inf")
    return CountEstimate(Fraction(total, samples), stderr, samples)


def float_sqrt_reference(x: Fraction) -> float:
    """The square root of a nonnegative ``Fraction`` as a float, taken on
    the ``Fraction`` itself; inf if too large."""
    try:
        return math.sqrt(x)
    except OverflowError:  # x is beyond the float range, its root may not be
        try:
            return float(math.isqrt(x.numerator // x.denominator))
        except OverflowError:
            return math.inf


def groupings_reference(seq):
    """The groupings ``(picks, ways, child)`` of node 1 of the nonincreasing
    positive ``seq``, each child the sorted positive multiset it leaves."""
    classes, first = [], 2  # (degree, first position, size) of nodes 2..n
    for deg, run in groupby(seq[1:]):
        classes.append((deg, first, len(list(run))))
        first += classes[-1][2]
    room, choices = len(seq) - 1, [((), seq[0])]
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
        child = tuple(x for (deg, _, size), k in zip(classes, ks)
                      for x in [deg] * (size - k) + [deg - 1] * k if x > 0)
        if erdos_gallai_test(child).graphical:
            picks = tuple((first, size, k)
                          for (_, first, size), k in zip(classes, ks) if k)
            out.append((picks, math.prod(math.comb(size, k) for _, size, k in picks),
                        child))
    return tuple(out)


def walk_reference(degs, pick=None, names=None) -> Iterator[tuple[tuple, tuple[int, ...]]]:
    """Depth-first walk of the construction tree below the residuals ``degs``.

    Yields ``(edges, branch_sizes)`` at each leaf, ``branch_sizes`` holding
    the number of adjacency sets offered at each level of the path; a
    non-graphical ``degs`` yields nothing.  With ``pick`` None every set is
    taken in turn, in decreasing colex order; otherwise ``pick(k)`` draws an
    index into the ``k`` sets of each level, which ``_nth_set`` maps to a set
    without building A(d), down to one leaf.  Each edge is pushed once per
    tree node as a (min, max) pair of ``names[v]``; names leave the order as
    it is.  A leaf has no stub left.  The explicit stack has no depth limit.
    """
    if not erdos_gallai_test(degs).graphical:
        return
    residual = list(degs)
    names = range(len(residual) + 1) if names is None else names
    m = sum(residual) // 2  # a leaf has m edges
    edges: list[tuple[int, int]] = []
    # Per level: [focal, labels, later sets, current set, saved residual, size].
    stack: list[list] = []
    known: dict[tuple[int, ...], tuple] = {}  # sorted view -> _groupings
    while True:
        if len(edges) < m:
            labels, seq = _sorted_view(residual)
            if (level := known.get(seq)) is None:
                level = known[seq] = _groupings(_key(seq))
            size, groupings = level
            sets = (_adjacency_sets(groupings) if pick is None
                    else iter([_nth_set(groupings, pick(size))]))
            focal = labels[0]
            stack.append([focal, labels, sets, next(sets), residual[focal - 1], size])
        else:
            yield tuple(edges), tuple([level[5] for level in stack])
            # Undo levels until one has a next set, then move to it.
            while stack:
                level = stack[-1]
                focal, labels, sets, current, saved, _ = level
                residual[focal - 1] = saved
                for p in current:
                    residual[labels[p - 1] - 1] += 1
                del edges[-len(current):]
                level[3] = next(sets, None)
                if level[3] is not None:
                    break
                stack.pop()
            else:
                return
        focal, labels, _, current = stack[-1][:4]
        a = names[focal]
        for p in current:
            v = labels[p - 1]
            residual[v - 1] -= 1
            edges.append((a, b) if a < (b := names[v]) else (b, a))
        residual[focal - 1] = 0


def parser_reference() -> argparse.ArgumentParser:
    """The argparse parser of the command line, with the converters of
    ``graphreal.cli``; argparse reports their ValueError as a usage error."""
    parser = argparse.ArgumentParser(prog="graphreal")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("input", nargs="?", default="-")
        p.add_argument("-s", "--sequence")

    p_test = sub.add_parser("test")
    add_common(p_test)
    p_test.add_argument("--forbid", type=_forbid_spec)

    p_con = sub.add_parser("construct")
    add_common(p_con)
    p_con.add_argument(
        "--policy",
        choices=sorted(policy.value for policy in NodeSelectionPolicy),
        default="max",
    )

    p_enum = sub.add_parser("enumerate")
    add_common(p_enum)
    p_enum.add_argument("--limit", type=_at_least(0))
    p_enum.add_argument("--format", choices=["text", "jsonlines"], default="text")
    p_enum.add_argument("--threads", type=int, default=1)
    p_enum.add_argument("--ordered", action="store_true")

    p_count = sub.add_parser("count")
    add_common(p_count)
    for p in (p_test, p_enum, p_count):  # the subcommands that can ask the oracle
        p.add_argument("--oracle", action="store_true")

    p_sample = sub.add_parser("sample")
    add_common(p_sample)
    p_sample.add_argument("--method", choices=["weighted", "mr"], default="weighted")
    p_sample.add_argument("--samples", type=_at_least(1), default=1)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--early-reject", action="store_true")
    p_sample.add_argument("--format", choices=["text", "jsonlines"], default="text")

    p_est = sub.add_parser("estimate")
    add_common(p_est)
    p_est.add_argument("--samples", type=_at_least(1), default=1000)
    p_est.add_argument("--seed", type=int, default=None)
    p_est.add_argument("--with-exact", action="store_true")
    return parser
