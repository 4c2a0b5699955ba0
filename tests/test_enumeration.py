import gc
import itertools
import math
import random
import tracemalloc

import pytest

from helpers import (
    HH_GAP_COUNT,
    HH_GAP_SEQUENCE,
    canonical_set,
    graphical_family,
    recursion_headroom,
    walk_pairs,
)
from kernel_references import walk_reference

from graphreal import constrained, enumeration, sampling
from graphreal.core import InvalidDegree, NotGraphical, graph_degree_sequence
from graphreal.constrained import cg_test, colex_less
from graphreal.enumeration import (
    _draw,
    _sorted_view,
    _walk,
    all_adjacency_sets,
    count_realizations,
    enumerate_all,
    enumerate_all_parallel,
    rightmost_adjacency_set,
)
from graphreal.graphicality import erdos_gallai_test
from graphreal.oracle import OracleQuery, oracle_enumerate


class TestRightmostAdjacencySet:
    @pytest.mark.parametrize(
        "seq,expected",
        [
            ((1, 1), (2,)),
            ((2, 2, 2, 2), (3, 4)),
            ((3, 3, 2, 2, 2, 2, 2, 2), (6, 7, 8)),
        ],
    )
    def test_examples(self, seq, expected):
        assert rightmost_adjacency_set(seq).members == expected

    def test_not_graphical(self):
        with pytest.raises(NotGraphical):
            rightmost_adjacency_set((3, 2, 1))

    def test_zero_degree_node_is_never_a_member(self):
        assert rightmost_adjacency_set((1, 1, 0)).members == (2,)
        assert rightmost_adjacency_set((2, 2, 2, 0)).members == (2, 3)

    def test_rejects_increasing_input(self):
        with pytest.raises(InvalidDegree):
            rightmost_adjacency_set((1, 2, 1))

    def test_first_of_all_adjacency_sets(self):
        # The paper's CG scan and the degree-class groupings agree on A_R.
        for seq in graphical_family(max_n=7):
            assert rightmost_adjacency_set(seq) == all_adjacency_sets(seq)[0], seq

    def test_colex_maximality(self):
        # No adjacency set colex-greater than A_R preserves graphicality.
        for seq in graphical_family(max_n=6):
            ar = rightmost_adjacency_set(seq)
            others = range(2, len(seq) + 1)
            for cand in itertools.combinations(others, seq[0]):
                if colex_less(ar, type(ar)(1, cand)):
                    residual = list(seq)
                    residual[0] = 0
                    for v in cand:
                        residual[v - 1] -= 1
                    bad = min(residual) < 0 or not erdos_gallai_test(
                        tuple(sorted(residual, reverse=True))
                    ).graphical
                    assert bad, (seq, cand)

    def test_first_connection_never_breaks_graphicality(self):
        # Step-I claim: node 1 can always connect to node n.
        for seq in graphical_family(max_n=7):
            n = len(seq)
            residual = list(seq)
            residual[0] -= 1
            residual[n - 1] -= 1
            assert cg_test(residual, 1, {n}), seq


class TestAllAdjacencySets:
    @pytest.mark.parametrize(
        "seq,expected",
        [
            ((2, 2, 2, 2), [(3, 4), (2, 4), (2, 3)]),
            ((2, 2, 1, 1), [(2, 4), (2, 3)]),
            ((1, 1), [(2,)]),
        ],
    )
    def test_examples(self, seq, expected):
        assert [a.members for a in all_adjacency_sets(seq)] == expected

    def test_zero_degree_node_is_never_a_member(self):
        assert [a.members for a in all_adjacency_sets((2, 2, 2, 0))] == [(2, 3)]

    def test_rejects_increasing_input(self):
        with pytest.raises(InvalidDegree):
            all_adjacency_sets((1, 1, 2, 2))

    def test_not_graphical(self):
        with pytest.raises(NotGraphical):
            all_adjacency_sets((3, 3, 1, 1))

    def test_matches_declarative_definition(self):
        # A(d) is exactly the graphicality-preserving sets at or colex-below
        # A_R, in decreasing colex order without duplicates.
        for seq in graphical_family(max_n=6):
            got = [a.members for a in all_adjacency_sets(seq)]
            assert len(got) == len(set(got))
            assert sorted(got, key=lambda m: tuple(reversed(m)), reverse=True) == got
            expected = []
            for cand in itertools.combinations(range(2, len(seq) + 1), seq[0]):
                residual = list(seq)
                residual[0] = 0
                for v in cand:
                    residual[v - 1] -= 1
                if min(residual) >= 0 and erdos_gallai_test(
                    tuple(sorted(residual, reverse=True))
                ).graphical:
                    expected.append(cand)
            assert set(got) == set(expected), seq


class TestEnumerateAll:
    def test_p4_realizations(self):
        graphs = canonical_set(enumerate_all((2, 2, 1, 1)))
        assert graphs == {
            ((1, 2), (1, 4), (2, 3)),
            ((1, 2), (1, 3), (2, 4)),
        }

    def test_three_labeled_four_cycles(self):
        graphs = list(enumerate_all((2, 2, 2, 2)))
        assert len(graphs) == 3
        assert len(canonical_set(graphs)) == 3

    def test_single_edge(self):
        assert canonical_set(enumerate_all((1, 1))) == {((1, 2),)}

    def test_non_graphical_is_empty(self):
        assert list(enumerate_all((3, 2, 1))) == []

    def test_lazy_early_stop(self):
        stream = enumerate_all(HH_GAP_SEQUENCE)
        first = next(stream)
        _, d = graph_degree_sequence(first)
        assert d.degrees == HH_GAP_SEQUENCE

    def test_matches_oracle_small(self):
        for seq in graphical_family(max_n=5):
            mine = list(enumerate_all(seq))
            assert len(mine) == len(canonical_set(mine)), seq
            assert canonical_set(mine) == canonical_set(
                oracle_enumerate(OracleQuery(seq))
            ), seq

    def test_every_graph_realizes_sequence(self):
        for g in enumerate_all((3, 2, 2, 2, 1)):
            _, d = graph_degree_sequence(g)
            assert d.degrees == (3, 2, 2, 2, 1)

    def test_tree_deeper_than_recursion_limit(self):
        # 200 levels in the construction tree, with 100 frames to spare.
        with recursion_headroom(100):
            g = next(enumerate_all((1,) * 400))
        assert g.m == 200

    def test_large_first_level_is_not_built(self):
        # A(d) of the first node holds about 6e6 sets; one graph needs one.
        g = next(enumerate_all((3, 3) + (1,) * 330))
        assert g.m == (6 + 330) // 2

    def test_hh_unreachable_realization_exists(self):
        found = any(
            not g.has_edge(1, 2) and not (g.neighbors(1) & g.neighbors(2))
            for g in enumerate_all(HH_GAP_SEQUENCE)
        )
        assert found


def test_walk_with_names_relabels_each_leaf():
    # Names given to the walk rename the edges of every leaf as a relabelling
    # afterwards would, and change neither the order of the leaves, nor the
    # order of the edges, nor the branch sizes.
    rng = random.Random(11)
    for seq in graphical_family(max_n=7):
        positions = list(range(1, len(seq) + 1))
        rng.shuffle(positions)
        names = (0, *positions)
        want = [
            (tuple((a, b) if (a := names[u]) < (b := names[v]) else (b, a)
                   for u, v in edges), sizes)
            for edges, sizes in walk_pairs(seq)
        ]
        assert list(walk_pairs(seq, names=names)) == want, seq


def leaves(walk, limit=None):
    """The leaves of a walk, each edge tuple as a set, up to ``limit``."""
    return [(frozenset(edges), sizes) for edges, sizes in itertools.islice(walk, limit)]


def recorded(pick_log, seed):
    """A pick that draws from ``random.Random(seed)`` and logs each argument."""
    rng = random.Random(seed)

    def pick(k):
        pick_log.append(k)
        return rng.randrange(k)

    return pick


def random_graphical(rng, count, max_n=30):
    """``count`` degree sequences of random graphs on 1..max_n nodes, in
    label order: mean degree below 4, and most with nodes of degree 0."""
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        p = rng.random() * 4 / n
        degs = [0] * n
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < p:
                degs[u] += 1
                degs[v] += 1
        out.append(tuple(degs))
    return out


class TestWalkMatchesReference:
    # The walk that finishes star children from cached position pairs gives
    # the leaves of the walk that sorts the residuals at every inner node, in
    # the same order; the sampler's one-path descent gives the reference's
    # leaf for the same picks, and calls pick with the same sizes at the
    # same levels.

    def test_family_under_permuted_names(self):
        rng = random.Random(13)
        for seq in graphical_family(max_n=7):
            positions = list(range(1, len(seq) + 1))
            rng.shuffle(positions)
            names = (0, *positions)
            assert leaves(walk_pairs(seq, names=names)) == leaves(
                walk_reference(seq, names=names)), seq
        for seq in graphical_family(max_n=7) + random_graphical(random.Random(17), 300):
            for seed in range(3):
                got, want = [], []
                assert _draw(seq, recorded(got, seed)) == next(
                    walk_reference(seq, recorded(want, seed))), (seq, seed)
                assert got == want, (seq, seed)

    def test_bench_multiset_first_leaves(self):
        seq = (4,) * 6 + (3,) * 8
        assert leaves(walk_pairs(seq), 20_000) == leaves(walk_reference(seq), 20_000)

    def test_sampler_picks_on_bench_multiset(self):
        seq = (4,) * 6 + (3,) * 8
        for seed in range(20):
            got, want = [], []
            assert _draw(seq, recorded(got, seed)) == next(
                walk_reference(seq, recorded(want, seed))), seed
            assert got == want, seed

    @pytest.mark.parametrize("seq", [(), (0, 0), (1, 1), (2, 1, 1), (1, 1, 1, 1), (3, 3)])
    def test_small_and_degenerate(self, seq):
        assert list(walk_pairs(seq)) == list(walk_reference(seq))

    @pytest.mark.parametrize("keep", [0, 40, 300])
    def test_lists_dropped_for_room(self, monkeypatch, keep):
        # With little room some lists are dropped and their multisets offered
        # afresh; the leaves stay the same.
        monkeypatch.setattr(enumeration, "_KEEP", keep)
        for seq in [(4, 4, 4, 3, 3, 2, 2, 1, 1), (3, 3, 3, 3, 2, 2, 2, 2), (2,) * 7]:
            assert leaves(walk_pairs(seq)) == leaves(walk_reference(seq)), seq


def test_walk_sorts_each_residuals_once(monkeypatch):
    # Most levels stand on residuals an earlier level stood on; the walk
    # sorts and names each of them once, and the leaves stay the reference's.
    seen = []

    def sorted_view(residual):
        seen.append(tuple(residual))
        return _sorted_view(residual)

    monkeypatch.setattr(enumeration, "_sorted_view", sorted_view)
    seq = (4, 4, 4, 3, 3, 2, 2, 1, 1)
    assert leaves(walk_pairs(seq)) == leaves(walk_reference(seq))
    assert len(seen) == len(set(seen)) == 470


def test_kept_lists_stay_bounded():
    # Every child of the root of (k, 1 * (k + 2)) is a star, so each of the
    # C(k + 2, 2) root sets comes with k + 1 finishing pairs: about 36 MB at
    # k = 100 if the root's list were kept whole.
    seq = (100,) + (1,) * 102
    tracemalloc.start()
    try:
        assert sum(1 for _ in _walk(seq)) == math.comb(102, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


class TestCountRealizations:
    @pytest.mark.parametrize(
        "seq,expected",
        [
            ((2, 2, 2), 1),
            ((3, 3, 3, 3), 1),
            ((1, 1, 1, 1), 3),
            ((3, 2, 1), 0),
            (HH_GAP_SEQUENCE, HH_GAP_COUNT),
        ],
    )
    def test_examples(self, seq, expected):
        assert count_realizations(seq).count == expected

    def test_non_integer_degrees_raise(self):
        # [1.9, 1.9] used to be truncated to [1, 1] and counted once.
        with pytest.raises(InvalidDegree):
            count_realizations([1.9, 1.9])

    def test_negative_degree_raises(self):
        # [2, 2, 2, -1] used to drop the -1 and count the triangle.
        with pytest.raises(InvalidDegree):
            count_realizations([2, 2, 2, -1])

    def test_groupings_freed_once_counted(self):
        # The call holds the groupings of the multisets on its stack alone,
        # and nothing once it returns; a cache of them would hold 1.1 MB.
        # A full collection empties the tuple free lists, which tracemalloc
        # counts as held.
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            result = count_realizations((4,) * 18)
            gc.collect()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.memo_entries > 100
        assert held - before < 0.25 * 2**20
        assert peak - before < 0.5 * 2**20

    def test_chain_deeper_than_recursion_limit(self):
        # 200 multisets in one chain, with 100 frames to spare.
        with recursion_headroom(100):
            result = count_realizations((1,) * 400)
        assert result.count == math.prod(range(1, 400, 2))
        assert result.memo_entries == 200

    def test_count_equals_stream_length(self):
        for seq in graphical_family(max_n=6):
            assert count_realizations(seq).count == sum(1 for _ in enumerate_all(seq))


def test_no_cg_test_on_construction_paths(monkeypatch):
    # A(d) comes from degree classes and Erdos-Gallai alone.
    def forbidden(*args, **kwargs):
        raise AssertionError("CG test called")

    # cg_test and the residual-count kernel behind it, wherever imported.
    # (``rightmost_adjacency_set`` imports cg_test from constrained when called.)
    # sampling imports the kernel from constrained at its first lookup, so it is
    # looked up before constrained's is patched: otherwise sampling would cache
    # the stub, and teardown would restore the stub there for later tests.
    assert sampling._cg_counts is constrained._cg_counts
    for module, name in [(constrained, "cg_test"), (constrained, "_cg_counts"),
                         (sampling, "_cg_counts")]:
        monkeypatch.setattr(module, name, forbidden)
    assert count_realizations(HH_GAP_SEQUENCE).count == HH_GAP_COUNT
    assert sum(1 for _ in enumerate_all(HH_GAP_SEQUENCE)) == HH_GAP_COUNT
    sampling.sample_weighted(HH_GAP_SEQUENCE, 1)
    sampling.estimate_count(HH_GAP_SEQUENCE, 10, 1)


class TestParallelEnumeration:
    def test_ordered_parallel_matches_sequential(self):
        seq = (3, 3, 2, 2, 2, 2)
        assert list(enumerate_all_parallel(seq, threads=3, ordered=True)) == list(
            enumerate_all(seq)
        )

    def test_unordered_parallel_same_set(self):
        seq = (3, 3, 2, 2, 2, 2)
        assert canonical_set(
            enumerate_all_parallel(seq, threads=3, ordered=False)
        ) == canonical_set(enumerate_all(seq))
