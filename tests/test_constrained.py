import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import graphical_family

from graphreal.core import AdjacencySet, ForbiddenSet, Incomparable, InvalidSet, TooManyForbidden
from graphreal.constrained import (
    cg_test,
    colex_less,
    leftmost_restricted,
    reduce_by_set,
    set_leq,
)
from graphreal.graphicality import erdos_gallai_test, havel_hakimi_reduce
from graphreal.oracle import OracleQuery, oracle_enumerate, oracle_exists


class TestReduceBySet:
    def test_hh_gap_sequence_reduction(self):
        red = reduce_by_set((3, 3, 2, 2, 2, 2, 2, 2), AdjacencySet(1, (2, 3, 4)))
        assert red.residuals == (0, 2, 1, 1, 2, 2, 2, 2)
        assert not red.has_negative

    def test_matching_reduction(self):
        red = reduce_by_set((1, 1, 1, 1), AdjacencySet(1, (3,)))
        assert red.residuals == (0, 1, 0, 1)

    def test_negative_flagged(self):
        red = reduce_by_set((1, 1, 0, 0), AdjacencySet(1, (3,)))
        assert red.residuals == (0, 1, -1, 0)
        assert red.has_negative

    def test_member_out_of_range(self):
        with pytest.raises(InvalidSet):
            reduce_by_set((1, 1), AdjacencySet(1, (3,)))


class TestSetOrders:
    def test_set_leq_examples(self):
        assert set_leq(AdjacencySet(1, (2, 3)), AdjacencySet(1, (3, 4)))
        assert not set_leq(AdjacencySet(1, (2, 5)), AdjacencySet(1, (3, 4)))
        a = AdjacencySet(1, (3, 4))
        assert set_leq(a, a)

    def test_set_leq_cardinality_mismatch(self):
        with pytest.raises(Incomparable):
            set_leq(AdjacencySet(1, (2,)), AdjacencySet(1, (2, 3)))

    def test_colex_examples(self):
        assert colex_less(AdjacencySet(1, (2, 3)), AdjacencySet(1, (2, 4)))
        assert not colex_less(AdjacencySet(2, (1, 4)), AdjacencySet(1, (2, 3)))
        assert not colex_less(AdjacencySet(1, (3, 4)), AdjacencySet(1, (3, 4)))

    def test_colex_cardinality_mismatch(self):
        with pytest.raises(Incomparable):
            colex_less(AdjacencySet(1, (2,)), AdjacencySet(1, (2, 3)))

    @given(st.lists(st.sets(st.integers(2, 9), min_size=2, max_size=2), min_size=3, max_size=3))
    @settings(max_examples=300)
    def test_colex_is_strict_total_order(self, sets):
        a, b, c = (AdjacencySet(1, tuple(sorted(s))) for s in sets)
        assert not colex_less(a, a)
        if a.members != b.members:
            assert colex_less(a, b) != colex_less(b, a)
        if colex_less(a, b) and colex_less(b, c):
            assert colex_less(a, c)

    @given(
        st.sets(st.integers(2, 9), min_size=3, max_size=3),
        st.sets(st.integers(2, 9), min_size=3, max_size=3),
    )
    @settings(max_examples=300)
    def test_left_order_implies_colex(self, sa, sb):
        a = AdjacencySet(1, tuple(sorted(sa)))
        b = AdjacencySet(1, tuple(sorted(sb)))
        if set_leq(b, a):
            assert b.members == a.members or colex_less(b, a)


class TestLeftmostRestricted:
    def test_forbidden_neighbour_skipped(self):
        left = leftmost_restricted((1, 1, 1, 1), 1, {2})
        assert left.members == (3,)

    def test_skips_focal(self):
        left = leftmost_restricted((2, 2, 2, 2, 2), 3, frozenset())
        assert left.members == (1, 2)

    def test_multiple_forbidden(self):
        left = leftmost_restricted((2, 2, 2, 2, 2), 1, {2, 4})
        assert left.members == (3, 5)

    def test_too_many_forbidden(self):
        with pytest.raises(TooManyForbidden):
            leftmost_restricted((2, 2, 2, 2), 1, {2, 3})

    def test_accepts_forbidden_set_object(self):
        left = leftmost_restricted((1, 1, 1, 1), 1, ForbiddenSet(1, frozenset({2})))
        assert left.members == (3,)

    def test_left_of_any_disjoint_set(self):
        # The leftmost restricted set is elementwise below every adjacency
        # set avoiding the forbidden star.
        for seq in graphical_family(max_n=5):
            n = len(seq)
            for i in range(1, n + 1):
                di = seq[i - 1]
                others = [j for j in range(1, n + 1) if j != i]
                for m in range(0, n - di):
                    for x in itertools.combinations(others, m):
                        left = leftmost_restricted(seq, i, frozenset(x))
                        allowed = [j for j in others if j not in x]
                        for y in itertools.combinations(allowed, di):
                            assert set_leq(left, AdjacencySet(i, y))


class TestCgTest:
    def test_path_completion_still_possible(self):
        assert cg_test((1, 1, 1, 1), 1, {2})

    def test_blocked_residual_pair(self):
        assert not cg_test((1, 1, 0, 0), 1, {2})

    def test_empty_forbidden_matches_hh_reduction(self):
        for seq in graphical_family(max_n=6):
            expected = erdos_gallai_test(havel_hakimi_reduce(seq)).graphical
            assert cg_test(seq, 1, frozenset()) == expected, seq

    def test_degree_above_n_minus_1_is_false(self):
        # No simple graph has one; the counts must not be sized by it.
        for d in ((10**12, 1, 1), (10**7, 1, 1), (1, 1, 10**12)):
            assert cg_test(d, 2) is False, d

    def test_propagates_too_many_forbidden(self):
        with pytest.raises(TooManyForbidden):
            cg_test((2, 2, 2, 2), 1, {2, 3})

    def test_matches_exhaustive_search_small(self):
        # Full n <= 6 equivalence runs in the acceptance suite.
        for seq in graphical_family(max_n=5):
            n = len(seq)
            graphs = oracle_enumerate(OracleQuery(seq))
            for i in range(1, n + 1):
                others = [j for j in range(1, n + 1) if j != i]
                for m in range(0, n - seq[i - 1]):
                    for x in itertools.combinations(others, m):
                        truth = any(
                            all(not g.has_edge(i, j) for j in x) for g in graphs
                        )
                        assert cg_test(seq, i, frozenset(x)) == truth, (seq, i, x)


class TestLeftShiftPreservesGraphicality:
    def test_left_shifts_preserve_graphicality(self):
        # If reduction by A is graphical, reduction by any B <= A is too.
        for seq in graphical_family(max_n=5):
            n = len(seq)
            for i in range(1, n + 1):
                di = seq[i - 1]
                others = [j for j in range(1, n + 1) if j != i]
                sets = list(itertools.combinations(others, di))
                good = [
                    a
                    for a in sets
                    if not reduce_by_set(seq, AdjacencySet(i, a)).has_negative
                    and erdos_gallai_test(
                        reduce_by_set(seq, AdjacencySet(i, a)).sorted_positive()
                    ).graphical
                ]
                for a in good:
                    for b in sets:
                        if all(x <= y for x, y in zip(b, a)):
                            red = reduce_by_set(seq, AdjacencySet(i, b))
                            assert not red.has_negative, (seq, i, a, b)
                            assert erdos_gallai_test(red.sorted_positive()).graphical
