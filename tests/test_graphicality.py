import itertools

import pytest

from helpers import exhaustive_family, graphical_family

from graphreal.core import (
    DegreeTooLarge,
    InvalidArgument,
    InvalidDegree,
    NotGraphical,
    graph_degree_sequence,
)
from graphreal.graphicality import (
    NodeSelectionPolicy,
    erdos_gallai_test,
    havel_hakimi_construct,
    havel_hakimi_reduce,
)
from graphreal.oracle import OracleQuery, oracle_exists


class TestErdosGallai:
    def test_known_non_graphical_examples(self):
        assert not erdos_gallai_test((3, 2, 1)).graphical
        assert not erdos_gallai_test((4, 4, 2, 1, 1)).graphical
        assert not erdos_gallai_test((1, 1, 1)).graphical

    def test_hh_gap_sequence_graphical_with_cutoff_two(self):
        report = erdos_gallai_test((3, 3, 2, 2, 2, 2, 2, 2))
        assert report.graphical
        assert report.s_bound == 2

    def test_empty_sequence_graphical(self):
        report = erdos_gallai_test(())
        assert report.graphical and report.parity_ok

    def test_parity_failure_reported(self):
        report = erdos_gallai_test((2, 1))
        assert not report.graphical
        assert not report.parity_ok

    def test_first_violated_k(self):
        report = erdos_gallai_test((3, 2, 1))
        assert report.first_violated_k == 1

    def test_graphical_report_shape(self):
        report = erdos_gallai_test((2, 2, 2))
        assert report.graphical and report.parity_ok
        assert report.first_violated_k is None

    def test_cutoff_equals_full_check_exhaustive(self):
        for seq in exhaustive_family(max_n=7, max_deg=6):
            cut = erdos_gallai_test(seq)
            full = erdos_gallai_test(seq, check_all_k=True)
            assert cut.graphical == full.graphical, seq

    def test_unsorted_order_not_graphical(self):
        # (3, 3, 1, 1) is not graphical in any order.
        assert not erdos_gallai_test((1, 1, 3, 3)).graphical

    def test_every_order_gets_the_sorted_verdict(self):
        for seq in exhaustive_family(max_n=6, max_deg=6):
            want = erdos_gallai_test(seq).graphical
            for perm in set(itertools.permutations(seq)):
                assert erdos_gallai_test(perm).graphical == want, perm


class TestIntegerDegrees:
    @pytest.mark.parametrize("seq", [[1.5, 1.5], [1.0, 1.0], ["1", "1"], [1, None]])
    def test_non_integers_raise(self, seq):
        # 1.5 used to be truncated to 1, and so reported graphical.
        for fn in (erdos_gallai_test, havel_hakimi_construct):
            with pytest.raises(InvalidDegree):
                fn(seq)

    def test_integral_types_pass(self):
        assert erdos_gallai_test([True, True]).graphical


class TestHavelHakimiReduce:
    @pytest.mark.parametrize(
        "seq,expected",
        [
            ((3, 3, 2, 2), (2, 1, 1)),
            ((2, 2, 2), (1, 1)),
            ((1, 1), (0,)),
        ],
    )
    def test_formula(self, seq, expected):
        assert havel_hakimi_reduce(seq).degrees == expected

    def test_degree_too_large(self):
        with pytest.raises(DegreeTooLarge):
            havel_hakimi_reduce((3, 1, 1))

    def test_reduction_soundness_exhaustive(self):
        for seq in exhaustive_family(max_n=7, max_deg=6):
            if seq[0] > len(seq) - 1:
                continue
            before = erdos_gallai_test(seq).graphical
            try:
                after = erdos_gallai_test(havel_hakimi_reduce(seq)).graphical
            except NotGraphical:
                after = False
            assert before == after, seq


class TestHavelHakimiConstruct:
    def test_path_realization(self):
        g = havel_hakimi_construct((2, 1, 1))
        assert g.canonical_edges() == ((1, 2), (1, 3))

    def test_four_cycle_degrees(self):
        g = havel_hakimi_construct((2, 2, 2, 2))
        _, d = graph_degree_sequence(g)
        assert d.degrees == (2, 2, 2, 2)

    @pytest.mark.parametrize("policy", list(NodeSelectionPolicy))
    def test_hh_gap_sequence_has_hh_signature(self, policy):
        # Any HH output on this sequence has a 3-3 edge or a 3-2-3 path.
        g = havel_hakimi_construct((3, 3, 2, 2, 2, 2, 2, 2), policy)
        assert g.has_edge(1, 2) or (g.neighbors(1) & g.neighbors(2))

    def test_not_graphical(self):
        with pytest.raises(NotGraphical):
            havel_hakimi_construct((1, 1, 1))

    @pytest.mark.parametrize("policy", list(NodeSelectionPolicy))
    def test_realizes_sequence_all_policies(self, policy):
        for seq in graphical_family(max_n=6):
            g = havel_hakimi_construct(seq, policy)
            _, d = graph_degree_sequence(g)
            assert d.degrees == seq, (seq, policy)

    @pytest.mark.parametrize("policy", list(NodeSelectionPolicy))
    def test_policy_by_value(self, policy):
        # "min" used to fall back to FIXED, whose graph differs here.
        seq = (3, 3, 2, 2, 1, 1)
        assert havel_hakimi_construct(seq, policy.value) == havel_hakimi_construct(
            seq, policy
        )

    @pytest.mark.parametrize("policy", ["bogus", None, "MAX_RESIDUAL", 1])
    def test_unknown_policy_raises(self, policy):
        with pytest.raises(InvalidArgument):
            havel_hakimi_construct((1, 1), policy)

    def test_agrees_with_oracle_small(self):
        for seq in exhaustive_family(max_n=5, max_deg=4):
            try:
                havel_hakimi_construct(seq)
                built = True
            except (NotGraphical, DegreeTooLarge):
                built = False
            assert built == oracle_exists(OracleQuery(seq)), seq


class TestDegreeShiftPreservesGraphicality:
    def test_shift_preserves_graphicality_exhaustive(self):
        # Moving a unit of degree from a larger to a smaller entry keeps
        # the sequence graphical.
        for seq in graphical_family(max_n=6):
            n = len(seq)
            for j, k in itertools.permutations(range(n), 2):
                if seq[j] <= seq[k]:
                    continue
                shifted = list(seq)
                shifted[j] -= 1
                shifted[k] += 1
                shifted.sort(reverse=True)
                assert erdos_gallai_test(tuple(shifted)).graphical, (seq, j, k)
