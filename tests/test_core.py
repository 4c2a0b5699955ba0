import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import graphical_family

from graphreal.core import (
    AdjacencySet,
    DegreeSequence,
    DegreeTooLarge,
    ForbiddenSet,
    InvalidArgument,
    InvalidDegree,
    InvalidSet,
    LabeledGraph,
    ParseError,
    as_residuals,
    format_graph,
    format_sequence,
    graph_degree_sequence,
    parse_graphs,
    parse_sequence,
    parse_sequences,
    validate_input_sequence,
)
from graphreal.enumeration import count_realizations, enumerate_all
from graphreal.graphicality import (
    NodeSelectionPolicy,
    erdos_gallai_test,
    havel_hakimi_construct,
)
from graphreal.sampling import (
    enumerate_with_probabilities,
    molloy_reed_sample,
    sample_weighted,
)


def library_graphs(seq):
    """Every graph the library's own producers build for ``seq``."""
    yield from enumerate_all(seq)
    yield from (g for g, _ in enumerate_with_probabilities(seq))
    for seed in range(3):
        yield sample_weighted(seq, seed).graph
    yield molloy_reed_sample(seq, 0)[0]  # dense sequences restart often
    for policy in NodeSelectionPolicy:
        yield havel_hakimi_construct(seq, policy)


class TestDegreesMustBeASequence:
    # A mapping iterates over its keys and a set in its own order, so neither
    # labels its degrees: {1: 1, 2: 1} was counted as the sequence 1, 2, and
    # a set lost its repeated degrees.  Every public input is refused.
    @pytest.mark.parametrize("degrees", [
        {1: 1, 2: 1}, {2: 5, 1: 5}, {}, {3, 1, 2}, frozenset({1, 1}), set(),
    ])
    @pytest.mark.parametrize("fn", [
        as_residuals,
        DegreeSequence,
        validate_input_sequence,
        erdos_gallai_test,
        count_realizations,
        format_sequence,
        lambda d: list(enumerate_all(d)),
        lambda d: list(enumerate_with_probabilities(d)),
        lambda d: sample_weighted(d, 0),
        lambda d: molloy_reed_sample(d, 0),
        havel_hakimi_construct,
    ])
    def test_mappings_and_sets_are_refused(self, fn, degrees):
        with pytest.raises(InvalidDegree):
            fn(degrees)

    def test_message_names_the_type(self):
        with pytest.raises(InvalidDegree, match="not a frozenset"):
            count_realizations(frozenset({1, 1}))

    @pytest.mark.parametrize("degrees, want", [
        ((2, 1, 1), (2, 1, 1)), ([2, 1, 1], (2, 1, 1)), (range(3), (0, 1, 2)),
        (iter([1, 1]), (1, 1)), (DegreeSequence((1, 1)), (1, 1)),
    ])
    def test_sequences_and_iterables_still_pass(self, degrees, want):
        assert as_residuals(degrees) == want


class TestValidateInputSequence:
    def test_path_sequence(self):
        d = validate_input_sequence([2, 1, 1])
        assert d.degrees == (2, 1, 1)

    def test_sorts_and_strips_zeros_recording_permutation(self):
        d = validate_input_sequence([1, 2, 0, 1])
        assert d.degrees == (2, 1, 1)
        assert d.permutation == (2, 1, 4)

    def test_degree_too_large(self):
        with pytest.raises(DegreeTooLarge):
            validate_input_sequence([5, 1, 1, 1])

    def test_negative_degree(self):
        with pytest.raises(InvalidDegree):
            validate_input_sequence([2, -1])

    def test_empty_input(self):
        with pytest.raises(InvalidDegree):
            validate_input_sequence([])

    @pytest.mark.parametrize("raw", [[2.0, 1, 1], [1.9, 1.9], ["2", 1, 1]])
    def test_non_integer_degree(self, raw):
        with pytest.raises(InvalidDegree):
            validate_input_sequence(raw)

    def test_idempotent_on_valid_input(self):
        d = validate_input_sequence([3, 2, 2, 2, 1])
        again = validate_input_sequence(list(d.degrees))
        assert again.degrees == d.degrees


class TestDegreeSequence:
    def test_rejects_increasing(self):
        with pytest.raises(InvalidDegree):
            DegreeSequence((1, 2))

    def test_rejects_negative(self):
        with pytest.raises(InvalidDegree):
            DegreeSequence((2, -1))

    def test_rejects_non_integer(self):
        with pytest.raises(InvalidDegree):
            DegreeSequence((2.5, 1))

    def test_residual_view_allows_zeros(self):
        d = DegreeSequence((2, 1, 0, 0))
        assert d.n == 4
        assert d.degree_of(1) == 2

    @pytest.mark.parametrize("label", [0, -1, 4, 9, None, 1.5, "1"])
    def test_degree_of_refuses_labels_outside_1_to_n(self, label):
        # degree_of(0) used to return the last degree through index -1,
        # degree_of(9) raised a raw IndexError and degree_of(None) a raw
        # TypeError.
        with pytest.raises(InvalidSet):
            DegreeSequence((2, 1, 1)).degree_of(label)

    def test_degree_of_coerces_integral_labels(self):
        assert DegreeSequence((2, 1, 1)).degree_of(True) == 2


class TestAdjacencySet:
    def test_rejects_focal_member(self):
        with pytest.raises(InvalidSet):
            AdjacencySet(2, (1, 2))

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidSet):
            AdjacencySet(1, (3, 2))

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidSet):
            AdjacencySet(1, (2, 2))

    @given(st.integers(1, 8), st.lists(st.integers(1, 8), max_size=6))
    @settings(max_examples=200)
    def test_fuzz_construction(self, focal, members):
        members = tuple(members)
        strictly_increasing = all(a < b for a, b in zip(members, members[1:]))
        if strictly_increasing and focal not in members:
            assert AdjacencySet(focal, members).members == members
        else:
            with pytest.raises(InvalidSet):
                AdjacencySet(focal, members)


    @pytest.mark.parametrize("focal, members", [(1.0, (2,)), (1, (2.5,)), (1, ("2",))])
    def test_rejects_non_integer_labels(self, focal, members):
        with pytest.raises(InvalidSet):
            AdjacencySet(focal, members)

    @pytest.mark.parametrize("members", [None, 3])
    def test_rejects_members_that_are_not_iterable(self, members):
        # AdjacencySet(1, None) used to raise a raw TypeError.
        with pytest.raises(InvalidSet):
            AdjacencySet(1, members)


class TestForbiddenSet:
    def test_rejects_focal_member(self):
        with pytest.raises(InvalidSet):
            ForbiddenSet(1, frozenset({1, 2}))

    def test_holds_members(self):
        x = ForbiddenSet(1, frozenset({3, 2}))
        assert x.members == frozenset({2, 3})


    @pytest.mark.parametrize("focal, members", [(1, {2.7}), (1.5, {2}), (1, {"a"})])
    def test_rejects_non_integer_labels(self, focal, members):
        # ForbiddenSet(1, {2.7}) used to forbid node 2.
        with pytest.raises(InvalidSet):
            ForbiddenSet(focal, frozenset(members))

    @pytest.mark.parametrize("members", [None, 3])
    def test_rejects_members_that_are_not_iterable(self, members):
        # ForbiddenSet(1, None) used to raise a raw TypeError.
        with pytest.raises(InvalidSet):
            ForbiddenSet(1, members)


class TestLabeledGraph:
    def test_canonical_equality(self):
        g1 = LabeledGraph(3, [(2, 1), (3, 1)])
        g2 = LabeledGraph(3, [(1, 3), (1, 2)])
        assert g1 == g2
        assert hash(g1) == hash(g2)

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidSet):
            LabeledGraph(3, [(2, 2)])

    def test_rejects_non_integer_labels(self):
        with pytest.raises(InvalidSet):
            LabeledGraph(3, [(1.5, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidSet):
            LabeledGraph(3, [(1, 4)])

    @pytest.mark.parametrize("edges", [[(1, 2, 3)], [(1,)], [()], [1, 1, 2], [(1, 2), 3],
                                       None, 5])
    def test_rejects_edges_that_are_not_pairs(self, edges):
        # LabeledGraph(3, [(1, 2, 3)]) used to keep the edge (1, 2) and drop
        # the 3; [(1,)] raised a raw IndexError and [1, 1, 2] a raw TypeError.
        with pytest.raises(InvalidSet):
            LabeledGraph(3, edges)

    def test_any_pair_of_labels_is_an_edge(self):
        g = LabeledGraph(3, [[3, 1], frozenset({2, 3}), iter((1, 2))])
        assert g.canonical_edges() == ((1, 2), (1, 3), (2, 3))

    @pytest.mark.parametrize("n", [2.5, "2", None, -2])
    def test_rejects_bad_node_count(self, n):
        # LabeledGraph(2.5, [(1, 2)]).n used to be 2, and LabeledGraph(-2)
        # a graph printed as "graph n=-2 m=0".
        with pytest.raises(InvalidArgument):
            LabeledGraph(n)

    def test_duplicate_edges_collapse(self):
        g = LabeledGraph(3, [(1, 2), (2, 1)])
        assert g.m == 1

    def test_library_graphs_equal_validated_ones(self):
        # The producers skip the checks of LabeledGraph(n, edges); their
        # edges must pass them unchanged.
        for seq in graphical_family(max_n=6):
            for order in (seq, seq[::-1]):
                for g in library_graphs(order):
                    checked = LabeledGraph(g.n, g.edges)
                    assert g == checked and hash(g) == hash(checked), order
                    assert type(g.n) is int and g.n == len(seq)
                    assert all(1 <= u < v <= g.n for u, v in g.edges), order
                    assert g.degrees() == order

    def test_neighbors(self):
        g = LabeledGraph(4, [(1, 2), (1, 3)])
        assert g.neighbors(1) == {2, 3}
        assert g.neighbors(4) == set()

    @pytest.mark.parametrize("label", [0, -1, 7, None, 1.5, "1"])
    def test_labels_outside_1_to_n_are_refused(self, label):
        # has_edge(1, 7) used to return False and has_edge(None, 1) raise a
        # raw TypeError; neighbors of each of these returned set().
        g = LabeledGraph(3, [(1, 2)])
        for call in (lambda: g.has_edge(label, 1), lambda: g.has_edge(1, label),
                     lambda: g.neighbors(label)):
            with pytest.raises(InvalidSet):
                call()

    def test_integral_labels_are_coerced(self):
        g = LabeledGraph(3, [(1, 2)])
        assert g.has_edge(True, 2) and not g.has_edge(2, 3)
        assert g.neighbors(True) == {2} and g.neighbors(3) == set()


class TestGraphDegreeSequence:
    def test_triangle(self):
        g = LabeledGraph(3, [(1, 2), (1, 3), (2, 3)])
        counts, d = graph_degree_sequence(g)
        assert counts == (2, 2, 2)
        assert d.degrees == (2, 2, 2)

    def test_empty_graph(self):
        counts, d = graph_degree_sequence(LabeledGraph(3))
        assert counts == (0, 0, 0)
        assert d.degrees == (0, 0, 0)

    def test_path(self):
        counts, d = graph_degree_sequence(LabeledGraph(3, [(1, 2), (2, 3)]))
        assert counts == (1, 2, 1)
        assert d.degrees == (2, 1, 1)

    @given(st.integers(1, 7), st.sets(st.tuples(st.integers(1, 7), st.integers(1, 7))))
    @settings(max_examples=200)
    def test_handshake(self, n, raw_edges):
        edges = [(u, v) for u, v in raw_edges if u != v and u <= n and v <= n]
        _, d = graph_degree_sequence(LabeledGraph(n, edges))
        assert d.total() % 2 == 0


class TestTextFormats:
    def test_sequence_round_trip(self):
        assert parse_sequence(format_sequence((3, 2, 1))) == [3, 2, 1]

    def test_parse_sequences_skips_blank_lines(self):
        assert parse_sequences("2 1 1\n\n2 2 2\n") == [[2, 1, 1], [2, 2, 2]]

    def test_parse_sequence_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_sequence("2 x 1")

    def test_graph_round_trip(self):
        g = LabeledGraph(4, [(1, 2), (3, 4)])
        (parsed,) = parse_graphs(format_graph(g))
        assert parsed == g

    def test_parse_multiple_graph_blocks(self):
        text = "graph n=2 m=1\n1 2\n\ngraph n=3 m=0\n"
        graphs = parse_graphs(text)
        assert [g.n for g in graphs] == [2, 3]

    def test_parse_graph_bad_edge_order(self):
        with pytest.raises(ParseError):
            parse_graphs("graph n=3 m=1\n2 1\n")

    def test_parse_graph_wrong_edge_count(self):
        with pytest.raises(ParseError):
            parse_graphs("graph n=3 m=2\n1 2\n")

    @pytest.mark.parametrize("fn", [parse_sequence, parse_sequences, parse_graphs])
    @pytest.mark.parametrize("text", [None, b"1 1", ["1 1"], 5])
    def test_parsers_refuse_what_is_not_text(self, fn, text):
        # None used to raise a raw AttributeError.
        with pytest.raises(ParseError):
            fn(text)

    @pytest.mark.parametrize("fn", [graph_degree_sequence, format_graph])
    @pytest.mark.parametrize("g", [[1, 1], [1], None, (3, [(1, 2)])])
    def test_graph_functions_refuse_what_is_not_a_graph(self, fn, g):
        # [1, 1] used to raise a raw AttributeError.
        with pytest.raises(InvalidArgument):
            fn(g)
