import io
import itertools

import pytest

from graphreal.cli import run
from graphreal.core import (
    ForbiddenSet,
    InvalidArgument,
    InvalidSet,
    LabeledGraph,
    OracleTooLarge,
    graph_degree_sequence,
)
from graphreal.oracle import OracleQuery, oracle_enumerate, oracle_exists


class TestOracleEnumerate:
    def test_p4_realizations(self):
        graphs = oracle_enumerate(OracleQuery((2, 2, 1, 1)))
        assert {g.canonical_edges() for g in graphs} == {
            ((1, 2), (1, 3), (2, 4)),
            ((1, 2), (1, 4), (2, 3)),
        }

    def test_matchings_avoiding_star(self):
        q = OracleQuery((1, 1, 1, 1), forbidden_star=ForbiddenSet(1, frozenset({2})))
        graphs = oracle_enumerate(q)
        assert {g.canonical_edges() for g in graphs} == {
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
        }

    def test_non_graphical_is_empty(self):
        assert oracle_enumerate(OracleQuery((3, 2, 1))) == set()

    def test_solutions_satisfy_all_predicates(self):
        q = OracleQuery(
            (2, 2, 2, 1, 1),
            forbidden_star=ForbiddenSet(2, frozenset({5})),
            fixed_partial=LabeledGraph(5, [(1, 2)]),
        )
        graphs = oracle_enumerate(q)
        assert graphs
        for g in graphs:
            _, d = graph_degree_sequence(g)
            assert d.degrees == (2, 2, 2, 1, 1)
            assert g.has_edge(1, 2)
            assert not g.has_edge(2, 5)

    def test_guardrail(self):
        with pytest.raises(OracleTooLarge):
            oracle_enumerate(OracleQuery((1,) * 12))

    def test_fixed_partial_conflicting_with_star_is_empty(self):
        q = OracleQuery(
            (1, 1),
            forbidden_star=ForbiddenSet(1, frozenset({2})),
            fixed_partial=LabeledGraph(2, [(1, 2)]),
        )
        assert oracle_enumerate(q) == set()


class TestOracleExists:
    def test_four_cycle(self):
        assert oracle_exists(OracleQuery((2, 2, 2, 2)))

    def test_odd_matching(self):
        assert not oracle_exists(OracleQuery((1, 1, 1)))

    def test_blocked_partial(self):
        q = OracleQuery((2, 2, 1, 1), fixed_partial=LabeledGraph(4, [(1, 2), (3, 4)]))
        assert not oracle_exists(q)


class TestSymmetry:
    def test_regular_counts_invariant_under_star_relabeling(self):
        base = len(
            oracle_enumerate(
                OracleQuery((2, 2, 2, 2), forbidden_star=ForbiddenSet(1, frozenset({2})))
            )
        )
        for i, j in itertools.permutations(range(1, 5), 2):
            q = OracleQuery((2, 2, 2, 2), forbidden_star=ForbiddenSet(i, frozenset({j})))
            assert len(oracle_enumerate(q)) == base


class TestQueryChecks:
    """A query whose star or forced edges leave the nodes 1..n is refused,
    as cg_test refuses such a star, instead of being answered."""

    @pytest.mark.parametrize(
        # A focal below 1 is refused by ForbiddenSet itself (test_core).
        "star", [ForbiddenSet(5, frozenset({1})), ForbiddenSet(1, frozenset({3})),
                 ForbiddenSet(3, frozenset({1}))],
    )
    def test_star_outside_the_nodes(self, star):
        with pytest.raises(InvalidSet):
            oracle_exists(OracleQuery((1, 1), forbidden_star=star))

    def test_partial_on_other_nodes(self):
        with pytest.raises(InvalidSet):
            oracle_exists(OracleQuery((1, 1), fixed_partial=LabeledGraph(5, [(4, 5)])))
        with pytest.raises(InvalidSet):
            oracle_exists(OracleQuery((1, 1, 1), fixed_partial=LabeledGraph(2, [(1, 2)])))

    @pytest.mark.parametrize("partial", [[(1, 2)], ((1, 2),), 2])
    def test_partial_that_is_not_a_graph(self, partial):
        with pytest.raises(InvalidSet):
            oracle_exists(OracleQuery((1, 1), fixed_partial=partial))

    @pytest.mark.parametrize("query", [[1, 1], (1, 1), None, "1 1"])
    @pytest.mark.parametrize("ask", [oracle_enumerate, oracle_exists])
    def test_query_that_is_not_an_oracle_query(self, ask, query):
        # oracle_enumerate([1, 1]) used to raise a raw AttributeError.
        with pytest.raises(InvalidArgument):
            ask(query)

    def test_oversized_star_is_not_graphical(self):
        # |X| > n - 1 - d_i leaves node 1 too few neighbours: no realization.
        star = ForbiddenSet(1, frozenset({2, 3}))
        assert oracle_exists(OracleQuery((2, 2, 2, 2), forbidden_star=star)) is False

    def test_cli_star_outside_the_nodes(self):
        for extra in ([], ["--oracle"]):
            out, err = io.StringIO(), io.StringIO()
            code = run(["test", "-s", "1 1", "--forbid", "5:1", *extra], out=out, err=err)
            assert (code, out.getvalue()) == (2, ""), extra
            assert err.getvalue().startswith("error:"), extra
