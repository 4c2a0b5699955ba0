"""Property tests against the brute-force oracle, for n <= 8.

The example budget is bounded so that the suite stays fast; each example
is checked against definitions that share no code with the construction.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphreal.constrained import cg_test
from graphreal.core import ForbiddenSet, NotGraphical, TooManyForbidden
from graphreal.enumeration import all_adjacency_sets, count_realizations
from graphreal.graphicality import erdos_gallai_test
from graphreal.oracle import OracleQuery, oracle_enumerate, oracle_exists

MAX_N = 8


@st.composite
def degrees_of_a_graph(draw):
    """The nonincreasing degree sequence of a random simple graph."""
    n = draw(st.integers(1, MAX_N))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return tuple(sorted(degrees, reverse=True))


# Graphical sequences, and arbitrary ones of which most are not.
sequences = st.one_of(
    degrees_of_a_graph(),
    st.lists(st.integers(0, MAX_N - 1), min_size=1, max_size=MAX_N).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    ),
)


@given(sequences)
@settings(max_examples=150, deadline=None)
def test_erdos_gallai_matches_oracle(seq):
    assert erdos_gallai_test(seq).graphical == oracle_exists(OracleQuery(seq))


@given(sequences, st.data())
@settings(max_examples=150, deadline=None)
def test_cg_matches_oracle(seq, data):
    n = len(seq)
    i = data.draw(st.integers(1, n))
    room = n - 1 - seq[i - 1]  # allowed non-neighbours of node i
    if room < 0:
        with pytest.raises(TooManyForbidden):
            cg_test(seq, i)
        return
    others = [j for j in range(1, n + 1) if j != i]
    x = data.draw(st.sets(st.sampled_from(others), max_size=room)) if room else set()
    star = ForbiddenSet(i, frozenset(x))
    assert cg_test(seq, i, star) == oracle_exists(OracleQuery(seq, forbidden_star=star))


@given(sequences)
@settings(max_examples=150, deadline=None)
def test_count_matches_oracle(seq):
    assert count_realizations(seq).count == len(oracle_enumerate(OracleQuery(seq)))


def brute_force_adjacency_sets(seq):
    """Neighbour sets of node 1 that some realization of ``seq`` has."""
    out = []
    for cand in itertools.combinations(range(2, len(seq) + 1), seq[0]):
        residual = [0] + list(seq[1:])
        for v in cand:
            residual[v - 1] -= 1
        if min(residual) >= 0 and oracle_exists(OracleQuery(residual)):
            out.append(cand)
    return out


@given(sequences)
@settings(max_examples=150, deadline=None)
def test_adjacency_sets_match_definition(seq):
    if not seq[0] or not oracle_exists(OracleQuery(seq)):
        with pytest.raises(NotGraphical):
            all_adjacency_sets(seq)
        return
    got = [a.members for a in all_adjacency_sets(seq)]
    want = brute_force_adjacency_sets(seq)
    # Decreasing colex order: compare the largest members first.
    assert got == sorted(want, key=lambda m: m[::-1], reverse=True)
