"""One table-driven contract over every public name of ``graphreal``.

Each parameter of each public callable is given a fixed list of bad
values.  A call must either raise a ``GraphRealError`` or return what the
same call returns on the value coerced as the parameter's kind says (a
bool counts as its int, a one-shot iterator as the items it yields).  Each
call runs under a ``signal.alarm`` budget, so a hang fails too.

Two exemptions:

- a parameter that counts requested work (``samples``) is not given huge
  ints, which would only ask for that much work;
- records that only hold their fields (``RECORDS``) take any value.
  ``DegreeSequence``, ``AdjacencySet``, ``ForbiddenSet``, ``LabeledGraph``,
  ``OracleQuery`` and ``SplitMix64`` check their input and are covered.
"""

import math
import operator
import signal
import sys
from collections.abc import Iterator

import pytest

import graphreal
from graphreal import (
    AdjacencySet,
    DegreeSequence,
    ForbiddenSet,
    GraphRealError,
    LabeledGraph,
    NodeSelectionPolicy,
    OracleQuery,
    SplitMix64,
)

RECORDS = {"CountResult", "EgReport", "RealizationSample", "CountEstimate",
           "MrRunStats", "ReducedSequence"}

ONE_SHOT = object()  # stands for a one-shot iterator over the good value
HUGE = 10**30
BAD = [None, True, 1.5, math.nan, math.inf, -1, HUGE, "1 1", b"\x01\x01",
       [[1, 1], [2]], [(1, 2, 3)], (), (1, 2, 3), ONE_SHOT]


class Uncoercible(Exception):
    """The value has no coercion to the parameter's kind."""


def _ints(v):
    try:
        return tuple(map(operator.index, v))
    except TypeError:
        raise Uncoercible from None


def _int(v):
    return _ints([v])[0]


def _count(v):  # an int that counts requested work
    return _int(v)


def _instance(*types):
    def coerce(v):
        if isinstance(v, types):
            return v
        raise Uncoercible
    return coerce


def _policy(v):
    if isinstance(v, NodeSelectionPolicy) or v in ("max", "min", "fixed"):
        return v
    raise Uncoercible


def _labels(v):
    return v if isinstance(v, ForbiddenSet) else frozenset(_ints(v))


def _edges(v):
    try:
        edges = [_ints(e) for e in v]
    except TypeError:  # not iterable
        raise Uncoercible from None
    if any(len(e) != 2 for e in edges):
        raise Uncoercible
    return edges


# How each kind of parameter coerces a value; Uncoercible if it cannot.
DEGREES = _ints
INT = _int
WORK = _count
FLAG = bool
TEXT = _instance(str)


def ANY(v):
    return v


def OPTIONAL_INTS(v):
    return v if v is None else _ints(v)


GOOD_GRAPH = LabeledGraph(3, [(1, 2), (2, 3)])
GOOD_SET = AdjacencySet(1, (2,))
GOOD_QUERY = OracleQuery((1, 1, 2, 2))


def _error(cls):
    return (cls, [("message", "bad", ANY)])


# name -> (callable, [(parameter, good value, kind)]).  A method is called on
# a fixed receiver, or on a fresh one where the call changes it (randrange).
TABLE = {
    **{name: _error(getattr(graphreal, name)) for name in [
        "DegreeTooLarge", "GraphRealError", "Incomparable", "InvalidArgument",
        "InvalidDegree", "InvalidSet", "NotGraphical", "OracleTooLarge", "ParseError",
        "TooManyForbidden"]},
    "RestartBudgetExceeded": (graphreal.RestartBudgetExceeded,
                              [("message", "bad", ANY), ("stats", None, ANY)]),
    "AdjacencySet": (AdjacencySet, [("focal", 1, INT), ("members", (2, 3), DEGREES)]),
    "DegreeSequence": (DegreeSequence, [("degrees", (2, 1, 1), DEGREES),
                                        ("permutation", (3, 1, 2), OPTIONAL_INTS)]),
    "DegreeSequence.degree_of": (lambda label: DegreeSequence((2, 1, 1)).degree_of(label),
                                 [("label", 2, INT)]),
    "ForbiddenSet": (ForbiddenSet, [("focal", 1, INT), ("members", (2, 3), _labels)]),
    "LabeledGraph": (LabeledGraph, [("n", 3, INT), ("edges", [(1, 2), (2, 3)], _edges)]),
    "LabeledGraph.has_edge": (lambda u, v: GOOD_GRAPH.has_edge(u, v),
                              [("u", 1, INT), ("v", 2, INT)]),
    "LabeledGraph.neighbors": (lambda v: GOOD_GRAPH.neighbors(v), [("v", 2, INT)]),
    "format_graph": (graphreal.format_graph, [("g", GOOD_GRAPH, _instance(LabeledGraph))]),
    "format_sequence": (graphreal.format_sequence, [("d", (2, 1, 1), DEGREES)]),
    "graph_degree_sequence": (graphreal.graph_degree_sequence,
                              [("g", GOOD_GRAPH, _instance(LabeledGraph))]),
    "parse_graphs": (graphreal.parse_graphs, [("text", "graph n=2 m=1\n1 2\n", TEXT)]),
    "parse_sequence": (graphreal.parse_sequence, [("line", "2 1 1", TEXT)]),
    "parse_sequences": (graphreal.parse_sequences, [("text", "2 1 1\n1 1\n", TEXT)]),
    "validate_input_sequence": (graphreal.validate_input_sequence,
                                [("raw", (1, 0, 2, 1), DEGREES)]),
    "NodeSelectionPolicy": (NodeSelectionPolicy, [("value", "min", _policy)]),
    "erdos_gallai_test": (graphreal.erdos_gallai_test,
                          [("d", (2, 2, 2), DEGREES), ("check_all_k", False, FLAG)]),
    "havel_hakimi_construct": (graphreal.havel_hakimi_construct,
                               [("d", (2, 2, 1, 1), DEGREES), ("policy", "min", _policy)]),
    "havel_hakimi_reduce": (graphreal.havel_hakimi_reduce, [("d", (2, 2, 1, 1), DEGREES)]),
    "cg_test": (graphreal.cg_test, [("d", (2, 2, 1, 1), DEGREES), ("i", 3, INT),
                                    ("x", (4,), _labels)]),
    "leftmost_restricted": (graphreal.leftmost_restricted,
                            [("d", (2, 2, 1, 1), DEGREES), ("i", 3, INT),
                             ("x", (4,), _labels)]),
    "reduce_by_set": (graphreal.reduce_by_set,
                      [("d", (1, 1), DEGREES), ("a", GOOD_SET, _instance(AdjacencySet))]),
    "set_leq": (graphreal.set_leq, [("b", GOOD_SET, _instance(AdjacencySet)),
                                    ("a", AdjacencySet(1, (3,)), _instance(AdjacencySet))]),
    "colex_less": (graphreal.colex_less, [("a", GOOD_SET, _instance(AdjacencySet)),
                                          ("b", AdjacencySet(1, (3,)),
                                           _instance(AdjacencySet))]),
    "all_adjacency_sets": (graphreal.all_adjacency_sets, [("d", (2, 2, 1, 1), DEGREES)]),
    "count_realizations": (graphreal.count_realizations, [("d", (2, 2, 1, 1), DEGREES)]),
    "enumerate_all": (graphreal.enumerate_all, [("d", (2, 2, 1, 1), DEGREES)]),
    "enumerate_all_parallel": (graphreal.enumerate_all_parallel,
                               [("d", (2, 2, 1, 1), DEGREES), ("threads", 2, INT),
                                ("ordered", True, FLAG)]),
    "rightmost_adjacency_set": (graphreal.rightmost_adjacency_set,
                                [("d", (2, 2, 1, 1), DEGREES)]),
    "SplitMix64": (SplitMix64, [("state", 5, INT)]),
    "SplitMix64.stream": (SplitMix64.stream, [("seed", 1, INT), ("index", 2, INT)]),
    "SplitMix64.randrange": (lambda n: SplitMix64(5).randrange(n), [("n", 6, INT)]),
    "enumerate_with_probabilities": (graphreal.enumerate_with_probabilities,
                                     [("d", (2, 2, 1, 1), DEGREES)]),
    "estimate_count": (graphreal.estimate_count, [("d", (2, 2, 1, 1), DEGREES),
                                                  ("samples", 3, WORK), ("seed", 1, INT)]),
    "molloy_reed_sample": (graphreal.molloy_reed_sample,
                           [("d", (2, 2, 1, 1), DEGREES), ("seed", 1, INT),
                            ("early_reject", True, FLAG), ("budget", 1000, INT),
                            ("stream", 2, INT)]),
    "sample_weighted": (graphreal.sample_weighted, [("d", (2, 2, 1, 1), DEGREES),
                                                    ("seed", 1, INT), ("stream", 2, INT)]),
    "OracleQuery": (OracleQuery, [
        ("degrees", (1, 1, 2, 2), DEGREES),
        ("forbidden_star", ForbiddenSet(3, {4}), _instance(ForbiddenSet, type(None))),
        ("fixed_partial", LabeledGraph(4, [(1, 3)]), _instance(LabeledGraph, type(None))),
    ]),
    "oracle_enumerate": (graphreal.oracle_enumerate,
                         [("q", GOOD_QUERY, _instance(OracleQuery))]),
    "oracle_exists": (graphreal.oracle_exists, [("q", GOOD_QUERY, _instance(OracleQuery))]),
}


def _value(result):
    """What a result is, for comparison: iterators are drained, and the
    objects that do not compare by value are read out."""
    if isinstance(result, Iterator):
        return [_value(r) for r in result]
    if isinstance(result, tuple):
        return tuple(_value(r) for r in result)
    if isinstance(result, LabeledGraph):
        return ("graph", result.n, result.canonical_edges(), result.degrees())
    if isinstance(result, SplitMix64):
        return ("rng", result._state)
    if isinstance(result, BaseException):
        return ("error", type(result), _value(result.args))
    return result


def _outcome(fn, args):
    """``("returned", value)`` of ``fn(*args)``, or ``("raised", type)`` for
    a library error; any other exception propagates."""
    try:
        return "returned", _value(fn(*args))
    except GraphRealError as exc:
        return "raised", type(exc)


def _cases():
    for name, (_, params) in TABLE.items():
        for k, (param, _, kind) in enumerate(params):
            for j, bad in enumerate(BAD):
                if bad is HUGE and kind is WORK:
                    continue  # the first exemption
                yield pytest.param(name, k, bad, id=f"{name}-{param}-{j}")


def _overdue(signum, frame):
    raise TimeoutError("call did not return in time")


@pytest.mark.parametrize("name, k, bad", _cases())
def test_bad_value_is_refused_or_coerced(name, k, bad):
    fn, params = TABLE[name]
    _, good, coerce = params[k]
    if bad is ONE_SHOT:
        items = list(good) if isinstance(good, (tuple, list)) else [good]
        fresh = lambda: iter(items)  # noqa: E731
    else:
        fresh = lambda: bad  # noqa: E731
    args = [value for _, value, _ in params]
    handler = signal.signal(signal.SIGALRM, _overdue)
    signal.alarm(10)
    try:
        args[k] = fresh()
        got = _outcome(fn, args)
        try:
            args[k] = coerce(fresh())
        except Uncoercible:
            assert got[0] == "raised", f"{got} for a value with no coercion"
            return
        want = _outcome(fn, args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert got[0] == "raised" or got == want, (got, want)


def test_every_public_name_is_in_the_table():
    covered = {name.split(".")[0] for name in TABLE} | RECORDS
    assert set(graphreal.__all__) == covered


def test_good_values_are_accepted():
    for name, (fn, params) in TABLE.items():
        got = _outcome(fn, [value for _, value, _ in params])
        assert got[0] == "returned", (name, got)


@pytest.mark.parametrize("call, error", [
    (lambda: graphreal.reduce_by_set((1, 1), None), graphreal.InvalidSet),
    (lambda: graphreal.set_leq(None, AdjacencySet(1, (2,))), graphreal.InvalidSet),
    (lambda: graphreal.colex_less(None, AdjacencySet(1, (2,))), graphreal.InvalidSet),
    (lambda: graphreal.validate_input_sequence(None), graphreal.InvalidDegree),
    (lambda: graphreal.validate_input_sequence(1.5), graphreal.InvalidDegree),
    (lambda: graphreal.validate_input_sequence(7), graphreal.InvalidDegree),
    (lambda: graphreal.validate_input_sequence(iter([])), graphreal.InvalidDegree),
    (lambda: SplitMix64(None), graphreal.InvalidArgument),
    (lambda: SplitMix64(1.5), graphreal.InvalidArgument),
    (lambda: SplitMix64("3"), graphreal.InvalidArgument),
    (lambda: LabeledGraph(10**30), graphreal.InvalidArgument),
    (lambda: DegreeSequence((1, 1), 1.5), graphreal.InvalidArgument),
    (lambda: NodeSelectionPolicy("largest"), graphreal.InvalidArgument),
    (lambda: graphreal.enumerate_all_parallel((1, 1), threads=None), graphreal.InvalidArgument),
], ids=["reduce_by_set", "set_leq", "colex_less", "validate-None", "validate-1.5",
        "validate-7", "validate-empty-iterator", "SplitMix64-None", "SplitMix64-1.5",
        "SplitMix64-str", "LabeledGraph-huge-n", "DegreeSequence-permutation",
        "NodeSelectionPolicy", "enumerate_all_parallel-threads"])
def test_refused_with_a_library_error(call, error):
    with pytest.raises(error):
        call()


def test_iterators_are_read_once():
    assert graphreal.validate_input_sequence(iter([1, 1])) == \
        graphreal.validate_input_sequence([1, 1])
    assert DegreeSequence((2, 1, 1), iter([3, 1, 2])).permutation == (3, 1, 2)


def test_largest_node_count_is_accepted():
    assert LabeledGraph(sys.maxsize).n == sys.maxsize
