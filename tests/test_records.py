"""The library's value types: equality, hashing, repr and immutability."""

import copy
import pickle
from fractions import Fraction

import pytest

from graphreal.constrained import ReducedSequence
from graphreal.core import AdjacencySet, DegreeSequence, ForbiddenSet, LabeledGraph
from graphreal.enumeration import CountResult
from graphreal.graphicality import EgReport
from graphreal.oracle import OracleQuery
from graphreal.sampling import CountEstimate, MrRunStats, RealizationSample

EDGE = LabeledGraph(2, [(1, 2)])

# (class, field names, the fields of one record, those of another), with
# each field given as the record stores it.
RECORDS = [
    (DegreeSequence, "degrees permutation", ((2, 1, 1), (3, 1, 2)), ((2, 1, 1), None)),
    (AdjacencySet, "focal members", (1, (2, 3)), (1, (2, 4))),
    (ForbiddenSet, "focal members", (1, frozenset({2})), (1, frozenset({3}))),
    (LabeledGraph, "n edges", (3, frozenset({(1, 2)})), (3, frozenset({(1, 3)}))),
    (EgReport, "graphical parity_ok first_violated_k s_bound",
     (True, True, None, 1), (False, True, 2, 2)),
    (ReducedSequence, "residuals removed", ((0, 1, 1), 1), ((0, 1, 1), 2)),
    (CountResult, "count memo_hits memo_entries", (3, 1, 2), (3, 1, 3)),
    (RealizationSample, "graph probability branch_sizes",
     (EDGE, Fraction(1, 2), (2,)), (EDGE, Fraction(1, 3), (3,))),
    (CountEstimate, "estimate stderr samples", (Fraction(3), 0.5, 10), (Fraction(3), 0.5, 11)),
    (OracleQuery, "degrees forbidden_star fixed_partial",
     ((1, 1), None, None), ((1, 1), ForbiddenSet(1, frozenset()), EDGE)),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, names, fields, other", RECORDS, ids=IDS)
class TestFrozenRecord:
    def test_fields_by_position_and_by_name(self, cls, names, fields, other):
        record = cls(*fields)
        assert tuple(getattr(record, name) for name in names.split()) == fields
        assert cls(**dict(zip(names.split(), fields))) == record

    def test_equality_and_hash(self, cls, names, fields, other):
        assert cls(*fields) == cls(*fields)
        assert not cls(*fields) != cls(*fields)
        assert cls(*fields) != cls(*other)
        assert hash(cls(*fields)) == hash(cls(*fields)) == hash(fields)
        assert len({cls(*fields), cls(*fields), cls(*other)}) == 2

    def test_never_equal_to_its_fields(self, cls, names, fields, other):
        assert cls(*fields) != fields

    def test_fields_cannot_change(self, cls, names, fields, other):
        record = cls(*fields)
        for name in [*names.split(), "extra"]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == cls(*fields)

    def test_repr_in_dataclass_form(self, cls, names, fields, other):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names.split(), fields))
        assert repr(cls(*fields)) == f"{cls.__name__}({shown})"

    def test_copy_and_pickle(self, cls, names, fields, other):
        record = cls(*fields)
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is cls and twin == record


def test_pinned_repr():
    assert repr(EgReport(True, True, None, 1)) == (
        "EgReport(graphical=True, parity_ok=True, first_violated_k=None, s_bound=1)"
    )


def test_records_of_different_classes_differ():
    assert CountResult(3, 1, 2) != CountEstimate(3, 1, 2)
    assert AdjacencySet(1, (2,)) != ForbiddenSet(1, frozenset({2}))


@pytest.mark.parametrize(
    "args, kwargs",
    [((True, True, None), {}), ((True, True, None, 1, 2), {}),
     ((True, True, None), {"bound": 1}), ((True, True, None, 1), {"graphical": False})],
)
def test_fields_must_match_exactly(args, kwargs):
    with pytest.raises(TypeError):
        EgReport(*args, **kwargs)


def test_trusted_graph_equals_checked_graph():
    trusted = LabeledGraph._trusted(4, [(1, 2), (2, 4)])
    checked = LabeledGraph(4, [(4, 2), (2, 1)])
    assert trusted == checked and hash(trusted) == hash(checked)
    assert repr(trusted) == repr(checked)


class TestMrRunStats:
    def test_defaults_and_repr(self):
        assert repr(MrRunStats()) == (
            "MrRunStats(restarts=0, rejection_causes={'self_loop': 0, "
            "'multi_edge': 0, 'cg_reject': 0}, stub_connections_made=0)"
        )

    def test_each_run_has_its_own_causes(self):
        a, b = MrRunStats(), MrRunStats()
        a.rejection_causes["cg_reject"] += 1
        assert b.rejection_causes["cg_reject"] == 0
        assert a != b

    def test_mutable_and_unhashable(self):
        stats = MrRunStats()
        stats.restarts += 2
        stats.stub_connections_made = 7
        assert stats == MrRunStats(2, {"self_loop": 0, "multi_edge": 0, "cg_reject": 0}, 7)
        with pytest.raises(TypeError):
            hash(stats)
