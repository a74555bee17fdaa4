"""Value semantics of the package's record types: constructors, equality,
hash, immutability, repr, copy and pickle."""

import copy
import pickle

import pytest

from qsta import (
    AlternatingAutomaton,
    And,
    ChainTerm,
    Decision,
    Disjunct,
    FiniteTreeModel,
    FtmNode,
    Metrics,
    Move,
    NegLiteral,
    NondetAutomaton,
    Or,
    PosLiteral,
    PtpTriple,
    Qcsp,
    Relation,
    RunNode,
    RunPrefix,
    SceneNode,
    SceneTreePrefix,
    Signature,
    SpatialConstraint,
    Transition,
)
from qsta.automata import PrefixReport
from qsta.emptiness import BoundsReport, SearchStats

G = ChainTerm((), "g")
D1G = ChainTerm(("d1",), "g")
TPP = SpatialConstraint(Relation.of("TPP", "NTPP"), (D1G, G))
LITERALS = frozenset({PosLiteral("A"), NegLiteral("B")})
SIG = Signature(("d1", "d2"), ("A", "B"), ("g",))
STEP = Transition(LITERALS, frozenset({TPP}), ("q", "q"))
TRIPLE = PtpTriple(TPP, 1, G)
LEAF = FtmNode("q", frozenset(), frozenset(), (), (), frozenset({TRIPLE}))
ROOT = FtmNode("q", LITERALS, frozenset({TPP}), (("d1",),), None, frozenset())
SCENE = Qcsp(((("d1",), "g"), ((), "g")), {}, {})
RUN = RunNode("q", LITERALS, frozenset({TPP}))

# Every value class with one value per field, in constructor order.
FROZEN = [
    (Relation, {"mask": 5}),
    (ChainTerm, {"path": ("d1", "d2"), "feature": "g"}),
    (SpatialConstraint, {"rel": Relation.of("EQ"), "args": (G, D1G)}),
    (PosLiteral, {"name": "A"}),
    (NegLiteral, {"name": "A"}),
    (Move, {"direction": "d1", "state": "q"}),
    (And, {"children": (PosLiteral("A"), Move("d1", "q"))}),
    (Or, {"children": (PosLiteral("A"), Move("d1", "q"))}),
    (Disjunct, {"literals": LITERALS, "constraints": frozenset({TPP}), "moves": frozenset()}),
    (Signature, {"directions": ("d1", "d2"), "concepts": ("A",), "features": ("g",)}),
    (Transition, {"literals": LITERALS, "constraints": frozenset({TPP}), "succ": ("q", "r")}),
    (
        AlternatingAutomaton,
        {"sig": SIG, "states": ("q",), "initial": "q", "accepting": frozenset({"q"}),
         "delta": {"q": PosLiteral("A")}},
    ),
    (
        NondetAutomaton,
        {"sig": SIG, "states": ("q",), "initial": "q", "accepting": frozenset({"q"}),
         "delta": {"q": (STEP,)}, "accept_all": "q"},
    ),
    (Metrics, {"constraint_count": 3, "chain_length": 2}),
    (RunNode, {"state": "q", "literals": LITERALS, "constraints": frozenset({TPP}), "children": (RUN, RUN)}),
    (RunPrefix, {"k": 2, "depth": 1, "root": RUN}),
    (SceneNode, {"concepts": frozenset({"A"}), "scene": SCENE, "children": ()}),
    (SceneTreePrefix, {"k": 2, "depth": 0, "root": SceneNode(frozenset(), SCENE)}),
    (Qcsp, {"variables": ("x", "y"), "edges": {("x", "y"): Relation.of("DC")}, "selfs": {}}),
    (PtpTriple, {"constraint": TPP, "arg_index": 1, "remaining": G}),
    (
        FtmNode,
        {"state": "q", "literals": LITERALS, "constraints": frozenset({TPP}),
         "children": (("d1",),), "backnode": None, "ptpge": frozenset({TRIPLE})},
    ),
    (FiniteTreeModel, {"directions": ("d1",), "nodes": {(): ROOT, ("d1",): LEAF}}),
    (PrefixReport, {"defects": ["x"], "unchecked": []}),
    (SearchStats, {"nodes_created": 3, "peak_nodes": 2, "csp_checks": 1, "bound_exceeded": False}),
    (
        BoundsReport,
        {"internal_count": 1, "leaf_count": 2, "internal_bound": 3, "leaf_bound": 4,
         "clamped": False, "duplicate_signatures": [("a", "b")]},
    ),
    (Decision, {"nonempty": True, "witness": None, "prefix_defects": [], "stats": SearchStats()}),
]


def _ids(cases):
    return [cls.__name__ for cls, _ in cases]


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as error:
        return type(error)


@pytest.mark.parametrize("cls, fields", FROZEN, ids=_ids(FROZEN))
def test_equal_fields_give_equal_values(cls, fields):
    positional = cls(*fields.values())
    by_keyword = cls(**fields)
    assert positional == by_keyword
    assert not positional != by_keyword
    assert [getattr(positional, name) for name in fields] == list(fields.values())
    assert positional != object()
    assert positional.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("cls, fields", FROZEN, ids=_ids(FROZEN))
def test_a_constructed_value_is_of_its_own_class(cls, fields):
    # a class with an open twin moves each value back out of it
    assert type(cls(*fields.values())) is cls
    assert type(cls(**fields)) is cls


@pytest.mark.parametrize("cls, fields", FROZEN, ids=_ids(FROZEN))
def test_a_frozen_value_hashes_as_the_tuple_of_its_fields(cls, fields):
    value = cls(**fields)
    if cls is Qcsp:
        with pytest.raises(TypeError):
            hash(value)
    else:
        # a dict field makes both sides raise TypeError
        assert _hash_or_error(value) == _hash_or_error(tuple(fields.values()))


@pytest.mark.parametrize("cls, fields", FROZEN, ids=_ids(FROZEN))
def test_assigning_a_frozen_field_raises(cls, fields):
    value = cls(**fields)
    name, old = next(iter(fields.items()))
    with pytest.raises(AttributeError):
        setattr(value, name, old)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) is old


@pytest.mark.parametrize("cls, fields", FROZEN, ids=_ids(FROZEN))
def test_repr_names_the_class_and_its_fields(cls, fields):
    value = cls(**fields)
    if cls is Relation:
        assert repr(value) == "Relation.of('DC', 'PO')"
    else:
        shown = ", ".join(f"{name}={field!r}" for name, field in fields.items())
        assert repr(value) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields", FROZEN, ids=_ids(FROZEN))
def test_copy_and_pickle_rebuild_an_equal_value(cls, fields):
    value = cls(**fields)
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_defaults():
    assert Metrics(1, 2).arity == 2
    assert RunNode("q", frozenset(), frozenset()).children == ()
    assert SceneNode(frozenset(), SCENE).children == ()
    assert NondetAutomaton(SIG, ("q",), "q", frozenset(), {}).accept_all is None
    assert SearchStats() == SearchStats(0, 0, 0, False)
    assert PrefixReport() == PrefixReport([], [])
    assert BoundsReport(1, 2, 3, 4, True).duplicate_signatures == []
    decision = Decision(False)
    assert (decision.witness, decision.prefix_defects, decision.stats) == (None, [], None)
    assert Qcsp(("x",), {}).selfs == {}


def test_list_and_dict_defaults_are_fresh_per_instance():
    first, second = PrefixReport(), PrefixReport()
    first.defects.append("x")
    first.unchecked.append("y")
    assert (second.defects, second.unchecked) == ([], [])
    assert BoundsReport(1, 2, 3, 4, True).duplicate_signatures is not (
        BoundsReport(1, 2, 3, 4, True).duplicate_signatures
    )
    assert Decision(True).prefix_defects is not Decision(True).prefix_defects
    assert Qcsp(("x",), {}).selfs is not Qcsp(("x",), {}).selfs


def test_values_of_different_classes_differ():
    children = (PosLiteral("A"), NegLiteral("B"))
    assert PosLiteral("A") != NegLiteral("A")
    assert And(children) != Or(children)
    assert hash(PosLiteral("A")) == hash(NegLiteral("A"))
    assert len({PosLiteral("A"), NegLiteral("A")}) == 2


def test_qcsp_compares_its_networks_not_its_variable_order():
    edges = {("x", "y"): Relation.of("DC"), ("y", "x"): Relation.of("DC")}
    assert Qcsp(("x", "y"), edges) == Qcsp(("y", "x"), dict(reversed(list(edges.items()))), {})
    assert Qcsp(("x", "y"), edges) != Qcsp(("x", "y"), {})


def test_constructors_check_their_fields():
    with pytest.raises(ValueError, match="invalid relation mask 256"):
        Relation(256)
    with pytest.raises(ValueError, match="spatial constraints are binary"):
        SpatialConstraint(Relation.of("EQ"), (G,))
    with pytest.raises(ValueError, match="And needs at least one child"):
        And(())
    with pytest.raises(ValueError, match="Or needs at least one child"):
        Or(())
    with pytest.raises(ValueError, match="argument index must be 1 or 2"):
        PtpTriple(TPP, 3, G)
    with pytest.raises(ValueError, match="remaining chain is not a strict suffix"):
        PtpTriple(TPP, 1, D1G)
