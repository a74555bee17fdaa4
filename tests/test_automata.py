"""Automaton structures, validation, metrics, and run-prefix checking."""

import pathlib
import random

import qsta.formula as fm
from gen_random import direct_reading, random_nondet, random_nondet_shaped
from qsta import (
    AlternatingAutomaton,
    ChainTerm,
    Metrics,
    NondetAutomaton,
    QcspBuilder,
    RunNode,
    RunPrefix,
    SceneNode,
    SceneTreePrefix,
    Signature,
    SpatialConstraint,
    Transition,
    load_automaton,
    metrics,
    parse_relation,
    simulate,
    validate,
    validate_run_prefix,
)


def sig2():
    return Signature(directions=("d1", "d2"), concepts=("A", "B"), features=("g", "h"))


def constraint(text_rel, arg1, arg2):
    return SpatialConstraint(
        rel=parse_relation(text_rel),
        args=(
            ChainTerm(tuple(arg1.split()[:-1]), arg1.split()[-1]),
            ChainTerm(tuple(arg2.split()[:-1]), arg2.split()[-1]),
        ),
    )


def nondet(delta, *, states=("q0",), accepting=("q0",), accept_all=None, sig=None):
    return NondetAutomaton(
        sig=sig or sig2(),
        states=states,
        initial=states[0],
        accepting=frozenset(accepting),
        delta=delta,
        accept_all=accept_all,
    )


def loop_transition(*states):
    return Transition(literals=frozenset(), constraints=frozenset(), succ=states)


# -- validation ---------------------------------------------------------------


def test_validate_clean_minimal():
    a = nondet({"q0": (loop_transition("q0", "q0"),)})
    assert validate(a) == []


def test_validate_missing_directions():
    bad_sig = Signature(directions=(), concepts=(), features=("g",))
    a = nondet({"q0": ()}, sig=bad_sig)
    assert any("no directions" in d for d in validate(a))


def test_validate_duplicate_and_clashing_names():
    bad_sig = Signature(directions=("d1", "d1"), concepts=("g",), features=("g",))
    a = nondet({"q0": ()}, sig=bad_sig)
    defects = validate(a)
    assert any("duplicate direction 'd1'" in d for d in defects)
    assert any("declared as both concept and feature" in d for d in defects)


def test_validate_unknown_states():
    a = NondetAutomaton(
        sig=sig2(),
        states=("q0",),
        initial="q9",
        accepting=frozenset({"q7"}),
        delta={"q0": (loop_transition("q0", "qX"),), "q8": ()},
    )
    defects = validate(a)
    assert any("initial: unknown state 'q9'" in d for d in defects)
    assert any("accepting: unknown state 'q7'" in d for d in defects)
    assert any("delta: unknown state 'q8'" in d for d in defects)
    assert any("unknown state 'qX'" in d for d in defects)


def test_validate_succ_arity():
    a = nondet({"q0": (loop_transition("q0", "q0", "q0"),)})
    assert any("3 successors for 2 directions" in d for d in validate(a))


def test_validate_complementary_literals():
    t = Transition(
        literals=frozenset({fm.PosLiteral("A"), fm.NegLiteral("A")}),
        constraints=frozenset(),
        succ=("q0", "q0"),
    )
    a = nondet({"q0": (t,)})
    assert any("complementary literal pair on 'A'" in d for d in validate(a))


def test_validate_unknown_constraint_names():
    t = Transition(
        literals=frozenset({fm.PosLiteral("C")}),
        constraints=frozenset({constraint("TPP", "z", "d9 g")}),
        succ=("q0", "q0"),
    )
    a = nondet({"q0": (t,)})
    defects = validate(a)
    assert any("unknown concept 'C'" in d for d in defects)
    assert any("unknown feature 'z'" in d for d in defects)
    assert any("unknown direction 'd9'" in d for d in defects)


def test_validate_accept_all_contract():
    good = nondet(
        {
            "q0": (loop_transition("sink", "sink"),),
            "sink": (loop_transition("sink", "sink"),),
        },
        states=("q0", "sink"),
        accepting=("q0", "sink"),
        accept_all="sink",
    )
    assert validate(good) == []

    not_accepting = nondet(
        {
            "q0": (),
            "sink": (loop_transition("sink", "sink"),),
        },
        states=("q0", "sink"),
        accepting=("q0",),
        accept_all="sink",
    )
    assert any("must be accepting" in d for d in validate(not_accepting))

    wrong_loop = nondet(
        {
            "q0": (),
            "sink": (loop_transition("q0", "sink"),),
        },
        states=("q0", "sink"),
        accepting=("q0", "sink"),
        accept_all="sink",
    )
    assert any("empty self loop" in d for d in validate(wrong_loop))


def test_validate_accept_all_names_a_declared_state():
    a = nondet({"q0": (loop_transition("q0", "q0"),)}, accept_all="sink")
    assert validate(a) == ["acceptall: unknown state 'sink'"]


def test_validate_reports_names_a_witness_cannot_carry():
    # the schema's name pattern forbids '"' in directions and states
    sig = Signature(("d1", "d 1", "d,2", 'd"3'), ("A", "!A", ""), ("g", "g,h", "g h"))
    states = ("q0", "q 1", "", 'q"')
    expected = [
        "signature: direction 'd 1' cannot be written in a witness",
        "signature: direction 'd,2' cannot be written in a witness",
        "signature: direction 'd\"3' cannot be written in a witness",
        "signature: concept '!A' cannot be written in a witness",
        "signature: concept '' cannot be written in a witness",
        "signature: feature 'g,h' cannot be written in a witness",
        "signature: feature 'g h' cannot be written in a witness",
        "signature: state 'q 1' cannot be written in a witness",
        "signature: state '' cannot be written in a witness",
        "signature: state 'q\"' cannot be written in a witness",
    ]
    assert validate(nondet({}, states=states, sig=sig)) == expected
    alternating = AlternatingAutomaton(
        sig=sig,
        states=states,
        initial="q0",
        accepting=frozenset({"q0"}),
        delta={state: fm.Move("d1", "q0") for state in states},
    )
    assert validate(alternating) == expected
    # simulated state names hold commas, colons, braces and '#'
    simulated = ("{a:0,b:1}", "#", "a:0,b", "{a\\,b:1}")
    assert validate(nondet({}, states=simulated, accepting=simulated)) == []


def test_validate_alternating_missing_formula_and_bad_names():
    a = AlternatingAutomaton(
        sig=sig2(),
        states=("q0", "q1"),
        initial="q0",
        accepting=frozenset({"q0"}),
        delta={"q0": fm.Move("d7", "q9")},
    )
    defects = validate(a)
    assert any("delta q1: missing transition formula" in d for d in defects)
    assert any("unknown direction 'd7'" in d for d in defects)
    assert any("unknown state 'q9'" in d for d in defects)


def test_validate_alternating_formula_nested_beyond_recursion_limit():
    # The DSL caps nesting, but formulas built through the library are not.
    leaves = [fm.PosLiteral("A") if i % 2 else fm.NegLiteral("B") for i in range(3000)]
    formula = fm.Move("d1", "q0")
    for i, leaf in reversed(list(enumerate(leaves))):
        formula = (fm.And if i % 2 else fm.Or)((leaf, formula))
    got = list(fm.generators(formula))
    assert got == leaves + [fm.Move("d1", "q0")]
    a = AlternatingAutomaton(
        sig=sig2(),
        states=("q0",),
        initial="q0",
        accepting=frozenset({"q0"}),
        delta={"q0": formula},
    )
    assert validate(a) == []


def test_transitions_default_empty():
    a = nondet({"q0": ()})
    assert a.transitions("q0") == ()
    assert a.transitions("never-declared") == ()


# -- metrics --------------------------------------------------------------


def test_metrics_single_long_chain():
    t = Transition(
        literals=frozenset(),
        constraints=frozenset({constraint("TPP", "g", "d1 d2 h")}),
        succ=("q0", "q0"),
    )
    a = nondet({"q0": (t,)})
    assert metrics(a) == Metrics(constraint_count=1, chain_length=3)


def test_metrics_counts_distinct_constraints_across_states():
    shared = constraint("EC", "g", "h")
    t1 = Transition(frozenset(), frozenset({shared, constraint("TPP", "g", "d1 g")}), ("q0", "q0"))
    t2 = Transition(frozenset(), frozenset({shared}), ("q0", "q0"))
    a = nondet({"q0": (t1, t2)})
    assert metrics(a) == Metrics(constraint_count=2, chain_length=2)


def test_metrics_constraint_free():
    a = nondet({"q0": (loop_transition("q0", "q0"),)})
    assert metrics(a) == Metrics(constraint_count=0, chain_length=1)


def _corpus_and_generated_automata():
    """The corpus, simulated where it is alternating, and the automata of
    the benchmark's ``generated`` set: criterion 5's 50 automata at seed
    31337 through both readings, and 400 ``random_nondet`` at seed 7."""
    corpus = pathlib.Path(__file__).resolve().parent.parent / "corpus"
    for path in sorted(corpus.glob("*.aut")):
        automaton = load_automaton(path.read_text())
        yield simulate(automaton) if isinstance(automaton, AlternatingAutomaton) else automaton
    rng = random.Random(31337)
    for _ in range(50):
        shaped = random_nondet_shaped(rng)
        yield simulate(shaped)
        yield direct_reading(shaped)
    rng = random.Random(7)
    for _ in range(400):
        yield random_nondet(rng, max_states=6, max_k=3)


def test_metrics_equals_the_set_of_every_transitions_constraints():
    constrained = 0
    for a in _corpus_and_generated_automata():
        constraints = {
            constraint
            for state in a.states
            for transition in a.transitions(state)
            for constraint in transition.constraints
        }
        chain_length = max((term.length for c in constraints for term in c.args), default=1)
        assert metrics(a) == Metrics(len(constraints), chain_length)
        constrained += bool(constraints)
    assert constrained > 50


# -- run prefixes ---------------------------------------------------------


def run_node(state, literals=(), constraints=(), children=()):
    return RunNode(
        state=state,
        literals=frozenset(literals),
        constraints=frozenset(constraints),
        children=tuple(children),
    )


def universal_automaton():
    """One state, requires A everywhere and TPP(g, h) at every node."""
    t = Transition(
        literals=frozenset({fm.PosLiteral("A")}),
        constraints=frozenset({constraint("TPP", "g", "h")}),
        succ=("q0", "q0"),
    )
    return nondet({"q0": (t,)})


def scene_everywhere(depth, concepts=("A",), rel_text="TPP"):
    def node(level):
        children = () if level == depth else (node(level + 1), node(level + 1))
        builder = QcspBuilder()
        builder.add(((), "g"), ((), "h"), parse_relation(rel_text))
        return SceneNode(
            concepts=frozenset(concepts), scene=builder.build(), children=children
        )

    return SceneTreePrefix(k=2, depth=depth, root=node(0))


def full_run(depth):
    def node(level):
        children = () if level == depth else (node(level + 1), node(level + 1))
        return run_node(
            "q0", {fm.PosLiteral("A")}, {constraint("TPP", "g", "h")}, children
        )

    return RunPrefix(k=2, depth=depth, root=node(0))


def test_validate_run_prefix_accepts_matching_scene():
    report = validate_run_prefix(universal_automaton(), full_run(2), scene_everywhere(2))
    assert report.defects == []
    assert report.ok


def test_validate_run_prefix_rejects_wrong_root_state():
    prefix = RunPrefix(k=2, depth=0, root=run_node("q1"))
    report = validate_run_prefix(universal_automaton(), prefix, scene_everywhere(0))
    assert any("initial" in d for d in report.defects)


def test_validate_run_prefix_rejects_missing_literal():
    scene = scene_everywhere(1, concepts=())
    report = validate_run_prefix(universal_automaton(), full_run(1), scene)
    assert any("literal" in d.lower() for d in report.defects)


def test_validate_run_prefix_rejects_unentailed_constraint():
    scene = scene_everywhere(1, rel_text="{DC,EC}")
    report = validate_run_prefix(universal_automaton(), full_run(1), scene)
    assert any("conflicts with scene" in d for d in report.defects)


def test_validate_run_prefix_rejects_an_inconsistent_scene():
    # every run constraint is entailed, but g TPP h TPP x forbids g DC x
    builder = QcspBuilder()
    builder.add(((), "g"), ((), "h"), parse_relation("TPP"))
    builder.add(((), "h"), ((), "x"), parse_relation("TPP"))
    builder.add(((), "g"), ((), "x"), parse_relation("DC"))
    scene = SceneTreePrefix(
        k=2, depth=0, root=SceneNode(concepts=frozenset({"A"}), scene=builder.build())
    )
    report = validate_run_prefix(universal_automaton(), full_run(0), scene)
    assert report.defects == [
        "scene: constraints are jointly inconsistent with the scene networks"
    ]


def test_validate_run_prefix_rejects_unmatched_transition():
    # Frontier node drops the literal A, so no transition matches its (L, X).
    def node(level):
        if level == 0:
            return run_node(
                "q0", {fm.PosLiteral("A")}, {constraint("TPP", "g", "h")},
                (node(1), node(1)),
            )
        return run_node("q0", (), {constraint("TPP", "g", "h")})

    prefix = RunPrefix(k=2, depth=1, root=node(0))
    report = validate_run_prefix(universal_automaton(), prefix, scene_everywhere(1))
    assert any("transition" in d.lower() for d in report.defects)


def test_validate_run_prefix_reports_beyond_horizon_constraints():
    t = Transition(
        literals=frozenset(),
        constraints=frozenset({constraint("EQ", "g", "d1 d2 g")}),
        succ=("q0", "q0"),
    )
    a = nondet({"q0": (t,)})

    def node(level):
        children = () if level == 1 else (node(1), node(1))
        return run_node("q0", (), {constraint("EQ", "g", "d1 d2 g")}, children)

    def scene_node(level):
        children = () if level == 1 else (scene_node(1), scene_node(1))
        builder = QcspBuilder()
        builder.add_variable(((), "g"))
        return SceneNode(concepts=frozenset(), scene=builder.build(), children=children)

    prefix = RunPrefix(k=2, depth=1, root=node(0))
    scene = SceneTreePrefix(k=2, depth=1, root=scene_node(0))
    report = validate_run_prefix(a, prefix, scene)
    assert report.defects == []
    assert report.unchecked  # the chain runs past the prefix horizon

