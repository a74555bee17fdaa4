"""Breakpoint simulation of alternating automata by nondeterministic ones."""

import hashlib
import itertools
import random

import pytest

import qsta.formula as fm
from gen_random import direct_reading, random_alternating, random_nondet_shaped
from qsta import (
    AlternatingAutomaton,
    ChainTerm,
    ResourceLimitError,
    Signature,
    SpatialConstraint,
    decide,
    load_automaton,
    parse_relation,
    print_automaton,
    sim_state_bound,
    simulate,
    validate,
)
from qsta.simulate import ACCEPT_ALL_NAME, sim_state_name


def sig2():
    return Signature(directions=("d1", "d2"), concepts=("A",), features=("g",))


def alternating(delta, *, states=("q0",), accepting=("q0",), sig=None):
    return AlternatingAutomaton(
        sig=sig or sig2(),
        states=states,
        initial=states[0],
        accepting=frozenset(accepting),
        delta=delta,
    )


def test_sim_state_bound_spot_values():
    assert sim_state_bound(2, 1) == 7
    assert sim_state_bound(1, 1) == 3
    assert sim_state_bound(3, 0) == 28


def test_sim_state_bound_rejects_bad_sizes():
    with pytest.raises(ValueError):
        sim_state_bound(-1, 0)
    with pytest.raises(ValueError):
        sim_state_bound(1, 2)


def test_sim_state_name_is_sorted_and_tagged():
    name = sim_state_name(frozenset({("qb", 0), ("qa", 1)}))
    assert name == "{qa:1,qb:0}"


def test_sim_state_name_tells_every_state_set_apart():
    names = ["".join(p) for n in (1, 2, 3) for p in itertools.product("a,:\\", repeat=n)]
    members = [(name, tag) for name in names for tag in (0, 1)]
    sets = [frozenset(c) for r in (0, 1, 2) for c in itertools.combinations(members, r)]
    assert len({sim_state_name(s) for s in sets}) == len(sets)
    assert sim_state_name(frozenset({("a:0,b", 1)})) == "{a\\:0\\,b:1}"
    assert sim_state_name(frozenset({("a", 0), ("b", 1)})) == "{a:0,b:1}"

    # unescaped, {a:1, "b:0,c":0} and {"a:1,b":0, c:0} would share a name
    targets = ["a", "a:1,b", "c", "b:0,c", "\\", "\\:1"]
    moves = [fm.Move("d1", t) for t in targets]
    delta = {"s": fm.Or(tuple(fm.And(pair) for pair in itertools.combinations(moves, 2)))}
    delta.update((t, fm.Move("d1", t)) for t in targets)
    sig = Signature(directions=("d1",), concepts=("A",), features=("g",))
    out = simulate(alternating(delta, states=("s", *targets), accepting=("a",), sig=sig))
    # {s:0}, one state per pair of targets, and the sink
    assert len(set(out.states)) == len(out.states) == 1 + 15 + 1
    assert load_automaton(print_automaton(out)) == out


def test_simulate_universal_self_loop():
    """Conjunction of moves into the single accepting state collapses to one
    live product state plus the sink."""
    a = alternating({"q0": fm.And((fm.Move("d1", "q0"), fm.Move("d2", "q0")))})
    s = simulate(a)
    assert s.states == ("{q0:1}", ACCEPT_ALL_NAME)
    assert s.initial == "{q0:1}"
    assert s.accept_all == ACCEPT_ALL_NAME
    assert set(s.accepting) == {"{q0:1}", ACCEPT_ALL_NAME}
    [t] = s.transitions("{q0:1}")
    assert t.succ == ("{q0:1}", "{q0:1}")
    assert t.literals == frozenset() and t.constraints == frozenset()
    [sink_loop] = s.transitions(ACCEPT_ALL_NAME)
    assert sink_loop.succ == (ACCEPT_ALL_NAME, ACCEPT_ALL_NAME)
    assert validate(s) == []
    assert len(s.states) <= sim_state_bound(1, 1)


def test_simulate_moveless_direction_goes_to_sink():
    a = alternating({"q0": fm.Move("d1", "q0")})
    s = simulate(a)
    [t] = s.transitions(s.initial)
    assert t.succ == ("{q0:1}", ACCEPT_ALL_NAME)


def test_simulate_contradictory_formula_has_no_transitions():
    a = alternating({"q0": fm.And((fm.PosLiteral("A"), fm.NegLiteral("A")))})
    s = simulate(a)
    assert s.transitions(s.initial) == ()
    assert decide(s).verdict == "empty"


def test_simulate_literals_and_constraints_carried_over():
    c = SpatialConstraint(
        rel=parse_relation("TPP"),
        args=(ChainTerm((), "g"), ChainTerm(("d1",), "g")),
    )
    a = alternating(
        {
            "q0": fm.And(
                (
                    fm.PosLiteral("A"),
                    c,
                    fm.Move("d1", "q0"),
                    fm.Move("d2", "q0"),
                )
            )
        }
    )
    s = simulate(a)
    [t] = s.transitions(s.initial)
    assert t.literals == frozenset({fm.PosLiteral("A")})
    assert t.constraints == frozenset({c})


def test_simulate_discards_choice_with_complementary_literal_union():
    """Two member states whose chosen disjuncts force A and !A cannot share
    a transition; with no alternative the product state is a dead end."""
    a = alternating(
        {
            "q0": fm.And(
                (fm.PosLiteral("A"), fm.Move("d1", "q1"), fm.Move("d1", "q2"))
            ),
            "q1": fm.And((fm.PosLiteral("A"), fm.Move("d1", "q1"))),
            "q2": fm.And((fm.NegLiteral("A"), fm.Move("d1", "q2"))),
        },
        states=("q0", "q1", "q2"),
        accepting=("q0", "q1", "q2"),
        sig=Signature(directions=("d1",), concepts=("A",), features=("g",)),
    )
    s = simulate(a)
    [t0] = s.transitions(s.initial)
    joint = t0.succ[0]
    assert set(joint[1:-1].split(",")) == {"q1:1", "q2:1"}
    assert s.transitions(joint) == ()


def test_simulate_breakpoint_tag_reset():
    """A non-accepting state reached from a breakpoint state keeps tag 0;
    reached from a mixed state it also stays 0 until all contributors are
    tagged, making the accepting set precise."""
    a = alternating(
        {
            "q0": fm.Move("d1", "q1"),
            "q1": fm.Move("d1", "q0"),
        },
        states=("q0", "q1"),
        accepting=("q0",),
        sig=Signature(directions=("d1",), concepts=(), features=("g",)),
    )
    s = simulate(a)
    assert s.initial == "{q0:1}"
    [t] = s.transitions("{q0:1}")
    assert t.succ == ("{q1:0}",)
    [t2] = s.transitions("{q1:0}")
    assert t2.succ == ("{q0:1}",)
    assert "{q1:0}" not in s.accepting
    assert decide(s).verdict == "not-empty"


def test_simulate_accepting_states_have_all_tags_set():
    rng = random.Random(505)
    for _ in range(25):
        a = random_alternating(rng, allow_constraints=True)
        s = simulate(a)
        for state in s.states:
            if state == ACCEPT_ALL_NAME:
                continue
            pairs = [p.split(":") for p in state[1:-1].split(",")]
            if state in s.accepting:
                assert all(tag == "1" for _, tag in pairs)
            for member, tag in pairs:
                if member in a.accepting:
                    assert tag == "1"


def test_simulate_respects_reachable_bound():
    rng = random.Random(4242)
    for _ in range(30):
        a = random_alternating(rng, allow_constraints=True)
        s = simulate(a)
        assert len(s.states) <= sim_state_bound(len(a.states), len(a.accepting))
        assert validate(s) == []


def test_simulate_state_cap():
    rng = random.Random(9)
    a = random_alternating(rng, max_states=4)
    with pytest.raises(ResourceLimitError):
        simulate(a, max_states=1)


def test_simulate_agrees_with_direct_reading_on_nondet_shaped():
    rng = random.Random(140)
    for _ in range(10):
        a = random_nondet_shaped(rng)
        assert decide(simulate(a)).verdict == decide(direct_reading(a)).verdict


# sha256 over the printed simulations of 300 seeded random_alternating and
# 300 random_nondet_shaped automata, each simulated under default, tight
# state or tight disjunct caps in turn, a cap error standing in for its
# output; computed before the disjuncts carried their moves.
SIMULATION_SHA256 = "a3a33062317a8e01978c03385f4b6e02b21989ac4b4de6262f3fe3d204061207"


def test_simulation_output_is_pinned():
    caps = [{}, {"max_states": 5}, {"max_disjuncts": 4}]
    rng = random.Random(99)
    parts = []
    for i in range(300):
        for a in (
            random_alternating(rng, allow_constraints=i % 2 == 1),
            random_nondet_shaped(rng),
        ):
            try:
                parts.append(print_automaton(simulate(a, **caps[i % 3])))
            except ResourceLimitError as exc:
                parts.append(f"error: {exc}\n")
    assert hashlib.sha256("".join(parts).encode()).hexdigest() == SIMULATION_SHA256
