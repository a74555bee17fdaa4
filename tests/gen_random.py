"""Seeded random instance generators shared by the property tests.

Everything takes an explicit ``random.Random`` so test runs are
reproducible; nothing here reads global randomness.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Tuple

import qsta
from qsta import (
    AlternatingAutomaton,
    ChainTerm,
    NondetAutomaton,
    Qcsp,
    QcspBuilder,
    Relation,
    Signature,
    SpatialConstraint,
    Transition,
)
from qsta.formula import And, Formula, Move, NegLiteral, Or, PosLiteral

from oracle_networks import ATOM_NAMES


# -- constraint networks ------------------------------------------------------


def random_atomic_choices(
    rng: random.Random, n_vars: int
) -> Dict[Tuple[int, int], str]:
    """One random atom per unordered pair, keyed by (i, j) with i < j."""
    return {
        (i, j): rng.choice(ATOM_NAMES)
        for i in range(n_vars)
        for j in range(i + 1, n_vars)
    }


def network_from_choices(choices: Dict[Tuple[int, int], str]) -> Qcsp:
    builder = QcspBuilder()
    for (i, j), atom in choices.items():
        builder.add(i, j, Relation.of(atom))
    return builder.build()


def random_relation(rng: random.Random) -> Relation:
    atoms = [a for a in ATOM_NAMES if rng.random() < 0.4]
    if not atoms:
        atoms = [rng.choice(ATOM_NAMES)]
    return Relation.of(*atoms)


def random_mixed_network(
    rng: random.Random, n_vars: int
) -> Tuple[Qcsp, Dict[Tuple[int, int], FrozenSet[str]]]:
    """A partially constrained network with non-atomic edges, returned both
    as a Qcsp and as the oracle's allowed-atoms mapping."""
    builder = QcspBuilder()
    allowed: Dict[Tuple[int, int], FrozenSet[str]] = {}
    for i in range(n_vars):
        builder.add_variable(i)
    for i in range(n_vars):
        for j in range(i + 1, n_vars):
            if rng.random() < 0.7:
                rel = random_relation(rng)
                builder.add(i, j, rel)
                allowed[(i, j)] = frozenset(rel)
    return builder.build(), allowed


# -- monotone formulas --------------------------------------------------------


def random_monotone_formula(
    rng: random.Random, generators: List[PosLiteral], depth: int
) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(generators)
    children = [
        random_monotone_formula(rng, generators, depth - 1)
        for _ in range(rng.randint(2, 3))
    ]
    return And(tuple(children)) if rng.random() < 0.5 else Or(tuple(children))


def eval_formula(formula: Formula, truth: Dict) -> bool:
    if isinstance(formula, And):
        return all(eval_formula(c, truth) for c in formula.children)
    if isinstance(formula, Or):
        return any(eval_formula(c, truth) for c in formula.children)
    return truth[formula]


# -- automata -----------------------------------------------------------------

_CONCEPTS = ("A", "B")
_FEATURES = ("g", "h")


def _signature(k: int) -> Signature:
    return Signature(
        directions=tuple(f"d{i + 1}" for i in range(k)),
        concepts=_CONCEPTS,
        features=_FEATURES,
    )


def _random_chain(rng: random.Random, sig: Signature, max_steps: int) -> ChainTerm:
    path = tuple(
        rng.choice(sig.directions) for _ in range(rng.randint(0, max_steps))
    )
    return ChainTerm(path=path, feature=rng.choice(_FEATURES))


def _random_constraint(rng: random.Random, sig: Signature) -> SpatialConstraint:
    return SpatialConstraint(
        rel=random_relation(rng),
        args=(_random_chain(rng, sig, 1), _random_chain(rng, sig, 1)),
    )


def random_alternating(
    rng: random.Random,
    *,
    max_states: int = 4,
    max_k: int = 2,
    allow_constraints: bool = False,
) -> AlternatingAutomaton:
    """An arbitrary alternating automaton with positive transition formulas."""
    size = rng.randint(1, max_states)
    k = rng.randint(1, max_k)
    sig = _signature(k)
    states = tuple(f"q{i}" for i in range(size))
    accepting = frozenset(q for q in states if rng.random() < 0.5)

    def atom() -> Formula:
        roll = rng.random()
        if roll < 0.45:
            return Move(rng.choice(sig.directions), rng.choice(states))
        if roll < 0.7:
            return PosLiteral(rng.choice(_CONCEPTS))
        if roll < 0.85:
            return NegLiteral(rng.choice(_CONCEPTS))
        if allow_constraints and roll < 0.95:
            return qsta.Constraint(_random_constraint(rng, sig))
        return Move(rng.choice(sig.directions), rng.choice(states))

    def formula(depth: int) -> Formula:
        if depth == 0 or rng.random() < 0.35:
            return atom()
        children = tuple(formula(depth - 1) for _ in range(rng.randint(2, 3)))
        return And(children) if rng.random() < 0.5 else Or(children)

    delta = {q: formula(2) for q in states}
    return AlternatingAutomaton(
        sig=sig,
        states=states,
        initial=states[0],
        accepting=accepting,
        delta=delta,
    )


def random_nondet_shaped(
    rng: random.Random,
    *,
    max_states: int = 4,
    max_k: int = 2,
    allow_constraints: bool = True,
) -> AlternatingAutomaton:
    """An alternating automaton whose every formula is a disjunction of
    conjunctions carrying exactly one move per direction, so it also reads
    directly as a nondeterministic automaton."""
    size = rng.randint(1, max_states)
    k = rng.randint(1, max_k)
    sig = _signature(k)
    states = tuple(f"q{i}" for i in range(size))
    accepting = frozenset(q for q in states if rng.random() < 0.5)

    def block() -> Formula:
        parts: List[Formula] = []
        if rng.random() < 0.3:
            concept = rng.choice(_CONCEPTS)
            parts.append(
                PosLiteral(concept) if rng.random() < 0.7 else NegLiteral(concept)
            )
        if allow_constraints and rng.random() < 0.3:
            parts.append(qsta.Constraint(_random_constraint(rng, sig)))
        for d in sig.directions:
            parts.append(Move(d, rng.choice(states)))
        return And(tuple(parts)) if len(parts) > 1 else parts[0]

    delta = {
        q: Or(tuple(block() for _ in range(rng.randint(1, 3))))
        for q in states
    }
    return AlternatingAutomaton(
        sig=sig,
        states=states,
        initial=states[0],
        accepting=accepting,
        delta=delta,
    )


def direct_reading(automaton: AlternatingAutomaton) -> NondetAutomaton:
    """Read a disjunction-of-complete-conjunctions alternating automaton as
    a nondeterministic one, syntactically, one disjunct per transition."""
    sig = automaton.sig
    delta: Dict[str, Tuple[Transition, ...]] = {}
    for state in automaton.states:
        formula = automaton.delta[state]
        blocks = formula.children if isinstance(formula, Or) else (formula,)
        transitions = []
        for block in blocks:
            parts = block.children if isinstance(block, And) else (block,)
            literals = []
            constraints = []
            moves: Dict[str, str] = {}
            for part in parts:
                if isinstance(part, (PosLiteral, NegLiteral)):
                    literals.append(part)
                elif isinstance(part, qsta.Constraint):
                    constraints.append(part.constraint)
                elif isinstance(part, Move):
                    assert part.direction not in moves, "not nondet-shaped"
                    moves[part.direction] = part.state
                else:
                    raise AssertionError("not nondet-shaped")
            succ = tuple(moves[d] for d in sig.directions)
            transitions.append(
                Transition(
                    literals=frozenset(literals),
                    constraints=frozenset(constraints),
                    succ=succ,
                )
            )
        delta[state] = tuple(transitions)
    return NondetAutomaton(
        sig=sig,
        states=automaton.states,
        initial=automaton.initial,
        accepting=automaton.accepting,
        delta=delta,
    )


def random_nondet(
    rng: random.Random, *, max_states: int = 4, max_k: int = 2
) -> NondetAutomaton:
    """A constraint-free nondeterministic automaton; some states may have
    no transitions at all."""
    size = rng.randint(1, max_states)
    k = rng.randint(1, max_k)
    sig = _signature(k)
    states = tuple(f"q{i}" for i in range(size))
    accepting = frozenset(q for q in states if rng.random() < 0.5)
    delta: Dict[str, Tuple[Transition, ...]] = {}
    for q in states:
        transitions = []
        for _ in range(rng.randint(0, 3)):
            succ = tuple(rng.choice(states) for _ in range(k))
            transitions.append(
                Transition(literals=frozenset(), constraints=frozenset(), succ=succ)
            )
        delta[q] = tuple(transitions)
    return NondetAutomaton(
        sig=sig,
        states=states,
        initial=states[0],
        accepting=accepting,
        delta=delta,
    )
