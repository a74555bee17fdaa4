"""Miyano-Hayashi emptiness oracle for alternating tree automata.

Written from the definition (Miyano & Hayashi, TCS 32, 1984), per
direction, and independent of ``qsta.simulate`` and of ``qsta.formula``'s
functions: it uses only the formula classes, to tell generators apart.

A product state is a pair (S, O) of sets of alternating states, O within
S: S holds the states the run is in at a node, O those that still owe an
accepting visit since the last breakpoint.  A choice picks, for each
member of S, one minimal set of generators that satisfies its transition
formula, found by truth table with ``gen_random.eval_formula``; a choice
whose literals hold both A and !A is dropped.  In direction e the
successor is (S', O') with S' the states the choice moves to in e, and
O' = S' minus F after a breakpoint (O empty), else the states that O's
members move to in e, minus F.  The breakpoints are the accepting states
of the product, and (empty, empty) accepts every subtree.  Emptiness is
then ``oracle_classic.classical_nonempty`` of the product.

Spatial constraints are read as always true, so the oracle is exact for
constraint-free input and says "not empty" too often otherwise: its
"empty" is then still sound.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, NamedTuple, Tuple

from gen_random import eval_formula
from oracle_classic import classical_nonempty
from qsta import AlternatingAutomaton, And, Move, NegLiteral, Or, PosLiteral

Pair = Tuple[FrozenSet[str], FrozenSet[str]]


class _Choice(NamedTuple):
    positive: FrozenSet[str]
    negative: FrozenSet[str]
    moves: Tuple[FrozenSet[str], ...]  # target states, one set per direction


class _Step(NamedTuple):
    succ: Tuple[Pair, ...]


class _Product:
    """The nondeterministic product, shaped as ``classical_nonempty`` reads it."""

    def __init__(self, initial: Pair, accepting, delta: Dict[Pair, List[_Step]]) -> None:
        self.initial = initial
        self.accepting = accepting
        self.delta = delta
        self.states = tuple(delta)

    def transitions(self, state: Pair) -> List[_Step]:
        return self.delta[state]


def _leaves(formula) -> List:
    found = []
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, (And, Or)):
            stack.extend(node.children)
        elif node not in found:
            found.append(node)
    return found


def minimal_choices(formula, directions: Tuple[str, ...]) -> List[_Choice]:
    """The minimal satisfying sets of literals and moves, by truth table;
    every spatial constraint counts as true."""
    leaves = _leaves(formula)
    variables = [g for g in leaves if isinstance(g, (PosLiteral, NegLiteral, Move))]
    truth = {g: True for g in leaves}
    models = []
    for bits in itertools.product((False, True), repeat=len(variables)):
        truth.update(zip(variables, bits))
        if eval_formula(formula, truth):
            models.append(frozenset(g for g, bit in zip(variables, bits) if bit))
    minimal = [m for m in models if not any(other < m for other in models)]
    return [
        _Choice(
            frozenset(g.name for g in m if isinstance(g, PosLiteral)),
            frozenset(g.name for g in m if isinstance(g, NegLiteral)),
            tuple(
                frozenset(g.state for g in m if isinstance(g, Move) and g.direction == e)
                for e in directions
            ),
        )
        for m in minimal
    ]


def alternating_nonempty(automaton: AlternatingAutomaton) -> bool:
    directions = automaton.sig.directions
    final = automaton.accepting
    choices = {q: minimal_choices(automaton.delta[q], directions) for q in automaton.states}

    initial: Pair = (frozenset({automaton.initial}), frozenset())
    delta: Dict[Pair, List[_Step]] = {}
    frontier = [initial]
    while frontier:
        pair = frontier.pop()
        if pair in delta:
            continue
        states, owing = pair
        members = sorted(states)
        steps = []
        for pick in itertools.product(*(choices[q] for q in members)):
            positive = frozenset().union(*(c.positive for c in pick))
            negative = frozenset().union(*(c.negative for c in pick))
            if positive & negative:
                continue
            succ = []
            for i in range(len(directions)):
                moved = frozenset().union(*(c.moves[i] for c in pick))
                if owing:
                    owed = frozenset().union(
                        *(c.moves[i] for q, c in zip(members, pick) if q in owing)
                    )
                else:
                    owed = moved
                succ.append((moved, owed - final))
            steps.append(_Step(tuple(succ)))
            frontier.extend(succ)
        delta[pair] = steps
    accepting = {pair for pair in delta if not pair[1]}
    return classical_nonempty(_Product(initial, accepting, delta))
