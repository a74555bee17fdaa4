"""Breakpoint simulation of alternating automata by nondeterministic ones.

A simulation state is a set of (state, tag) pairs, at most one pair per
state.  Tag 1 marks states that have passed through acceptance since the
last breakpoint; accepting states always carry tag 1.  A breakpoint is a
simulation state whose tags are all 1, and those are exactly the accepting
states of the output, together with the accept-all sink.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Tuple

from . import formula as fm
from .automata import AlternatingAutomaton, NondetAutomaton, Transition
from .errors import ResourceLimitError

__all__ = ["SimState", "sim_state_bound", "sim_state_name", "simulate"]

SimState = FrozenSet[Tuple[str, int]]

ACCEPT_ALL_NAME = "#"

DEFAULT_MAX_SIM_STATES = 100_000


def sim_state_bound(size_q: int, size_f: int) -> int:
    """Upper bound on reachable simulation states, sink included.

    Accepting states contribute a factor 2 (absent or tagged 1), the others
    a factor 3 (absent, tagged 0, tagged 1), plus one for the sink.
    """
    if not 0 <= size_f <= size_q:
        raise ValueError("accepting set larger than state set")
    return 2**size_f * 3 ** (size_q - size_f) + 1


def sim_state_name(pairs: SimState) -> str:
    inner = ",".join(f"{state}:{tag}" for state, tag in sorted(pairs))
    return "{" + inner + "}"


def _choice_moves(disjunct: fm.Disjunct) -> Dict[str, Tuple[str, ...]]:
    by_direction: Dict[str, List[str]] = {}
    for move in disjunct.moves:
        by_direction.setdefault(move.direction, []).append(move.state)
    return {d: tuple(sorted(set(targets))) for d, targets in by_direction.items()}


def simulate(
    automaton: AlternatingAutomaton,
    *,
    max_states: int = DEFAULT_MAX_SIM_STATES,
    max_disjuncts: int = fm.DEFAULT_MAX_DISJUNCTS,
) -> NondetAutomaton:
    """Translate an alternating automaton into an equivalent
    nondeterministic one over the same signature.

    The translation explores simulation states breadth first from the
    initial set.  For each simulation state a choice function picks one
    disjunct of each member state's transition formula in disjunctive
    normal form; choices whose combined literals contain a complementary
    pair are discarded.  Directions in which a choice moves nothing send
    the run to the accept-all sink.

    Raises ResourceLimitError when more than ``max_states`` simulation
    states appear, when a transition formula exceeds ``max_disjuncts`` in
    normal form, or when one simulation state has more than
    ``max_disjuncts`` choice functions.
    """
    sig = automaton.sig
    accepting_in = automaton.accepting

    dnf_cache: Dict[str, Tuple[fm.Disjunct, ...]] = {}
    move_cache: Dict[fm.Disjunct, Dict[str, Tuple[str, ...]]] = {}

    def disjuncts_of(state: str) -> Tuple[fm.Disjunct, ...]:
        if state not in dnf_cache:
            dnf_cache[state] = tuple(
                fm.dnf(automaton.delta[state], max_disjuncts=max_disjuncts)
            )
        return dnf_cache[state]

    initial_tag = 1 if automaton.initial in accepting_in else 0
    initial: SimState = frozenset({(automaton.initial, initial_tag)})

    order: List[SimState] = [initial]
    seen = {initial}
    delta: Dict[str, Tuple[Transition, ...]] = {}
    index = 0
    while index < len(order):
        current = order[index]
        index += 1
        members = sorted(current)
        for state, tag in members:
            assert tag == 1 or state not in accepting_in

        per_member = [disjuncts_of(state) for state, _ in members]
        choice_count = 1
        for options in per_member:
            choice_count *= len(options)
        if choice_count > max_disjuncts:
            raise ResourceLimitError(
                f"simulation state {sim_state_name(current)} has {choice_count} "
                f"choice functions (limit {max_disjuncts})"
            )

        at_breakpoint = all(tag == 1 for _, tag in members)
        transitions: Dict[Transition, None] = {}
        for choice in itertools.product(*per_member):
            literals = frozenset().union(*(d.literals for d in choice)) if choice else frozenset()
            if fm.complementary_names(literals):
                continue
            constraints = (
                frozenset().union(*(d.constraints for d in choice)) if choice else frozenset()
            )

            succ_names: List[str] = []
            for direction in sig.directions:
                contributors: Dict[str, List[int]] = {}
                for (state, tag), disjunct in zip(members, choice):
                    if disjunct not in move_cache:
                        move_cache[disjunct] = _choice_moves(disjunct)
                    for target in move_cache[disjunct].get(direction, ()):
                        contributors.setdefault(target, []).append(tag)
                if not contributors:
                    succ_names.append(ACCEPT_ALL_NAME)
                    continue
                pairs = set()
                for target in sorted(contributors):
                    if target in accepting_in:
                        new_tag = 1
                    elif at_breakpoint:
                        new_tag = 0
                    else:
                        new_tag = 1 if all(t == 1 for t in contributors[target]) else 0
                    pairs.add((target, new_tag))
                successor: SimState = frozenset(pairs)
                if successor not in seen:
                    if len(seen) >= max_states:
                        raise ResourceLimitError(
                            f"more than {max_states} simulation states"
                        )
                    seen.add(successor)
                    order.append(successor)
                succ_names.append(sim_state_name(successor))

            transitions[Transition(literals, constraints, tuple(succ_names))] = None
        delta[sim_state_name(current)] = tuple(transitions)

    state_names = tuple(sim_state_name(s) for s in order) + (ACCEPT_ALL_NAME,)
    delta[ACCEPT_ALL_NAME] = (
        Transition(frozenset(), frozenset(), (ACCEPT_ALL_NAME,) * sig.k),
    )
    accepting_out = frozenset(
        sim_state_name(s) for s in order if all(tag == 1 for _, tag in s)
    ) | {ACCEPT_ALL_NAME}
    return NondetAutomaton(
        sig=sig,
        states=state_names,
        initial=sim_state_name(initial),
        accepting=accepting_out,
        delta=delta,
        accept_all=ACCEPT_ALL_NAME,
    )
