"""Breakpoint simulation of alternating automata by nondeterministic ones.

A simulation state is a set of (state, tag) pairs, at most one pair per
state.  Tag 1 marks states that have passed through acceptance since the
last breakpoint; accepting states always carry tag 1.  A breakpoint is a
simulation state whose tags are all 1, and those are exactly the accepting
states of the output, together with the accept-all sink.

A state that a choice moves to in some direction keeps one tag: 1 if it is
accepting, else 0 if the source is a breakpoint, else the AND of the tags
of the members whose chosen disjuncts move to it.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Set, Tuple

from . import formula as fm
from .automata import AlternatingAutomaton, NondetAutomaton, Transition
from .errors import ResourceLimitError

__all__ = ["SimState", "sim_state_bound", "sim_state_name", "simulate"]

SimState = FrozenSet[Tuple[str, int]]

# A disjunct with the states it moves to, one set per direction.
_Option = Tuple[fm.Disjunct, Tuple[Set[str], ...]]

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


_ESCAPES = str.maketrans({"\\": "\\\\", ",": "\\,", ":": "\\:"})


def sim_state_name(pairs: SimState) -> str:
    """``{name:tag,...}`` over the sorted members, with ``\\``, ``,`` and ``:``
    escaped by a backslash inside each name, so distinct states get
    distinct names."""
    inner = ",".join(f"{state.translate(_ESCAPES)}:{tag}" for state, tag in sorted(pairs))
    return "{" + inner + "}"


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

    dnf_cache: Dict[str, Tuple[_Option, ...]] = {}

    def disjuncts_of(state: str) -> Tuple[_Option, ...]:
        if state not in dnf_cache:
            dnf_cache[state] = tuple(
                (d, tuple({m.state for m in d.moves if m.direction == e} for e in sig.directions))
                for d in fm.dnf(automaton.delta[state], max_disjuncts=max_disjuncts)
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
            literals = frozenset().union(*(d.literals for d, _ in choice))
            if fm.complementary_names(literals):
                continue
            constraints = frozenset().union(*(d.constraints for d, _ in choice))

            succ_names: List[str] = []
            for position in range(sig.k):
                tags: Dict[str, int] = {}
                for (_, tag), (_, moves) in zip(members, choice):
                    for target in moves[position]:
                        tags[target] = tags.get(target, 1) & tag
                if not tags:
                    succ_names.append(ACCEPT_ALL_NAME)
                    continue
                successor: SimState = frozenset(
                    (target, 1 if target in accepting_in else 0 if at_breakpoint else tag)
                    for target, tag in tags.items()
                )
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
