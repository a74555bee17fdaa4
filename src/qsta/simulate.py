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
from typing import Dict, FrozenSet, List, Tuple

from . import formula as fm
from .automata import AlternatingAutomaton, NondetAutomaton, Transition
from .errors import ResourceLimitError

__all__ = ["SimState", "sim_state_bound", "sim_state_name", "simulate"]

SimState = FrozenSet[Tuple[str, int]]

# One disjunct of a member state's formula: its literals, its constraints,
# whether those literals hold a complementary pair, and the states it moves
# to in each direction slot.
_Option = Tuple[FrozenSet, FrozenSet, bool, Tuple[FrozenSet[str], ...]]

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


class _Simulation:
    """One simulation in progress: each member state's options, read once,
    and the name of every simulation state met so far, in the order met.

    ``transitions`` expands one simulation state into its transitions and
    names the successors it meets; ``simulate`` runs it breadth first.
    Nothing outlives the simulation that built it.
    """

    def __init__(
        self, automaton: AlternatingAutomaton, max_states: int, max_disjuncts: int
    ) -> None:
        if max_states < 1:
            raise ValueError(f"max_states must be at least 1, not {max_states}")
        if max_disjuncts < 1:
            raise ValueError(f"max_disjuncts must be at least 1, not {max_disjuncts}")
        self.automaton = automaton
        self.accepting = automaton.accepting
        self.max_states = max_states
        self.max_disjuncts = max_disjuncts
        self.options: Dict[str, Tuple[int, Tuple[_Option, ...]]] = {}
        tag = 1 if automaton.initial in self.accepting else 0
        self.initial: SimState = frozenset({(automaton.initial, tag)})
        self.names: Dict[SimState, str] = {self.initial: sim_state_name(self.initial)}
        self.order: List[SimState] = [self.initial]

    def options_of(self, state: str) -> Tuple[int, Tuple[_Option, ...]]:
        """How many disjuncts ``state``'s formula has, and its distinct
        options in disjunct order, built on first use.  Two disjuncts give
        the same option only through a move in an undeclared direction."""
        entry = self.options.get(state)
        if entry is None:
            directions = self.automaton.sig.directions
            disjuncts = fm.dnf(self.automaton.delta[state], max_disjuncts=self.max_disjuncts)
            options = dict.fromkeys(
                (
                    d.literals,
                    d.constraints,
                    bool(d.literals) and bool(fm.complementary_names(d.literals)),
                    tuple(
                        frozenset(m.state for m in d.moves if m.direction == e)
                        for e in directions
                    ),
                )
                for d in disjuncts
            )
            entry = self.options[state] = (len(disjuncts), tuple(options))
        return entry

    def name(self, successor: SimState) -> str:
        """The name of a simulation state, registering it when new."""
        name = self.names.get(successor)
        if name is None:
            if len(self.order) >= self.max_states:
                raise ResourceLimitError(f"more than {self.max_states} simulation states")
            name = self.names[successor] = sim_state_name(successor)
            self.order.append(successor)
        return name

    def transitions(self, current: SimState) -> Tuple[Transition, ...]:
        """The transitions of one simulation state, in choice order.

        A choice picks one option per member, in sorted member order; a
        repeated option would only repeat a transition.  A single member's
        distinct options are its transitions as they stand, and a choice
        with no literals needs no complementary-pair check.
        """
        accepting = self.accepting
        name = self.name
        members = sorted(current)
        for state, tag in members:
            assert tag == 1 or state not in accepting

        if len(members) == 1:
            # A lone member's successors carry tag 1 exactly when accepting:
            # its own tag is 1 at a breakpoint and 0 otherwise.
            out: List[Transition] = []
            for literals, constraints, clash, slots in self.options_of(members[0][0])[1]:
                if clash:
                    continue
                succ = tuple(
                    name(frozenset((t, 1 if t in accepting else 0) for t in targets))
                    if targets
                    else ACCEPT_ALL_NAME
                    for targets in slots
                )
                out.append(Transition(literals, constraints, succ))
            return tuple(out)

        per_member = []
        choice_count = 1
        for state, _ in members:
            count, options = self.options_of(state)
            choice_count *= count
            per_member.append(options)
        if choice_count > self.max_disjuncts:
            raise ResourceLimitError(
                f"simulation state {self.names[current]} has {choice_count} "
                f"choice functions (limit {self.max_disjuncts})"
            )

        tags_of = [tag for _, tag in members]
        at_breakpoint = all(tags_of)
        k = self.automaton.sig.k
        transitions: Dict[Transition, None] = {}
        for choice in itertools.product(*per_member):
            literals = frozenset().union(*[option[0] for option in choice])
            if literals and fm.complementary_names(literals):
                continue
            constraints = frozenset().union(*[option[1] for option in choice])

            succ_names: List[str] = []
            for position in range(k):
                tags: Dict[str, int] = {}
                for tag, option in zip(tags_of, choice):
                    for target in option[3][position]:
                        tags[target] = tags.get(target, 1) & tag
                if not tags:
                    succ_names.append(ACCEPT_ALL_NAME)
                    continue
                succ_names.append(
                    name(
                        frozenset(
                            (target, 1 if target in accepting else 0 if at_breakpoint else tag)
                            for target, tag in tags.items()
                        )
                    )
                )
            transitions[Transition(literals, constraints, tuple(succ_names))] = None
        return tuple(transitions)


def simulate(
    automaton: AlternatingAutomaton,
    *,
    max_states: int = DEFAULT_MAX_SIM_STATES,
    max_disjuncts: int = fm.DEFAULT_MAX_DISJUNCTS,
) -> NondetAutomaton:
    """Translate an alternating automaton into an equivalent
    nondeterministic one over the same signature.

    The translation explores simulation states breadth first from the
    initial set, expanding one state at a time into its transitions.  Each
    member state's transition formula is read once, through ``dnf``, into
    options: a disjunct's literals, its constraints, and the states it
    moves to in each direction.  A choice function picks one option per
    member; choices whose combined literals contain a complementary pair
    are discarded.  Directions in which a choice moves nothing send the
    run to the accept-all sink.

    Raises ValueError when a cap is below 1, and ResourceLimitError when
    more than ``max_states`` simulation states appear, when a transition
    formula exceeds ``max_disjuncts`` in normal form, or when one
    simulation state has more than ``max_disjuncts`` choice functions.
    """
    simulation = _Simulation(automaton, max_states, max_disjuncts)
    names = simulation.names
    delta: Dict[str, Tuple[Transition, ...]] = {}
    # The order list grows while it is walked, so this is breadth first.
    for current in simulation.order:
        delta[names[current]] = simulation.transitions(current)

    k = automaton.sig.k
    delta[ACCEPT_ALL_NAME] = (Transition(frozenset(), frozenset(), (ACCEPT_ALL_NAME,) * k),)
    accepting_out = frozenset(
        name for s, name in names.items() if all(tag == 1 for _, tag in s)
    ) | {ACCEPT_ALL_NAME}
    return NondetAutomaton(
        sig=automaton.sig,
        states=tuple(names.values()) + (ACCEPT_ALL_NAME,),
        initial=names[simulation.initial],
        accepting=accepting_out,
        delta=delta,
        accept_all=ACCEPT_ALL_NAME,
    )
