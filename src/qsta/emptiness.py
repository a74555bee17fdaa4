"""Emptiness decision by doubly depth-first search for a finite tree model.

A nondeterministic automaton accepts some tree iff an accepting run exists
that is regular: determined by finitely many (state, pending-triple-set)
signatures.  Such a run is represented by a finite tree whose leaves point
back at matching internal nodes.  The search below builds that tree depth
first, trying transitions in declared order and directions in signature
order.  When the root completes, so does the tree, and one consistency
check of the global constraint network over the internal nodes closes the
construction.  The search links each node to its parent and its
children, and never looks a node up by its word.  A leaf is a link, not a
node: the parent's child slot holds the backnode itself.  A chain walk
whose next child is not built waits on that (node, slot) pair, and a
backtrack clears the slots it drops.  A witness holds each signature on
one internal node at most, so the search keeps one node per signature, in
one table, and reuses it after a backtrack: the node keeps its choices,
each picked transition with its children's nodes, filled as the search
first picks each transition there, and a live child is a fold.  The
search resolves each constraint's chains once, as the nodes they reach are
registered, and keeps the network of the resolved constraints closed under
path consistency as they arrive, undone on backtracking, so the root
check starts from a closed matrix.  ``check_witness`` and ``globalcsp``
resolve the same network from a finished model's words, and check words,
not the search's links.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from . import formula as fm
from ._value import Value, set_field
from .automata import (
    Metrics,
    NondetAutomaton,
    RunNode,
    RunPrefix,
    SceneNode,
    SceneTreePrefix,
    Transition,
    metrics as compute_metrics,
)
from .errors import MalformedModelError, ResourceLimitError
from .relalg import (
    EQ_RELATION,
    MaskMatrix,
    Qcsp,
    QcspBuilder,
    Relation,
    consistent_scenario,
    masks_consistent,
)
from .terms import ChainTerm, SpatialConstraint, parse_chain, parse_constraint

__all__ = [
    "WordOrder",
    "PtpTriple",
    "FtmNode",
    "FiniteTreeModel",
    "SearchStats",
    "BoundsReport",
    "Decision",
    "backconstraints_step",
    "ftm_search",
    "globalcsp",
    "resolve_variable",
    "unfold_with_sources",
    "scene_from_witness",
    "check_bounds",
    "check_witness",
    "decide",
    "witness_to_json",
    "witness_from_json",
    "witness_to_dot",
]

Word = Tuple[str, ...]


class WordOrder:
    """Prefix and lexicographic order on node words for a fixed direction
    order d_1 < ... < d_k (the declaration order, not alphabetical).  A
    comparison that meets another name raises ValueError."""

    def __init__(self, directions: Sequence[str]):
        self.directions = tuple(directions)

    def key(self, word: Word) -> Tuple[int, ...]:
        return tuple(map(self.directions.index, word))

    def lex_lt(self, left: Word, right: Word) -> bool:
        """``key(left) < key(right)``, decided at the first difference."""
        for a, b in zip(left, right):
            if a != b:
                return self.directions.index(a) < self.directions.index(b)
        return len(left) < len(right)

    def lex_le(self, left: Word, right: Word) -> bool:
        return not self.lex_lt(right, left)

    @staticmethod
    def is_strict_prefix(left: Word, right: Word) -> bool:
        return len(left) < len(right) and right[: len(left)] == left


class PtpTriple(Value):
    """A pending constraint target: a constraint issued at some ancestor,
    the argument it still targets, and the chain left to walk.

    Identity is syntactic; the issuing node is recoverable from the word of
    the node holding the triple (see ``origin_of``), so equal-looking
    triples from different ancestors coincide on purpose.  That is what
    lets distant subtrees share one signature.
    """

    __slots__ = ("constraint", "arg_index", "remaining")
    constraint: SpatialConstraint
    arg_index: int
    remaining: ChainTerm

    def __init__(self, constraint: SpatialConstraint, arg_index: int, remaining: ChainTerm) -> None:
        set_field(self, "constraint", constraint)
        set_field(self, "arg_index", arg_index)
        set_field(self, "remaining", remaining)
        if arg_index not in (1, 2):
            raise ValueError("argument index must be 1 or 2")
        arg = constraint.args[arg_index - 1]
        tail = remaining.path
        if (
            remaining.feature != arg.feature
            or len(tail) >= len(arg.path)
            or arg.path[len(arg.path) - len(tail) :] != tail
        ):
            raise ValueError("remaining chain is not a strict suffix of the argument")

    def sort_key(self) -> Tuple[str, int, str]:
        return (self.constraint.encode(), self.arg_index, self.remaining.encode())

    def origin_of(self, word: Word) -> Word:
        """The word of the node that issued this constraint, given the word
        of a node whose triple set contains the triple."""
        arg = self.constraint.args[self.arg_index - 1]
        consumed = len(arg.path) - len(self.remaining.path)
        return word[: len(word) - consumed]


def backconstraints_step(parent, direction: str) -> FrozenSet[PtpTriple]:
    """Pending triples a child in ``direction`` inherits from ``parent``.

    ``parent`` is any node object carrying ``constraints`` and ``ptpge``.
    Constraints issued at the parent whose argument chain starts with the
    direction contribute a fresh triple; pending triples whose remaining
    chain starts with the direction advance by one step.  Triples already
    reduced to a bare feature target the parent itself and die here.
    """
    out = set()
    for constraint in parent.constraints:
        for arg_index, term in enumerate(constraint.args, start=1):
            if term.path and term.path[0] == direction:
                out.add(
                    PtpTriple(
                        constraint, arg_index, ChainTerm(term.path[1:], term.feature)
                    )
                )
    for triple in parent.ptpge:
        tail = triple.remaining.path
        if tail and tail[0] == direction:
            out.add(
                PtpTriple(
                    triple.constraint,
                    triple.arg_index,
                    ChainTerm(tail[1:], triple.remaining.feature),
                )
            )
    return frozenset(out)


class FtmNode(Value):
    """One node of a finite tree model, which keys it by its word; leaves
    carry a backnode word."""

    __slots__ = ("state", "literals", "constraints", "children", "backnode", "ptpge")
    state: str
    literals: FrozenSet
    constraints: FrozenSet[SpatialConstraint]
    children: Tuple[Word, ...]
    backnode: Optional[Word]
    ptpge: FrozenSet[PtpTriple]

    def __init__(self, state: str, literals: FrozenSet,
                 constraints: FrozenSet[SpatialConstraint], children: Tuple[Word, ...],
                 backnode: Optional[Word], ptpge: FrozenSet[PtpTriple]) -> None:
        set_field(self, "__class__", self._open)
        self.state = state
        self.literals = literals
        self.constraints = constraints
        self.children = children
        self.backnode = backnode
        self.ptpge = ptpge
        self.__class__ = FtmNode

    @property
    def is_leaf(self) -> bool:
        return self.backnode is not None


class FiniteTreeModel(Value):
    """Finite witness tree; ``nodes`` is keyed by word in preorder."""

    __slots__ = ("directions", "nodes")
    directions: Tuple[str, ...]
    nodes: Mapping[Word, FtmNode]

    def __init__(self, directions: Tuple[str, ...], nodes: Mapping[Word, FtmNode]) -> None:
        set_field(self, "directions", directions)
        set_field(self, "nodes", nodes)

    @property
    def root(self) -> FtmNode:
        return self.nodes[()]

    @property
    def height(self) -> int:
        return max(len(word) for word in self.nodes)

    def internal_words(self) -> List[Word]:
        return [w for w, n in self.nodes.items() if not n.is_leaf]

    def leaf_words(self) -> List[Word]:
        return [w for w, n in self.nodes.items() if n.is_leaf]


class SearchStats(Value):
    __slots__ = ("nodes_created", "peak_nodes", "csp_checks", "bound_exceeded")
    nodes_created: int
    peak_nodes: int
    csp_checks: int
    bound_exceeded: bool

    def __init__(self, nodes_created: int = 0, peak_nodes: int = 0, csp_checks: int = 0,
                 bound_exceeded: bool = False) -> None:
        set_field(self, "__class__", self._open)
        self.nodes_created = nodes_created
        self.peak_nodes = peak_nodes
        self.csp_checks = csp_checks
        self.bound_exceeded = bound_exceeded
        self.__class__ = SearchStats


class _SearchNode:
    """The search's one node for a (state, pending triples) signature: a
    model holds each signature on one internal node at most.  The node is
    made the first time a choice meets its signature, and keeps, across
    activations, its ``state``, ``ptpge``, its ``choices`` (each transition
    picked there with its children's nodes, one per direction slot, so no
    transition's children are computed twice) and whether it is ``live``,
    an internal node of the tree now.

    An activation links it to its ``parent`` and the direction ``slot`` it
    fills there.  ``kids`` holds, per slot, the child built there, the
    backnode itself where the child is a fold (a leaf), or ``None``;
    ``waiting`` holds, per slot, the walks waiting for that child (``None``
    where there are none).  The node keeps its ``choice`` index, its
    ``picked`` transition and the ``children`` it implies.  ``mark`` holds
    the length of the wait list, the resolved count, the length of the
    variable ids, the issued count and the length of the network's trail
    right after the node was registered and the walks waiting on it woke:
    the state a retract to this node restores before it tries the node's
    next transition."""

    __slots__ = ("state", "ptpge", "choices", "live", "parent", "slot", "kids",
                 "waiting", "choice", "picked", "children", "mark")
    parent: Optional[_SearchNode]
    slot: int
    kids: Optional[List[Optional[_SearchNode]]]
    waiting: Optional[List[Optional[List[_Walk]]]]
    choice: int
    picked: Optional[Transition]
    children: Sequence[_SearchNode]
    mark: Tuple[int, int, int, int, int]

    def __init__(self, state: str, ptpge: FrozenSet[PtpTriple]) -> None:
        self.state = state
        self.ptpge = ptpge
        self.choices: List[Tuple[Transition, Tuple[_SearchNode, ...]]] = []
        self.live = False

    @property
    def constraints(self) -> FrozenSet[SpatialConstraint]:
        return self.picked.constraints


# A network variable of the search: an internal node and a feature.
_Variable = Tuple[_SearchNode, str]
# A chain walk waiting on a (node, slot) pair: (steps taken, first variable
# or None, issuing node, constraint), the arguments of ``walk`` after a node.
_Walk = Tuple[int, Optional[_Variable], _SearchNode, SpatialConstraint]
# A live node as the search records it: an internal node as itself, a fold
# as the (parent, slot) pair whose ``kids`` entry holds the backnode.
_Live = Union[_SearchNode, Tuple[_SearchNode, int]]


def _witness_bound(size_q: int, met: Metrics, k: int) -> Tuple[int, int]:
    """(internal, leaf) node bounds; zero factors are clamped to one so
    constraint-free automata keep positive bounds."""
    base = size_q * max(met.constraint_count, 1) * max(met.chain_length, 1) * met.arity
    return base, base * k


def _bound_total(automaton: NondetAutomaton, met: Metrics) -> int:
    """The witness bound on all nodes, internal and leaves, under ``met``."""
    return sum(_witness_bound(len(automaton.states), met, automaton.sig.k))


def _live_states(
    delta: Mapping[str, Sequence[Transition]], accepting: FrozenSet[str], goal: Optional[str] = None
) -> Set[str]:
    """The states with a classical Büchi run over ``delta``, literals and
    constraints ignored: the greatest fixed point νZ.μY of the states with a
    transition whose successors all lie in Y or are accepting states of Z
    (Grädel, Thomas & Wilke, eds., LNCS 2500, chapters 6 and 8); the inner
    least fixed point is swept in place, Gauss-Seidel style.  The outer
    iterations only shrink, so a state that leaves them never comes back:
    once ``goal`` is not among them, the set reached so far, which lacks
    it, is returned."""
    live = {state for state, transitions in delta.items() if transitions}
    while goal is None or goal in live:
        reach: Set[str] = set()
        target = live & accepting
        grew = True
        while grew:
            grew = False
            for state in live - reach:
                for transition in delta[state]:
                    if target.issuperset(transition.succ):
                        reach.add(state)
                        target.add(state)
                        grew = True
                        break
        if len(reach) == len(live):
            break
        live = reach
    return live


def _trim(automaton: NondetAutomaton) -> Optional[Mapping[str, Tuple[Transition, ...]]]:
    """None when the initial state has no classical Büchi run, literals
    and constraints ignored (``_live_states``, which stops as soon as the
    initial state is dead); otherwise the transitions whose successors all
    have one, per live state in declared order, which is the automaton's
    own table when no state is dead."""
    delta = automaton.delta
    live = _live_states(delta, automaton.accepting, automaton.initial)
    if automaton.initial not in live:
        return None
    if live.issuperset(automaton.states):
        return delta
    return {
        state: tuple([t for t in delta[state] if live.issuperset(t.succ)]) for state in live
    }


# The statistics of a search refuted before any node is built.
_REFUTED = SearchStats()


# Metrics whose factors all sit at the clamp: the bound over them is the
# floor of every automaton's bound with the same states and directions, so
# node counts within it are within the bound without computing ``metrics``.
_FLOOR_METRICS = Metrics(0, 0)


def ftm_search(
    automaton: NondetAutomaton, *, max_nodes: Optional[int] = None
) -> Tuple[Optional[FiniteTreeModel], SearchStats]:
    """Search for a finite tree model; returns (model, stats) or (None, stats).

    Deterministic realization of the backtracking construction: transitions
    are tried in declared order, directions in signature order, so node
    creation is in preorder, which coincides with lexicographic order.  A
    new node whose (state, pending triples) signature matches an existing
    internal node is closed as a leaf pointing back at it.  The folded run
    must pass an accepting state on every cycle (the Büchi condition), so a
    fold that closes a cycle through non-accepting nodes only rejects the
    configuration, whether or not the backnode is an ancestor; this is the
    second depth-first search of nested DFS.  When the root completes, the
    tree is complete and the global constraint network is checked once;
    inconsistency also rejects the configuration.  That network is not
    rebuilt per tree: each constraint is resolved to its (internal node,
    feature) variables when the last node its chains reach is registered,
    and added to a ``MaskMatrix`` that stays path consistent as
    constraints arrive (incremental path consistency, Gerevini, AIJ 166,
    2005).  That matrix is the search's only record of the network; the
    search counts the constraints resolved, but lists none.  A backtrack
    undoes the matrix through its trail, so the trees that share a prefix
    share its closure.  The first resolution that empties a relation
    refutes the search until a backtrack cuts it off; later resolutions
    skip the matrix, and the root check rejects at once.  Otherwise the
    check branches once, in place on the closed matrix, and undoes its
    branches through the same trail.

    Before the search, ``_trim`` finds the states with a classical Büchi
    run, literals and constraints ignored, and the search picks only the
    transitions whose successors all have one, in declared order; an
    initial state without one is empty before any node is built, and the
    fixed point stops as soon as it finds that.  Literals and constraints
    only remove runs, so every configuration a dropped transition leads to
    would have been rejected, and chronological backtracking would have
    exhausted those subspaces and then advanced the same choice: the first
    witness found is the same.  Only a search that ran into ``max_nodes``
    inside such a subspace now finishes.  The trim speeds the search and is
    no part of what a witness must satisfy, so the witness bound and
    ``check_witness`` read the automaton as given.

    When no kept transition has constraints, a signature is a state, so a
    model holds each state on one internal node at most and is a positional
    strategy of the classical Büchi game, which suffices for it (Grädel,
    Thomas & Wilke, LNCS 2500, chapters 2 and 6).  So at each fresh choice,
    the cursor on a node's first slot before any child is built, the main
    loop solves the same fixed point with the state of every live internal
    node held to its picked transition, this one included; when the initial
    state loses its run, no model extends the configuration, and the choice
    is rejected like a fold that closes a non-accepting cycle or a failed
    root check, by the same retract, which advances this node's choice
    first.  Holding a state to its only kept transition changes no table, so
    the check skips such a state, and a search with constraints never runs
    it.  This lookahead prunes only subspaces without a model, so the first
    witness found is the same as well.  It is also exact: a choice it keeps
    extends to a model, so the search never backtracks and creates exactly
    the witness's nodes, where chronological backtracking used to rebuild
    doomed subtrees for minutes.  It is recomputed from scratch at each such
    choice.

    No node is looked up by its word: a live node links to its parent and
    to the children built so far.  A fold is a link, not a node: the
    parent's child slot holds the backnode itself, so chain walks and the
    fold's cycle search follow the slot straight to it.  The fold still
    counts as a live node, and the search records it as its (parent, slot)
    pair, which is all a retract needs to clear it and all ``_freeze``
    needs to name the leaf.  A model holds each signature on one internal
    node at most, so the search keeps one ``_SearchNode`` per signature in
    one table, made the first time a choice meets the signature and reused
    by every later activation.  A node's choices depend only on its
    signature, so it keeps them: each transition picked there with its
    children's nodes, filled one transition at a time as the node first
    picks it, so no transition's children are computed twice.  A child
    that is live already is a fold onto it; any other is registered.

    Rejections backtrack chronologically: the most recently chosen
    transition anywhere in the tree advances to its next alternative and
    every node created and constraint resolved after that decision is
    discarded.  Sibling subtrees built earlier under the same parent are
    therefore revisited before the parent abandons its own choice; the
    verdict does not depend on the order transitions are declared in.  The
    live nodes are kept in registration order, and the internal ones among
    them are exactly the open decisions, so a retract truncates that list
    back to the last of them, clearing each dropped node's slot in its
    parent, and the resolution state back to that node's mark.  The search's
    position is one cursor ``(node, j)``, the node whose child in direction
    slot ``j`` is built next; a complete non-root node hands it to its
    parent's next slot, and a retract to the advanced node's first slot.
    The search unlinks every node of its table before it returns or
    raises, so reference counting frees them.

    ``max_nodes`` caps the number of live nodes, not the number created
    over the whole search; the default is twice the theoretical witness
    bound.  The bound is computed, from the automaton's metrics, only once
    the live tree outgrows its floor (the bound with every metric factor at
    one): a smaller search can neither reach the default cap nor exceed
    the bound; a ``max_nodes`` below 1 raises ValueError.  A complete tree
    that resolved no constraint passes its check without the solver, as
    the empty network is consistent, and a refuted one fails it without
    branching; either check still counts in ``csp_checks``.
    """
    if max_nodes is not None and max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, not {max_nodes}")
    delta = _trim(automaton)
    if delta is None:
        return None, _REFUTED
    sig = automaton.sig
    k = sig.k
    directions = sig.directions
    initial = automaton.initial
    # Direction slots by name, for the chain walks: built at the first one.
    slot_of: Optional[Dict[str, int]] = None
    accepting = automaton.accepting
    floor_total = _bound_total(automaton, _FLOOR_METRICS)
    exact_total: Optional[int] = None
    limit = max_nodes if max_nodes is not None else 2 * floor_total

    nodes_created = peak_nodes = csp_checks = 0
    # The live nodes in registration order; the internal ones are the open
    # decisions, the most recent last.
    created: List[_Live] = []
    # Every signature met so far, mapped to its node.
    table: Dict[Tuple[str, FrozenSet[PtpTriple]], _SearchNode] = {}

    # Each issued constraint is resolved once, by walking its chains as
    # ``resolve_variable`` does, to a pair of variables.
    # A walk whose next child is not built yet waits on that (node, slot)
    # pair in the node's ``waiting`` list, and ``waits`` records the list
    # of each wait in order.  Linking a child or a fold into the slot wakes
    # its walks without removing them: no walk waits on a filled slot, and
    # once a retract clears the slot its walks wait on it again, as before
    # it was filled.  A retract therefore pops one walk off the recorded
    # list for each wait issued after its mark.  A variable gets its dense
    # id, its position in ``ids``, when a constraint is first resolved on
    # it; a retract pops the variables resolved after its mark, the last
    # ones ``ids`` holds.  A walk resolves once, when it ends, and counts
    # itself in ``resolved``, so every chain is resolved when ``resolved``
    # equals ``issued``.  Each resolved constraint is added to ``network``,
    # whose variables are the ids and which is the root check's network as
    # it stands, until one empties a relation: ``refuted_at`` is then the
    # count of constraints resolved before it, and the network stays as
    # that add left it until a retract restores a count no greater.
    resolved = 0
    ids: Dict[_Variable, int] = {}
    waits: List[List[_Walk]] = []
    issued = 0
    network = MaskMatrix()
    refuted_at: Optional[int] = None

    def walk(node: _SearchNode, pos: int, first: Optional[_Variable], origin: _SearchNode,
             constraint: SpatialConstraint) -> None:
        """Walk the constraint's first chain from ``node``, ``pos`` steps
        in; once it resolves to ``first``, walk the second from ``origin``."""
        nonlocal resolved, refuted_at
        chain = constraint.args[0 if first is None else 1]
        while True:
            if pos < len(chain.path):
                slot = slot_of[chain.path[pos]]
                pos += 1
                kid = node.kids[slot]
                if kid is None:
                    walks = node.waiting[slot]
                    if walks is None:
                        walks = node.waiting[slot] = []
                    walks.append((pos, first, origin, constraint))
                    waits.append(walks)
                    return
                node = kid
            elif first is None:
                first = (node, chain.feature)
                node, pos, chain = origin, 0, constraint.args[1]
            else:
                first_id = ids.setdefault(first, len(ids))
                second_id = ids.setdefault((node, chain.feature), len(ids))
                if refuted_at is None and not network.add(first_id, second_id, constraint.rel.mask):
                    refuted_at = resolved
                resolved += 1
                return

    def closes_rejecting_cycle(parent: _SearchNode, back: _SearchNode) -> bool:
        """``_closes_rejecting_cycle`` over the live nodes' links."""
        seen = set()
        stack: List[Optional[_SearchNode]] = [back]
        while stack:
            node = stack.pop()
            if node is None or node in seen or node.state in accepting:
                continue
            if node is parent:
                return True
            seen.add(node)
            stack += node.kids
        return False

    def link(parent: Optional[_SearchNode], slot: int, target: _SearchNode, entry: _Live) -> None:
        """Fill ``parent``'s ``slot`` with ``target``, a new internal node
        or, for a fold, the backnode; record ``entry`` as a live node and
        wake the walks waiting on the slot."""
        nonlocal nodes_created, peak_nodes, limit, exact_total
        size = len(created)
        if size >= limit:
            # The limit sits at its floor or at the cap: lift a default one
            # to twice the witness bound, then fail if the tree is still at it.
            if exact_total is None:
                exact_total = _bound_total(automaton, compute_metrics(automaton))
                if max_nodes is None:
                    limit = 2 * exact_total
            if size >= limit:
                raise ResourceLimitError(
                    f"search tree exceeded {limit} nodes "
                    f"(witness bound {exact_total}; raise max_nodes to override)"
                )
        created.append(entry)
        nodes_created += 1
        if size >= peak_nodes:
            peak_nodes = size + 1
        if parent is not None:
            parent.kids[slot] = target
            for walk_state in parent.waiting[slot] or ():
                walk(target, *walk_state)

    def register(parent: Optional[_SearchNode], slot: int, node: _SearchNode) -> None:
        """Link ``node`` as a new internal node, reset for this activation,
        mark it and make it live."""
        node.parent = parent
        node.slot = slot
        node.kids = [None] * k
        node.waiting = [None] * k
        node.choice = 0
        node.picked = None
        node.children = ()
        link(parent, slot, node, node)
        node.mark = (len(waits), resolved, len(ids), issued, len(network.trail))
        node.live = True

    def apply_choice(node: _SearchNode) -> bool:
        nonlocal issued, slot_of
        choices = node.choices
        if node.choice < len(choices):
            node.picked, node.children = choices[node.choice]
        else:
            transitions = delta.get(node.state, ())
            if node.choice >= len(transitions):
                return False
            node.picked = transitions[node.choice]
            children = []
            for state, direction in zip(node.picked.succ, directions):
                signature = (state, backconstraints_step(node, direction))
                child = table.get(signature)
                if child is None:
                    child = table[signature] = _SearchNode(state, signature[1])
                children.append(child)
            node.children = tuple(children)
            choices.append((node.picked, node.children))
        constraints = node.picked.constraints
        if constraints:
            if slot_of is None:
                slot_of = {d: j for j, d in enumerate(directions)}
            issued += len(constraints)
            for constraint in constraints:
                walk(node, 0, None, node, constraint)
        return True

    # The lookahead needs one node per state, so that a node's pick is its
    # state's: a signature is its state when no kept transition has
    # constraints.  It can prune only where a state has a choice.
    lookahead = not any(
        t.constraints for transitions in delta.values() for t in transitions
    ) and any(len(transitions) > 1 for transitions in delta.values())

    def game_lost() -> bool:
        """Whether the initial state has no classical Büchi run with the
        state of every live internal node held to its picked transition."""
        held = dict(delta)
        for other in table.values():
            if other.live:
                held[other.state] = (other.picked,)
        return initial not in _live_states(held, accepting, initial)

    def retract() -> Optional[_SearchNode]:
        """Drop the live nodes registered after the most recent open
        decision, restore its mark and advance it; return the advanced node,
        or None when the whole space is exhausted."""
        nonlocal resolved, issued, refuted_at
        while created:
            entry = created[-1]
            if entry.__class__ is tuple:
                parent, slot = entry
            else:
                node = entry
                waits_mark, resolved, ids_mark, issued, trail_mark = node.mark
                while len(waits) > waits_mark:
                    waits.pop().pop()
                while len(ids) > ids_mark:
                    ids.popitem()
                network.undo(trail_mark)
                if refuted_at is not None and refuted_at >= resolved:
                    refuted_at = None
                node.choice += 1
                if apply_choice(node):
                    return node
                node.live = False
                parent, slot = node.parent, node.slot
            created.pop()
            if parent is not None:
                parent.kids[slot] = None
        return None

    root = table[initial, frozenset()] = _SearchNode(initial, frozenset())
    model: Optional[FiniteTreeModel] = None
    try:
        register(None, 0, root)
        node: Optional[_SearchNode] = root if apply_choice(root) else None
        j = 0
        while node is not None:
            if j == 0 and lookahead and len(delta[node.state]) > 1 and game_lost():
                # The fresh choice loses the Büchi game.
                pass
            elif j < k:
                child = node.children[j]
                if not child.live:
                    register(node, j, child)
                    if apply_choice(child):
                        node, j = child, 0
                        continue
                else:
                    # A live child is a fold onto it.  Nodes are registered
                    # in preorder, so its word is lexicographically smaller
                    # than the fold's.  A cycle through the backnode passes
                    # an accepting state when the backnode's own state is
                    # accepting.
                    if child.state in accepting or not closes_rejecting_cycle(node, child):
                        link(node, j, child, (node, j))
                        j += 1
                        continue
            elif node.parent is not None:
                node, j = node.parent, node.slot + 1
                continue
            else:
                assert resolved == issued, "a complete tree resolves every chain"
                csp_checks += 1
                if not resolved or (refuted_at is None and network.consistent()):
                    model = _freeze(directions, created)
                    break
            # The configuration is rejected.
            node, j = retract(), 0
    finally:
        # Nodes link each other through their activations and choices.
        for entry in table.values():
            entry.parent = entry.kids = entry.waiting = entry.choices = entry.children = None
    if exact_total is None and peak_nodes > floor_total:
        exact_total = _bound_total(automaton, compute_metrics(automaton))
    exceeded = exact_total is not None and peak_nodes > exact_total
    return model, SearchStats(nodes_created, peak_nodes, csp_checks, exceeded)


def _closes_rejecting_cycle(
    automaton: NondetAutomaton, nodes: Mapping[Word, object], parent: Word, backnode: Word
) -> bool:
    """Whether folding a leaf under ``parent`` onto ``backnode`` closes a
    cycle of the folded run with no accepting state: whether the backnode
    reaches the parent through non-accepting nodes only, where an internal
    node leads to its children and a leaf to its backnode.  The search has
    its own walk over links, so ``check_witness`` shares no code with it."""
    seen: set = set()
    stack = [backnode]
    while stack:
        word = stack.pop()
        node = nodes.get(word)
        if word in seen or node is None or node.state in automaton.accepting:
            continue
        if word == parent:
            return True
        seen.add(word)
        if node.backnode is not None:
            stack.append(node.backnode)
        else:
            stack.extend(word + (d,) for d in automaton.sig.directions)
    return False


def _freeze(directions: Tuple[str, ...], created: Sequence[_Live]) -> FiniteTreeModel:
    """The model of a complete tree, whose live nodes ``created`` lists in
    registration order, an internal node as itself and a fold as its
    (parent, slot) pair: a parent and a backnode come before the node.  A
    fold's leaf takes its backnode's signature."""
    words: Dict[_SearchNode, Word] = {}
    nodes: Dict[Word, FtmNode] = {}
    empty: FrozenSet = frozenset()
    for entry in created:
        if entry.__class__ is tuple:
            parent, slot = entry
            back = parent.kids[slot]
            nodes[words[parent] + (directions[slot],)] = FtmNode(
                back.state, empty, empty, (), words[back], back.ptpge
            )
            continue
        parent = entry.parent
        word = words[entry] = () if parent is None else words[parent] + (directions[entry.slot],)
        picked = entry.picked
        children = tuple([word + (d,) for d in directions])
        nodes[word] = FtmNode(
            entry.state, picked.literals, picked.constraints, children, None, entry.ptpge
        )
    return FiniteTreeModel(directions, nodes)


def resolve_variable(
    nodes: Mapping[Word, object], word: Word, chain: ChainTerm
) -> Tuple[Word, str]:
    """Walk a feature chain from a node, routing through backnodes, down to
    the internal node whose feature the chain names.

    Raises MalformedModel on dangling words or backnode cycles, which only
    corrupted input files can produce.
    """
    path = chain.path
    fuel = 2 * chain.length + 2
    while True:
        if fuel == 0:
            raise MalformedModelError("variable resolution does not terminate")
        fuel -= 1
        node = nodes.get(word)
        if node is None:
            raise MalformedModelError(f"missing node '{' '.join(word)}'")
        if node.backnode is not None:
            word = node.backnode
            continue
        if not path:
            return (word, chain.feature)
        word = word + (path[0],)
        path = path[1:]


def _resolved_constraints(
    nodes: Mapping[Word, object], internal: Sequence[Tuple[Word, object]]
) -> Iterator[Tuple[Tuple[Word, str], Tuple[Word, str], Relation]]:
    """The constraints of the ``internal`` (word, node) pairs as (variable,
    variable, relation), each argument resolved in ``nodes`` to an
    (internal node, feature) variable."""
    for word, node in internal:
        for constraint in node.constraints:
            first, second = constraint.args
            yield (
                resolve_variable(nodes, word, first),
                resolve_variable(nodes, word, second),
                constraint.rel,
            )


def globalcsp(nodes: Mapping[Word, object]) -> Qcsp:
    """The union, over internal nodes, of each node's constraints with
    arguments resolved to (internal node, feature) variables; repeated pairs
    intersect, so order does not matter, and the result is converse closed."""
    internal = [(word, node) for word, node in nodes.items() if node.backnode is None]
    builder = QcspBuilder()
    for first, second, rel in _resolved_constraints(nodes, internal):
        builder.add(first, second, rel)
    return builder.build()


# ---------------------------------------------------------------------------
# Unfolding: library tools that materialize a prefix of the folded run and
# a scene for it; ``check_witness`` needs neither.


def unfold_with_sources(
    model: FiniteTreeModel, depth: int
) -> Tuple[RunPrefix, Dict[Word, Word]]:
    """The depth-D truncation of the regular run the model folds up (every
    leaf copy continues with the subtree at its backnode), together with,
    per prefix word, the internal model node it copies."""
    directions = model.directions
    sources: Dict[Word, Word] = {}

    def build(prefix_word: Word, model_word: Word, remaining: int) -> RunNode:
        node = model.nodes[model_word]
        while node.backnode is not None:
            model_word = node.backnode
            node = model.nodes[model_word]
        sources[prefix_word] = model_word
        children: Tuple[RunNode, ...] = ()
        if remaining > 0:
            children = tuple(
                build(prefix_word + (d,), model_word + (d,), remaining - 1)
                for d in directions
            )
        return RunNode(
            state=node.state,
            literals=node.literals,
            constraints=node.constraints,
            children=children,
        )

    root = build((), (), depth)
    return RunPrefix(k=len(directions), depth=depth, root=root), sources


def scene_from_witness(
    model: FiniteTreeModel,
    prefix: RunPrefix,
    sources: Mapping[Word, Word],
) -> SceneTreePrefix:
    """A scene prefix compatible with the unfolded run: concepts are the
    positive literals, and every constraint queried inside the prefix gets
    the atomic relation a consistent completion of the global network
    assigns to its resolved variable pair (EQ when both ends resolve to the
    same variable)."""
    directions = model.directions
    network = globalcsp(model.nodes)
    scenario = consistent_scenario(network)
    if scenario is None:
        raise MalformedModelError("global constraint network is inconsistent")

    builder = QcspBuilder()

    def collect(word: Word, node: RunNode) -> None:
        for constraint in node.constraints:
            first, second = constraint.args
            word_a = word + first.path
            word_b = word + second.path
            if len(word_a) > prefix.depth or len(word_b) > prefix.depth:
                continue
            var_a = (word_a, first.feature)
            var_b = (word_b, second.feature)
            if var_a == var_b:
                continue
            image_a = (sources[word_a], first.feature)
            image_b = (sources[word_b], second.feature)
            if image_a == image_b:
                builder.add(var_a, var_b, EQ_RELATION)
            else:
                builder.add(var_a, var_b, scenario.relation(image_a, image_b))
        for i, child in enumerate(node.children):
            collect(word + (directions[i],), child)

    collect((), prefix.root)
    root_scene = builder.build()
    empty_scene = QcspBuilder().build()

    def mirror(node: RunNode, at_root: bool) -> SceneNode:
        concepts = frozenset(
            literal.name for literal in node.literals if isinstance(literal, fm.PosLiteral)
        )
        return SceneNode(
            concepts=concepts,
            scene=root_scene if at_root else empty_scene,
            children=tuple(mirror(child, False) for child in node.children),
        )

    return SceneTreePrefix(k=prefix.k, depth=prefix.depth, root=mirror(prefix.root, True))


class BoundsReport(Value):
    __slots__ = ("internal_count", "leaf_count", "internal_bound", "leaf_bound", "clamped",
                 "duplicate_signatures")
    internal_count: int
    leaf_count: int
    internal_bound: int
    leaf_bound: int
    clamped: bool
    duplicate_signatures: List[Tuple[str, str]]

    def __init__(self, internal_count: int, leaf_count: int, internal_bound: int,
                 leaf_bound: int, clamped: bool,
                 duplicate_signatures: Optional[List[Tuple[str, str]]] = None) -> None:
        set_field(self, "__class__", self._open)
        self.internal_count = internal_count
        self.leaf_count = leaf_count
        self.internal_bound = internal_bound
        self.leaf_bound = leaf_bound
        self.clamped = clamped
        self.duplicate_signatures = [] if duplicate_signatures is None else duplicate_signatures
        self.__class__ = BoundsReport

    @property
    def ok(self) -> bool:
        return (
            self.internal_count <= self.internal_bound
            and self.leaf_count <= self.leaf_bound
            and not self.duplicate_signatures
        )


def check_bounds(model: FiniteTreeModel, met: Metrics, size_q: int) -> BoundsReport:
    """Compare node counts against the witness bounds and list any internal
    nodes that wrongly share a (state, pending triples) signature."""
    internal_bound, leaf_bound = _witness_bound(size_q, met, len(model.directions))
    seen: Dict[Tuple[str, FrozenSet[PtpTriple]], Word] = {}
    duplicates: List[Tuple[str, str]] = []
    for word, node in model.nodes.items():
        if node.backnode is None:
            first = seen.setdefault((node.state, node.ptpge), word)
            if first is not word:
                duplicates.append((" ".join(first), " ".join(word)))
    internal_count = len(seen) + len(duplicates)
    return BoundsReport(
        internal_count,
        len(model.nodes) - internal_count,
        internal_bound,
        leaf_bound,
        met.constraint_count < 1 or met.chain_length < 1,
        duplicates,
    )


def _label(word: Word) -> str:
    return "node '" + " ".join(word) + "'"


# A pending triple as the checker compares it: the id of its constraint
# object, its argument index, and its remaining chain's path and feature.
_PendingKey = Tuple[int, int, Word, str]


def _pending_keys(triples: FrozenSet[PtpTriple]) -> Set[_PendingKey]:
    return {(id(t.constraint), t.arg_index, t.remaining.path, t.remaining.feature)
            for t in triples}


def _step_keys(node: FtmNode, directions: Tuple[str, ...]) -> Dict[str, Set[_PendingKey]]:
    """Per direction, the keys of ``backconstraints_step(node, direction)``,
    in one pass and with no value built.  Equal keys imply equal triples, so
    a child whose keys match needs no ``backconstraints_step``; a mismatch
    may still be equal values held in distinct objects, and is decided by
    it."""
    steps: Dict[str, Set[_PendingKey]] = {d: set() for d in directions}
    for constraint in node.constraints:
        for arg_index, term in enumerate(constraint.args, start=1):
            path = term.path
            if path and path[0] in steps:
                steps[path[0]].add((id(constraint), arg_index, path[1:], term.feature))
    for triple in node.ptpge:
        tail = triple.remaining.path
        if tail and tail[0] in steps:
            steps[tail[0]].add(
                (id(triple.constraint), triple.arg_index, tail[1:], triple.remaining.feature)
            )
    return steps


def check_witness(automaton: NondetAutomaton, model: FiniteTreeModel) -> List[str]:
    """Defects of a claimed witness for the given automaton; [] when sound.

    Per node: structure, the transition match, complementary literals and
    the pending triples.  Then, only if those pass, the Büchi rule on every
    fold, the consistency of the global network and the node bounds.  Each
    node of the unfolded run copies an internal node checked here, so the
    checks cover the whole run without unfolding it.

    The network is the one ``globalcsp`` builds, resolved from the model's
    words by the same walk and decided as masks; a model without
    constraints has the empty network, which is consistent and not
    decided.  The bounds are checked at their floor first (every
    metric factor at one); the automaton's metrics are computed only when
    the counts outgrow it.
    """
    defects: List[str] = []
    sig = automaton.sig
    directions = sig.directions
    order = WordOrder(directions)
    if tuple(model.directions) != directions:
        defects.append("witness directions differ from the automaton signature")
        return defects
    nodes = model.nodes
    root = nodes.get(())
    if root is None:
        defects.append("witness has no root")
        return defects

    if root.state != automaton.initial:
        defects.append(f"root state '{root.state}' is not the initial state")
    if root.is_leaf:
        defects.append("root is a leaf")
        return defects
    if root.ptpge:
        defects.append("root has pending triples")

    leaves: List[Word] = []
    constrained: List[Tuple[Word, FtmNode]] = []
    # per (state, literals, constraints, successor states): whether a
    # transition matches, and the complementary literal names
    labels: Dict[Tuple[str, FrozenSet, FrozenSet, Tuple[str, ...]], Tuple[bool, List[str]]] = {}
    for word, node in nodes.items():
        if word:
            parent = nodes.get(word[:-1])
            if parent is None or parent.backnode is not None:
                defects.append(f"{_label(word)}: parent is missing or a leaf")
                continue
            if word[-1] not in directions:
                defects.append(f"{_label(word)}: direction '{word[-1]}' is not declared")
                continue
        backnode = node.backnode
        if backnode is not None:
            leaves.append(word)
            if node.children:
                defects.append(f"{_label(word)}: leaf with children")
            target = nodes.get(backnode)
            if target is None:
                defects.append(f"{_label(word)}: dangling backnode")
                continue
            if target.backnode is not None:
                defects.append(f"{_label(word)}: backnode is not internal")
                continue
            try:
                smaller = order.lex_lt(backnode, word)
            except ValueError:  # only a model built in code keys such words
                defects.append(f"{_label(word)}: word or backnode holds an undeclared direction")
            else:
                if not smaller:
                    defects.append(f"{_label(word)}: backnode is not lexicographically smaller")
            if target.state != node.state or target.ptpge != node.ptpge:
                defects.append(f"{_label(word)}: backnode signature differs")
            continue
        expected = tuple([word + (d,) for d in directions])
        if node.children != expected:
            defects.append(f"{_label(word)}: internal node without its {sig.k} children")
            continue
        if node.constraints:
            constrained.append((word, node))
        children = [nodes.get(child_word) for child_word in expected]
        for child_word, child in zip(expected, children):
            if child is None:
                defects.append(f"{_label(word)}: missing child '{' '.join(child_word)}'")
        succ = tuple([child.state for child in children if child is not None])
        label = (node.state, node.literals, node.constraints, succ)
        found = labels.get(label)
        if found is None:
            found = labels[label] = (
                automaton.has_transition(*label), fm.complementary_names(node.literals)
            )
        matched, clashes = found
        if not matched:
            defects.append(
                f"{_label(word)}: label does not match any transition of '{node.state}'"
            )
        for name in clashes:
            defects.append(f"{_label(word)}: complementary literal pair on '{name}'")
        # a node that issues nothing and has nothing pending passes nothing on
        steps = _step_keys(node, directions) if node.constraints or node.ptpge else None
        for child_word, child, direction in zip(expected, children, directions):
            if child is None:
                continue
            if steps is None:
                if not child.ptpge:
                    continue
            elif steps[direction] == _pending_keys(child.ptpge):
                continue
            if child.ptpge != backconstraints_step(node, direction):
                defects.append(
                    f"{_label(child_word)}: stored pending triples disagree with recomputation"
                )

    if not defects:
        accepting = automaton.accepting
        for word in leaves:
            backnode = nodes[word].backnode
            # A cycle through the backnode passes an accepting state when the
            # backnode's own state is accepting.
            if nodes[backnode].state not in accepting and _closes_rejecting_cycle(
                automaton, nodes, word[:-1], backnode
            ):
                defects.append(
                    f"{_label(word)}: fold closes a cycle without an accepting state"
                )
    if not defects and constrained:
        ids: Dict[Tuple[Word, str], int] = {}
        log = [
            (ids.setdefault(first, len(ids)), ids.setdefault(second, len(ids)), rel.mask)
            for first, second, rel in _resolved_constraints(nodes, constrained)
        ]
        if not masks_consistent(len(ids), log):
            defects.append("global constraint network is inconsistent")
    if not defects:
        size_q, k = len(automaton.states), sig.k
        bounds = check_bounds(model, _FLOOR_METRICS, size_q)
        internal_count, leaf_count = bounds.internal_count, bounds.leaf_count
        if internal_count > bounds.internal_bound or leaf_count > bounds.leaf_bound:
            internal_bound, leaf_bound = _witness_bound(size_q, compute_metrics(automaton), k)
            if internal_count > internal_bound or leaf_count > leaf_bound:
                defects.append(
                    f"node bounds violated (internal {internal_count}/{internal_bound}, "
                    f"leaves {leaf_count}/{leaf_bound})"
                )
        for first, second in bounds.duplicate_signatures:
            defects.append(f"internal nodes '{first}' and '{second}' share a signature")
    return defects


class Decision(Value):
    """Outcome of ``decide``: the verdict, the witness and the search stats.

    ``prefix_defects`` lists what ``check_witness`` finds in the witness,
    the same lines ``qsta check-witness`` prints, node bound violations
    included; it is empty for a sound witness.  ``stats.bound_exceeded``
    tells whether the search tree grew past the theoretical witness bound."""

    __slots__ = ("nonempty", "witness", "prefix_defects", "stats")
    nonempty: bool
    witness: Optional[FiniteTreeModel]
    prefix_defects: List[str]
    stats: Optional[SearchStats]

    def __init__(self, nonempty: bool, witness: Optional[FiniteTreeModel] = None,
                 prefix_defects: Optional[List[str]] = None,
                 stats: Optional[SearchStats] = None) -> None:
        set_field(self, "__class__", self._open)
        self.nonempty = nonempty
        self.witness = witness
        self.prefix_defects = [] if prefix_defects is None else prefix_defects
        self.stats = stats
        self.__class__ = Decision

    @property
    def verdict(self) -> str:
        return "not-empty" if self.nonempty else "empty"


def decide(
    automaton: NondetAutomaton,
    *,
    max_nodes: Optional[int] = None,
    max_unfold_nodes: Optional[int] = None,
) -> Decision:
    """Decide emptiness; a NonEmpty decision carries the witness together
    with the defects ``check_witness`` finds in it.

    ``max_unfold_nodes`` is ignored and kept only for its one remaining
    caller, ``bench/workloads.py``: the witness is no longer unfolded, since
    ``check_witness`` settles every node of the run the witness folds up.
    """
    model, stats = ftm_search(automaton, max_nodes=max_nodes)
    if model is None:
        return Decision(False, None, [], stats)
    return Decision(True, model, check_witness(automaton, model), stats)


# ---------------------------------------------------------------------------
# Witness serialization (schemas/witness.schema.json) and DOT rendering


def _word_key(word: Word) -> str:
    return " ".join(word)


def witness_to_json(model: FiniteTreeModel) -> Dict:
    """The witness as a JSON value (schemas/witness.schema.json).  Each
    distinct literal, constraint or ``ptpge`` set is encoded and sorted once
    per call."""
    texts: Dict[FrozenSet, List[str]] = {}
    rows: Dict[FrozenSet[PtpTriple], List[Tuple[Tuple[str, int, str], PtpTriple]]] = {}

    def encoded(values: FrozenSet) -> List[str]:
        found = texts.get(values)
        if found is None:
            found = texts[values] = sorted(map(fm.encode_generator, values))
        return list(found)

    nodes: Dict[str, Dict] = {}
    for word, node in model.nodes.items():
        ptpge = rows.get(node.ptpge)
        if ptpge is None:
            ptpge = rows[node.ptpge] = sorted(
                [(t.sort_key(), t) for t in node.ptpge], key=itemgetter(0)
            )
        nodes[_word_key(word)] = {
            "state": node.state,
            "literals": encoded(node.literals),
            "constraints": encoded(node.constraints),
            "children": [_word_key(c) for c in node.children],
            "backnode": None if node.backnode is None else _word_key(node.backnode),
            "ptpge": [
                {
                    "constraint": constraint,
                    "argIndex": arg_index,
                    "remainingChain": chain,
                    "origin": _word_key(triple.origin_of(word)),
                }
                for (constraint, arg_index, chain), triple in ptpge
            ],
        }
    return {
        "format": "finite-tree-model",
        "version": 1,
        "directions": list(model.directions),
        "height": model.height,
        "nodes": nodes,
    }


_JSON_KINDS = {
    str: "a string",
    int: "an integer",
    list: "an array",
    dict: "an object",
    type(None): "null",
}


def _json_field(raw: Dict, name: str, kind: Any, entries: Optional[type] = None) -> Any:
    """``raw[name]``, which the schema requires to be of type ``kind`` (one
    type or a tuple of them), and an array's entries of type ``entries``.
    A well-typed value is returned at once; only an error builds its
    message.  A JSON ``true`` is not an integer, although Python's
    ``True == 1``."""
    value = raw.get(name)
    if type(value) is not kind:
        if name not in raw:
            raise ValueError(f"missing {name!r}")
        kinds = kind if isinstance(kind, tuple) else (kind,)
        if type(value) not in kinds:
            raise TypeError(f"{name!r} is not " + " or ".join(_JSON_KINDS[k] for k in kinds))
    elif entries is not None:
        for entry in value:
            if type(entry) is not entries:
                raise TypeError(f"an entry of {name!r} is not {_JSON_KINDS[entries]}")
    return value


def _json_known_fields(raw: Dict, names: FrozenSet[str], where: str) -> None:
    """Reject a field of ``raw`` that the schema does not allow there."""
    for name in raw:
        if name not in names:
            raise ValueError(f"unknown field {name!r} in {where}")


def _canonical(field: str, text: str, canonical: str) -> None:
    """Reject ``text`` unless it is written as ``witness_to_json`` writes it."""
    if text != canonical:
        raise ValueError(f"{field} {text!r} is not written as {canonical!r}")


_NODE_FIELDS = frozenset(("state", "literals", "constraints", "children", "backnode", "ptpge"))
_TRIPLE_FIELDS = frozenset(("constraint", "argIndex", "remainingChain", "origin"))


_EMPTY: FrozenSet = frozenset()


class _WitnessReader:
    """Reads the texts of one witness document.  Each distinct word,
    literal, constraint and ``ptpge`` entry is parsed and checked once, and
    equal texts give one shared value.  So does each distinct list of them
    in a node: its frozenset is built, and its values hashed, once.  An
    error names the field at fault, so only what passed is kept."""

    def __init__(self) -> None:
        self.words: Dict[str, Word] = {}
        self.literals: Dict[str, Union[fm.PosLiteral, fm.NegLiteral]] = {}
        self.constraints: Dict[str, SpatialConstraint] = {}
        self.triples: Dict[Tuple[str, int, str], PtpTriple] = {}
        self.literal_sets: Dict[Tuple[str, ...], FrozenSet] = {(): _EMPTY}
        self.constraint_sets: Dict[Tuple[str, ...], FrozenSet[SpatialConstraint]] = {(): _EMPTY}
        # keyed by the triples' ids: ``triples`` keeps each alive as long as the reader
        self.triple_sets: Dict[Tuple[int, ...], FrozenSet[PtpTriple]] = {(): _EMPTY}

    def word(self, field: str, text: str) -> Word:
        word = self.words.get(text)
        if word is None:
            word = tuple(text.split())
            _canonical(field, text, _word_key(word))
            self.words[text] = word
        return word

    def literal(self, text: str) -> Union[fm.PosLiteral, fm.NegLiteral]:
        literal = self.literals.get(text)
        if literal is None:
            literal = self.literals[text] = fm.parse_literal(text)
        return literal

    def constraint(self, field: str, text: str) -> SpatialConstraint:
        constraint = self.constraints.get(text)
        if constraint is None:
            constraint = parse_constraint(text)
            _canonical(field, text, constraint.encode())
            self.constraints[text] = constraint
        return constraint

    def literal_set(self, texts: List[str]) -> FrozenSet:
        key = tuple(texts)
        values = self.literal_sets.get(key)
        if values is None:
            values = self.literal_sets[key] = frozenset([self.literal(t) for t in texts])
        return values

    def constraint_set(self, texts: List[str]) -> FrozenSet[SpatialConstraint]:
        key = tuple(texts)
        values = self.constraint_sets.get(key)
        if values is None:
            values = self.constraint_sets[key] = frozenset(
                [self.constraint("'constraints' entry", t) for t in texts]
            )
        return values

    def triple_set(self, entries: List[Dict]) -> FrozenSet[PtpTriple]:
        triples = [self.triple(raw) for raw in entries]
        key = tuple(map(id, triples))
        values = self.triple_sets.get(key)
        if values is None:
            values = self.triple_sets[key] = frozenset(triples)
        return values

    def triple(self, raw: Dict) -> PtpTriple:
        """One ``ptpge`` entry; each error names the field at fault."""
        if not raw.keys() <= _TRIPLE_FIELDS:
            _json_known_fields(raw, _TRIPLE_FIELDS, "a 'ptpge' entry")
        # the origin follows from the tree and is not read, but the schema types it
        if "origin" in raw:
            self.word("'origin'", _json_field(raw, "origin", str))
        text = _json_field(raw, "constraint", str)
        arg_index, chain = raw.get("argIndex"), raw.get("remainingChain")
        # keyed only when well typed: True == 1, and a list is unhashable
        key = (text, arg_index, chain) if type(arg_index) is int and type(chain) is str else None
        triple = self.triples.get(key)
        if triple is not None:
            return triple
        constraint = self.constraint("'constraint'", text)
        arg_index = _json_field(raw, "argIndex", int)
        if arg_index not in (1, 2):
            raise ValueError("'argIndex' is not 1 or 2")
        chain = _json_field(raw, "remainingChain", str)
        if not chain.split():
            raise ValueError("'remainingChain' is empty")
        remaining = parse_chain(chain)
        _canonical("'remainingChain'", chain, remaining.encode())
        try:
            triple = PtpTriple(constraint, arg_index, remaining)
        except ValueError:
            # the argument index is valid, so the chain is what PtpTriple rejects
            raise ValueError(
                f"'remainingChain' is not a strict suffix of argument {arg_index}"
            ) from None
        self.triples[key] = triple
        return triple

    def node(self, word: Word, raw: Dict) -> FtmNode:
        """One node.  The fields are checked in a fixed order, so a document
        with several faults always reports the same one."""
        if not raw.keys() <= _NODE_FIELDS:
            _json_known_fields(raw, _NODE_FIELDS, f"node {_word_key(word)!r}")
        backnode = raw.get("backnode")
        if type(backnode) is not str and (backnode is not None or "backnode" not in raw):
            _json_field(raw, "backnode", (str, type(None)))  # raises, naming the error
        state = _json_field(raw, "state", str)
        literals = self.literal_set(_json_field(raw, "literals", list, str))
        constraints = self.constraint_set(_json_field(raw, "constraints", list, str))
        texts = _json_field(raw, "children", list, str)
        children = tuple([self.word("'children' entry", c) for c in texts]) if texts else ()
        if backnode is not None:
            backnode = self.word("'backnode'", backnode)
        entries = _json_field(raw, "ptpge", list, dict)
        ptpge = self.triple_set(entries) if entries else _EMPTY
        return FtmNode(state, literals, constraints, children, backnode, ptpge)


_DOCUMENT_FIELDS = frozenset(("format", "version", "directions", "height", "nodes"))


def witness_from_json(payload: Dict) -> FiniteTreeModel:
    if not isinstance(payload, dict):
        raise MalformedModelError("malformed witness document: not a JSON object")
    if payload.get("format") != "finite-tree-model":
        raise MalformedModelError("not a finite-tree-model document")
    try:
        _json_known_fields(payload, _DOCUMENT_FIELDS, "the document")
        if _json_field(payload, "version", int) != 1:
            raise ValueError("'version' is not 1")
        height = _json_field(payload, "height", int)
        if height < 0:
            raise ValueError("'height' is negative")
        directions = tuple(_json_field(payload, "directions", list))
        for direction in directions:
            if not isinstance(direction, str) or not direction:
                raise ValueError(f"direction {direction!r} is not a non-empty string")
        order = WordOrder(directions)
        raw_nodes = _json_field(payload, "nodes", dict)
        reader = _WitnessReader()
        entries = []
        for key, raw in raw_nodes.items():
            word = reader.word("node key", key)
            try:
                rank = order.key(word)
            except ValueError:
                raise ValueError(f"node key {key!r} names a direction not in 'directions'") from None
            if type(raw) is not dict:
                _json_field(raw_nodes, key, dict)  # raises, naming the error
            entries.append((rank, word, raw))
        entries.sort(key=itemgetter(0))
        node = reader.node
        nodes: Dict[Word, FtmNode] = {word: node(word, raw) for _, word, raw in entries}
        # An empty tree is left to check_witness, which reports no root.
        tree_height = max(map(len, nodes), default=height)
        if height != tree_height:
            raise ValueError(f"'height' is {height}, the tree's height is {tree_height}")
    except (TypeError, ValueError) as exc:
        raise MalformedModelError(f"malformed witness document: {exc}") from exc
    return FiniteTreeModel(directions=directions, nodes=nodes)


def _dot_text(name: str) -> str:
    """``name`` escaped for a quoted DOT string: a backslash or a quote
    would otherwise escape what follows it, the closing quote included."""
    if "\\" in name or '"' in name:
        return name.replace("\\", "\\\\").replace('"', '\\"')
    return name


def _dot_id(word: Word) -> str:
    return "ε" if not word else _dot_text(_word_key(word))


def witness_to_dot(model: FiniteTreeModel) -> str:
    # Each node's id is escaped once; a model built in code may name a child
    # or backnode it does not hold, whose id is made where it is used.
    ids = {word: _dot_id(word) for word in model.nodes}
    lines = ["digraph finite_tree_model {", "  rankdir=TB;"]
    for word, node in model.nodes.items():
        style = "dashed" if node.is_leaf else "solid"
        label = f"{ids[word]}\\n{_dot_text(node.state)}"
        lines.append(f'  "{ids[word]}" [label="{label}", shape=box, style={style}];')
    directions = [_dot_text(direction) for direction in model.directions]
    for word, node in model.nodes.items():
        for child, direction in zip(node.children, directions):
            child_id = ids.get(child) or _dot_id(child)
            lines.append(f'  "{ids[word]}" -> "{child_id}" [label="{direction}"];')
    for word, node in model.nodes.items():
        if node.backnode is not None:
            back_id = ids.get(node.backnode) or _dot_id(node.backnode)
            lines.append(f'  "{ids[word]}" -> "{back_id}" [style=dotted, constraint=false];')
    lines.append("}")
    return "\n".join(lines) + "\n"
