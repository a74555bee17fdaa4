"""Emptiness decision by doubly depth-first search for a finite tree model.

A nondeterministic automaton accepts some tree iff an accepting run exists
that is regular: determined by finitely many (state, pending-triple-set)
signatures.  Such a run is represented by a finite tree whose leaves point
back at matching internal nodes.  The search below builds that tree depth
first, trying transitions in declared order and directions in signature
order.  When the root completes, so does the tree, and one consistency
check of the global constraint network over the internal nodes closes the
construction.  The search links each node to its parent, its children
and, for a leaf, its backnode, and never looks a node up by its word: a
chain walk whose next child is not built waits on that (node, slot) pair,
and a backtrack unlinks the nodes it drops.  It resolves each constraint's
chains once, as the nodes they reach are registered, and decides that
check from its log of resolved constraints; ``globalcsp`` rebuilds the
same network from a finished model for ``check_witness``, which checks
words, not the search's links.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

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
    Qcsp,
    QcspBuilder,
    consistent_scenario,
    is_consistent,
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
    order d_1 < ... < d_k (the declaration order, not alphabetical)."""

    def __init__(self, directions: Sequence[str]):
        self.directions = tuple(directions)
        self._rank = {d: i for i, d in enumerate(self.directions)}

    def key(self, word: Word) -> Tuple[int, ...]:
        return tuple(self._rank[d] for d in word)

    def lex_lt(self, left: Word, right: Word) -> bool:
        return self.key(left) < self.key(right)

    def lex_le(self, left: Word, right: Word) -> bool:
        return self.key(left) <= self.key(right)

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
        set_field(self, "state", state)
        set_field(self, "literals", literals)
        set_field(self, "constraints", constraints)
        set_field(self, "children", children)
        set_field(self, "backnode", backnode)
        set_field(self, "ptpge", ptpge)

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
        set_field(self, "nodes_created", nodes_created)
        set_field(self, "peak_nodes", peak_nodes)
        set_field(self, "csp_checks", csp_checks)
        set_field(self, "bound_exceeded", bound_exceeded)


# A search node's signature: its state and pending triples.  The search
# interns signatures, so equal ones are one object and compare by identity.
_Signature = Tuple[str, FrozenSet[PtpTriple]]


class _SearchNode:
    """A live node of the search, linked to its ``parent`` and the direction
    ``slot`` it fills there; ``rank`` is its word as direction slots, so
    ranks compare in the lexicographic word order.  A leaf links its
    ``back`` node and has no children.  An internal node keeps its
    ``picked`` transition, the interned signatures of the children it
    implies, its built ``kids`` and, per slot, the walks ``waiting`` for
    that child (``None`` where there are none), and ``mark`` holds the
    lengths of the wait list, log and variable ids and the issued count
    right after the node was registered and the walks waiting on it woke:
    the state a retract to this node restores before it tries the node's
    next transition."""

    __slots__ = ("parent", "slot", "rank", "signature", "state", "ptpge", "back",
                 "kids", "waiting", "choice", "picked", "children", "mark")

    def __init__(self, parent: Optional[_SearchNode], slot: int, signature: _Signature,
                 back: Optional[_SearchNode] = None):
        self.parent = parent
        self.slot = slot
        self.rank = () if parent is None else parent.rank + (slot,)
        self.signature = signature
        self.state, self.ptpge = signature
        self.back = back
        self.kids: Optional[List[Optional[_SearchNode]]] = None
        self.waiting: Optional[List[Optional[List[_Walk]]]] = None
        self.choice = 0
        self.picked: Optional[Transition] = None
        self.children: Sequence[_Signature] = ()
        self.mark = (0, 0, 0, 0)

    @property
    def constraints(self) -> FrozenSet[SpatialConstraint]:
        return self.picked.constraints


# A network variable of the search: an internal node and a feature.
_Variable = Tuple[_SearchNode, str]
# A chain walk waiting on a (node, slot) pair: (steps taken, first variable
# or None, issuing node, constraint), the arguments of ``walk`` after a node.
_Walk = Tuple[int, Optional[_Variable], _SearchNode, SpatialConstraint]


def _witness_bound(size_q: int, met: Metrics, k: int) -> Tuple[int, int]:
    """(internal, leaf) node bounds; zero factors are clamped to one so
    constraint-free automata keep positive bounds."""
    base = size_q * max(met.constraint_count, 1) * max(met.chain_length, 1) * met.arity
    return base, base * k


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
    and the check decides the log of resolved constraints.

    No node is looked up by its word: a live node links to its parent, an
    internal one to the children built so far and a leaf to its backnode,
    and chain walks and the fold's cycle search follow those links.  The
    children's signatures depend only on the parent's pending triples and
    on the constraints and successor states of the transition picked
    there, so they are computed once per such triple and interned: a
    signature match is an identity hit.

    Rejections backtrack chronologically: the most recently chosen
    transition anywhere in the tree advances to its next alternative and
    every node created and constraint resolved after that decision is
    discarded.  Sibling subtrees built earlier under the same parent are
    therefore revisited before the parent abandons its own choice; the
    verdict does not depend on the order transitions are declared in.  The
    live nodes are kept in registration order, and the internal ones among
    them are exactly the open decisions, so a retract truncates that list
    back to the last of them, unlinking each dropped node from its parent,
    and the resolution state back to that node's mark.  The search's
    position is one cursor ``(node, j)``, the node whose child in direction
    slot ``j`` is built next; a complete non-root node hands it to its
    parent's next slot, and a retract to the advanced node's first slot.
    The search unlinks its live nodes before it returns, so reference
    counting frees them.

    ``max_nodes`` caps the number of live nodes, not the number created
    over the whole search; the default is twice the theoretical witness
    bound.
    """
    sig = automaton.sig
    k = sig.k
    directions = sig.directions
    slot_of = {d: j for j, d in enumerate(directions)}
    accepting = automaton.accepting
    met = compute_metrics(automaton)
    internal_bound, leaf_bound = _witness_bound(len(automaton.states), met, k)
    exact_total = internal_bound + leaf_bound
    limit = max_nodes if max_nodes is not None else 2 * exact_total

    nodes_created = peak_nodes = csp_checks = 0
    by_signature: Dict[_Signature, _SearchNode] = {}
    # The live nodes in registration order; the internal ones are the open
    # decisions, the most recent last.
    created: List[_SearchNode] = []
    # Every signature met so far, each mapped to itself, and the children's
    # signatures under each (constraints, pending triples, successors).
    interned: Dict[_Signature, _Signature] = {}
    child_signatures: Dict[
        Tuple[FrozenSet, FrozenSet[PtpTriple], Tuple[str, ...]], List[_Signature]
    ] = {}

    # Each issued constraint is resolved once, by walking its chains as
    # ``resolve_variable`` does, and logged as (variable, variable, mask).
    # A walk whose next child is not built yet waits on that (node, slot)
    # pair in the node's ``waiting`` list, and ``waits`` records the list
    # of each wait in order.  Registering a child wakes its walks without
    # removing them: no walk waits on a built child, and once a retract
    # drops the child its walks wait on it again, as before it was built.
    # A retract therefore pops one walk off the recorded list for each wait
    # issued after its mark.  A variable gets its dense id, its position in
    # ``ids``, when it is first logged, so the log is the root check's
    # network as it stands; a retract pops the variables logged after its
    # mark, the last ones ``ids`` holds.  A walk logs once, when it ends,
    # so every chain is resolved when the log has one entry per ``issued``.
    log: List[Tuple[int, int, int]] = []
    ids: Dict[_Variable, int] = {}
    waits: List[List[_Walk]] = []
    issued = 0

    def walk(node: _SearchNode, pos: int, first: Optional[_Variable], origin: _SearchNode,
             constraint: SpatialConstraint) -> None:
        """Walk the constraint's first chain from ``node``, ``pos`` steps
        in; once it resolves to ``first``, walk the second from ``origin``."""
        chain = constraint.args[0 if first is None else 1]
        while True:
            if node.back is not None:
                node = node.back
            elif pos < len(chain.path):
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
                log.append((first_id, second_id, constraint.rel.mask))
                return

    def closes_rejecting_cycle(parent: _SearchNode, back: _SearchNode) -> bool:
        """``_closes_rejecting_cycle`` over the live nodes' links."""
        seen = set()
        stack = [back]
        while stack:
            node = stack.pop()
            if node in seen or node.state in accepting:
                continue
            if node is parent:
                return True
            seen.add(node)
            if node.back is not None:
                stack.append(node.back)
            else:
                stack.extend(kid for kid in node.kids if kid is not None)
        return False

    def stats() -> SearchStats:
        return SearchStats(nodes_created, peak_nodes, csp_checks, peak_nodes > exact_total)

    def register(node: _SearchNode) -> None:
        nonlocal nodes_created, peak_nodes
        size = len(created)
        if size >= limit:
            raise ResourceLimitError(
                f"search tree exceeded {limit} nodes "
                f"(witness bound {exact_total}; raise max_nodes to override)"
            )
        created.append(node)
        size += 1
        nodes_created += 1
        if size > peak_nodes:
            peak_nodes = size
        if node.back is None:
            node.kids = [None] * k
            node.waiting = [None] * k
        parent = node.parent
        if parent is not None:
            parent.kids[node.slot] = node
            for walk_state in parent.waiting[node.slot] or ():
                walk(node, *walk_state)
        if node.back is None:
            node.mark = (len(waits), len(log), len(ids), issued)

    def apply_choice(node: _SearchNode) -> bool:
        nonlocal issued
        choices = automaton.transitions(node.state)
        if node.choice >= len(choices):
            return False
        picked = node.picked = choices[node.choice]
        key = (picked.constraints, node.ptpge, picked.succ)
        children = child_signatures.get(key)
        if children is None:
            children = child_signatures[key] = []
            for state, direction in zip(picked.succ, directions):
                signature = (state, backconstraints_step(node, direction))
                children.append(interned.setdefault(signature, signature))
        node.children = children
        issued += len(picked.constraints)
        for constraint in picked.constraints:
            walk(node, 0, None, node, constraint)
        return True

    def retract() -> Optional[_SearchNode]:
        """Drop the nodes registered after the most recent open decision,
        restore its mark and advance it; return the advanced node, or None
        when the whole space is exhausted."""
        nonlocal issued
        while created:
            node = created[-1]
            if node.back is None:
                waits_mark, log_mark, ids_mark, issued = node.mark
                while len(waits) > waits_mark:
                    waits.pop().pop()
                del log[log_mark:]
                while len(ids) > ids_mark:
                    ids.popitem()
                node.choice += 1
                if apply_choice(node):
                    return node
                del by_signature[node.signature]
            created.pop()
            if node.parent is not None:
                node.parent.kids[node.slot] = None
        return None

    root_signature = (automaton.initial, frozenset())
    interned[root_signature] = root_signature
    root = _SearchNode(None, 0, root_signature)
    try:
        register(root)
        by_signature[root.signature] = root
        if not apply_choice(root):
            return None, stats()

        node, j = root, 0
        while True:
            if j < k:
                signature = node.children[j]
                match = by_signature.get(signature)
                if match is None:
                    child = _SearchNode(node, j, signature)
                    register(child)
                    by_signature[signature] = child
                    if apply_choice(child):
                        node, j = child, 0
                        continue
                else:
                    assert match.rank < node.rank + (j,)
                    # A cycle through the backnode passes an accepting state
                    # when the backnode's own state is accepting.
                    if match.state in accepting or not closes_rejecting_cycle(node, match):
                        register(_SearchNode(node, j, signature, match))
                        j += 1
                        continue
            elif node.parent is not None:
                node, j = node.parent, node.slot + 1
                continue
            else:
                assert len(log) == issued, "a complete tree resolves every chain"
                csp_checks += 1
                if masks_consistent(len(ids), log):
                    return _freeze(directions, created), stats()
            # The configuration is rejected.
            node, j = retract(), 0
            if node is None:
                return None, stats()
    finally:
        for node in created:
            node.parent = node.back = node.kids = node.waiting = None


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


def _freeze(directions: Tuple[str, ...], created: Sequence[_SearchNode]) -> FiniteTreeModel:
    words = {node: tuple([directions[j] for j in node.rank]) for node in created}
    nodes: Dict[Word, FtmNode] = {}
    for node in created:
        word = words[node]
        internal = node.back is None
        nodes[word] = FtmNode(
            state=node.state,
            literals=node.picked.literals if internal else frozenset(),
            constraints=node.picked.constraints if internal else frozenset(),
            children=tuple(word + (d,) for d in directions) if internal else (),
            backnode=None if internal else words[node.back],
            ptpge=node.ptpge,
        )
    return FiniteTreeModel(directions=directions, nodes=nodes)


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


def globalcsp(nodes: Mapping[Word, object]) -> Qcsp:
    """The union, over internal nodes, of each node's constraints with
    arguments resolved to (internal node, feature) variables; repeated pairs
    intersect, so order does not matter, and the result is converse closed."""
    builder = QcspBuilder()
    for word, node in nodes.items():
        if node.backnode is not None:
            continue
        for constraint in node.constraints:
            first = resolve_variable(nodes, word, constraint.args[0])
            second = resolve_variable(nodes, word, constraint.args[1])
            builder.add(first, second, constraint.rel)
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
        set_field(self, "internal_count", internal_count)
        set_field(self, "leaf_count", leaf_count)
        set_field(self, "internal_bound", internal_bound)
        set_field(self, "leaf_bound", leaf_bound)
        set_field(self, "clamped", clamped)
        duplicates = [] if duplicate_signatures is None else duplicate_signatures
        set_field(self, "duplicate_signatures", duplicates)

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
    internal = model.internal_words()
    leaves = model.leaf_words()
    seen: Dict[Tuple[str, FrozenSet[PtpTriple]], Word] = {}
    duplicates: List[Tuple[str, str]] = []
    for word in internal:
        node = model.nodes[word]
        signature = (node.state, node.ptpge)
        if signature in seen:
            duplicates.append((" ".join(seen[signature]), " ".join(word)))
        else:
            seen[signature] = word
    return BoundsReport(
        internal_count=len(internal),
        leaf_count=len(leaves),
        internal_bound=internal_bound,
        leaf_bound=leaf_bound,
        clamped=met.constraint_count < 1 or met.chain_length < 1,
        duplicate_signatures=duplicates,
    )


def check_witness(automaton: NondetAutomaton, model: FiniteTreeModel) -> List[str]:
    """Defects of a claimed witness for the given automaton; [] when sound.

    Per node: structure, the transition match, complementary literals and
    the pending triples.  Then, only if those pass, the Büchi rule on every
    fold, the consistency of the global network and the node bounds.  Each
    node of the unfolded run copies an internal node checked here, so the
    checks cover the whole run without unfolding it.
    """
    defects: List[str] = []
    sig = automaton.sig
    order = WordOrder(sig.directions)
    if tuple(model.directions) != sig.directions:
        defects.append("witness directions differ from the automaton signature")
        return defects
    if () not in model.nodes:
        defects.append("witness has no root")
        return defects

    root = model.nodes[()]
    if root.state != automaton.initial:
        defects.append(f"root state '{root.state}' is not the initial state")
    if root.is_leaf:
        defects.append("root is a leaf")
        return defects
    if root.ptpge:
        defects.append("root has pending triples")

    for word, node in model.nodes.items():
        label = "node '" + " ".join(word) + "'"
        if word:
            parent = model.nodes.get(word[:-1])
            if parent is None or parent.is_leaf:
                defects.append(f"{label}: parent is missing or a leaf")
                continue
        if node.is_leaf:
            if node.children:
                defects.append(f"{label}: leaf with children")
            target = model.nodes.get(node.backnode)
            if target is None:
                defects.append(f"{label}: dangling backnode")
                continue
            if target.is_leaf:
                defects.append(f"{label}: backnode is not internal")
                continue
            if not order.lex_lt(node.backnode, word):
                defects.append(f"{label}: backnode is not lexicographically smaller")
            if target.state != node.state or target.ptpge != node.ptpge:
                defects.append(f"{label}: backnode signature differs")
        else:
            expected = tuple(word + (d,) for d in sig.directions)
            if node.children != expected:
                defects.append(f"{label}: internal node without its {sig.k} children")
                continue
            for child_word in expected:
                if child_word not in model.nodes:
                    defects.append(f"{label}: missing child '{' '.join(child_word)}'")
            succ = tuple(model.nodes[c].state for c in expected if c in model.nodes)
            if not automaton.has_transition(
                node.state, node.literals, node.constraints, succ
            ):
                defects.append(
                    f"{label}: label does not match any transition of '{node.state}'"
                )
            for name in fm.complementary_names(node.literals):
                defects.append(f"{label}: complementary literal pair on '{name}'")
            for child_word, direction in zip(expected, sig.directions):
                child = model.nodes.get(child_word)
                if child is not None and child.ptpge != backconstraints_step(
                    node, direction
                ):
                    defects.append(
                        f"node '{' '.join(child_word)}': stored pending triples "
                        "disagree with recomputation"
                    )

    if not defects:
        for word in model.leaf_words():
            if _closes_rejecting_cycle(
                automaton, model.nodes, word[:-1], model.nodes[word].backnode
            ):
                defects.append(
                    f"node '{' '.join(word)}': fold closes a cycle without an "
                    "accepting state"
                )
    if not defects and not is_consistent(globalcsp(model.nodes)):
        defects.append("global constraint network is inconsistent")
    if not defects:
        bounds = check_bounds(model, compute_metrics(automaton), len(automaton.states))
        if bounds.internal_count > bounds.internal_bound or bounds.leaf_count > bounds.leaf_bound:
            defects.append(
                f"node bounds violated (internal {bounds.internal_count}/"
                f"{bounds.internal_bound}, leaves {bounds.leaf_count}/{bounds.leaf_bound})"
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
        set_field(self, "nonempty", nonempty)
        set_field(self, "witness", witness)
        set_field(self, "prefix_defects", [] if prefix_defects is None else prefix_defects)
        set_field(self, "stats", stats)

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
        return Decision(nonempty=False, stats=stats)
    return Decision(
        nonempty=True,
        witness=model,
        prefix_defects=check_witness(automaton, model),
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Witness serialization (schemas/witness.schema.json) and DOT rendering


def _word_key(word: Word) -> str:
    return " ".join(word)


def _triple_to_json(triple: PtpTriple, word: Word) -> Dict:
    return {
        "constraint": triple.constraint.encode(),
        "argIndex": triple.arg_index,
        "remainingChain": triple.remaining.encode(),
        "origin": _word_key(triple.origin_of(word)),
    }


def witness_to_json(model: FiniteTreeModel) -> Dict:
    nodes: Dict[str, Dict] = {}
    for word, node in model.nodes.items():
        nodes[_word_key(word)] = {
            "state": node.state,
            "literals": sorted(fm.encode_generator(l) for l in node.literals),
            "constraints": sorted(c.encode() for c in node.constraints),
            "children": [_word_key(c) for c in node.children],
            "backnode": None if node.backnode is None else _word_key(node.backnode),
            "ptpge": [
                _triple_to_json(t, word)
                for t in sorted(node.ptpge, key=PtpTriple.sort_key)
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
    A JSON ``true`` is not an integer, although Python's ``True == 1``."""
    if name not in raw:
        raise ValueError(f"missing {name!r}")
    value = raw[name]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if type(value) not in kinds:
        raise TypeError(f"{name!r} is not " + " or ".join(_JSON_KINDS[k] for k in kinds))
    if entries is not None and any(type(entry) is not entries for entry in value):
        raise TypeError(f"an entry of {name!r} is not {_JSON_KINDS[entries]}")
    return value


def _json_known_fields(raw: Dict, names: Tuple[str, ...], where: str) -> None:
    """Reject a field of ``raw`` that the schema does not allow there."""
    for name in raw:
        if name not in names:
            raise ValueError(f"unknown field {name!r} in {where}")


def _canonical(field: str, text: str, canonical: str) -> None:
    """Reject ``text`` unless it is written as ``witness_to_json`` writes it."""
    if text != canonical:
        raise ValueError(f"{field} {text!r} is not written as {canonical!r}")


def _word_from_json(field: str, text: str) -> Word:
    word = tuple(text.split())
    _canonical(field, text, _word_key(word))
    return word


def _constraint_from_json(field: str, text: str) -> SpatialConstraint:
    constraint = parse_constraint(text)
    _canonical(field, text, constraint.encode())
    return constraint


def _triple_from_json(raw: Dict) -> PtpTriple:
    """One ``ptpge`` entry; each error names the field at fault."""
    _json_known_fields(
        raw, ("constraint", "argIndex", "remainingChain", "origin"), "a 'ptpge' entry"
    )
    # the origin follows from the tree and is not read, but the schema types it
    if "origin" in raw:
        _word_from_json("'origin'", _json_field(raw, "origin", str))
    constraint = _constraint_from_json("'constraint'", _json_field(raw, "constraint", str))
    arg_index = _json_field(raw, "argIndex", int)
    if arg_index not in (1, 2):
        raise ValueError("'argIndex' is not 1 or 2")
    chain = _json_field(raw, "remainingChain", str)
    if not chain.split():
        raise ValueError("'remainingChain' is empty")
    remaining = parse_chain(chain)
    _canonical("'remainingChain'", chain, remaining.encode())
    try:
        return PtpTriple(constraint, arg_index, remaining)
    except ValueError:
        # the argument index is valid, so the chain is what PtpTriple rejects
        raise ValueError(
            f"'remainingChain' is not a strict suffix of argument {arg_index}"
        ) from None


def witness_from_json(payload: Dict) -> FiniteTreeModel:
    if not isinstance(payload, dict):
        raise MalformedModelError("malformed witness document: not a JSON object")
    if payload.get("format") != "finite-tree-model":
        raise MalformedModelError("not a finite-tree-model document")
    try:
        _json_known_fields(
            payload, ("format", "version", "directions", "height", "nodes"), "the document"
        )
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
        entries = []
        for key in raw_nodes:
            word = _word_from_json("node key", key)
            if any(d not in directions for d in word):
                raise ValueError(f"node key {key!r} names a direction not in 'directions'")
            entries.append((order.key(word), word, _json_field(raw_nodes, key, dict)))
        entries.sort(key=lambda e: e[0])
        nodes: Dict[Word, FtmNode] = {}
        for _, word, raw in entries:
            _json_known_fields(
                raw,
                ("state", "literals", "constraints", "children", "backnode", "ptpge"),
                f"node {_word_key(word)!r}",
            )
            backnode = _json_field(raw, "backnode", (str, type(None)))
            nodes[word] = FtmNode(
                state=_json_field(raw, "state", str),
                literals=frozenset(
                    fm.parse_literal(t) for t in _json_field(raw, "literals", list, str)
                ),
                constraints=frozenset(
                    _constraint_from_json("'constraints' entry", t)
                    for t in _json_field(raw, "constraints", list, str)
                ),
                children=tuple(
                    _word_from_json("'children' entry", c)
                    for c in _json_field(raw, "children", list, str)
                ),
                backnode=None if backnode is None else _word_from_json("'backnode'", backnode),
                ptpge=frozenset(
                    _triple_from_json(t) for t in _json_field(raw, "ptpge", list, dict)
                ),
            )
        # An empty tree is left to check_witness, which reports no root.
        tree_height = max((len(word) for word in nodes), default=height)
        if height != tree_height:
            raise ValueError(f"'height' is {height}, the tree's height is {tree_height}")
    except (TypeError, ValueError) as exc:
        raise MalformedModelError(f"malformed witness document: {exc}") from exc
    return FiniteTreeModel(directions=directions, nodes=nodes)


def _dot_id(word: Word) -> str:
    return "ε" if not word else _word_key(word)


def witness_to_dot(model: FiniteTreeModel) -> str:
    lines = ["digraph finite_tree_model {", "  rankdir=TB;"]
    for word, node in model.nodes.items():
        style = "dashed" if node.is_leaf else "solid"
        label = f"{_dot_id(word)}\\n{node.state}"
        lines.append(f'  "{_dot_id(word)}" [label="{label}", shape=box, style={style}];')
    for word, node in model.nodes.items():
        for child, direction in zip(node.children, model.directions):
            lines.append(f'  "{_dot_id(word)}" -> "{_dot_id(child)}" [label="{direction}"];')
    for word in model.leaf_words():
        node = model.nodes[word]
        lines.append(
            f'  "{_dot_id(word)}" -> "{_dot_id(node.backnode)}" '
            "[style=dotted, constraint=false];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
