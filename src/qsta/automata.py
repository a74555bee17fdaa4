"""Automaton models over full k-ary trees with RCC8-constrained features.

Two transition models share a signature: the alternating model maps each
state to a positive transition formula, the nondeterministic one to a set of
explicit transitions with one successor per direction.  Both run on infinite
full k-ary trees whose nodes carry a concept set and a qualitative spatial
valuation of the feature names; the trees themselves are never materialised,
only finite run prefixes are.
"""

from __future__ import annotations

from typing import ClassVar, Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple, Union

from . import formula as fm
from ._value import Value, set_field
from .relalg import Qcsp, QcspBuilder, is_consistent
from .terms import ChainTerm, SpatialConstraint

__all__ = [
    "Signature",
    "ChainTerm",
    "SpatialConstraint",
    "Transition",
    "AlternatingAutomaton",
    "NondetAutomaton",
    "Automaton",
    "Metrics",
    "RunNode",
    "RunPrefix",
    "SceneNode",
    "SceneTreePrefix",
    "PrefixReport",
    "validate",
    "metrics",
    "validate_run_prefix",
]

Word = Tuple[str, ...]
NodeVar = Tuple[Word, str]


class Signature(Value):
    """Directions (ordered, defining the branching), concepts, features."""

    __slots__ = ("directions", "concepts", "features")
    directions: Tuple[str, ...]
    concepts: Tuple[str, ...]
    features: Tuple[str, ...]

    def __init__(
        self, directions: Tuple[str, ...], concepts: Tuple[str, ...], features: Tuple[str, ...]
    ) -> None:
        set_field(self, "directions", directions)
        set_field(self, "concepts", concepts)
        set_field(self, "features", features)

    @property
    def k(self) -> int:
        return len(self.directions)


class Transition(Value):
    """One nondeterministic transition: literals, constraints, successors."""

    __slots__ = ("literals", "constraints", "succ")
    literals: FrozenSet[Union[fm.PosLiteral, fm.NegLiteral]]
    constraints: FrozenSet[SpatialConstraint]
    succ: Tuple[str, ...]

    def __init__(
        self,
        literals: FrozenSet[Union[fm.PosLiteral, fm.NegLiteral]],
        constraints: FrozenSet[SpatialConstraint],
        succ: Tuple[str, ...],
    ) -> None:
        set_field(self, "literals", literals)
        set_field(self, "constraints", constraints)
        set_field(self, "succ", succ)


class AlternatingAutomaton(Value):
    __slots__ = ("sig", "states", "initial", "accepting", "delta")
    sig: Signature
    states: Tuple[str, ...]
    initial: str
    accepting: FrozenSet[str]
    delta: Mapping[str, fm.Formula]

    def __init__(
        self,
        sig: Signature,
        states: Tuple[str, ...],
        initial: str,
        accepting: FrozenSet[str],
        delta: Mapping[str, fm.Formula],
    ) -> None:
        set_field(self, "sig", sig)
        set_field(self, "states", states)
        set_field(self, "initial", initial)
        set_field(self, "accepting", accepting)
        set_field(self, "delta", delta)


class NondetAutomaton(Value):
    """Nondeterministic model; ``accept_all`` names the sink that accepts
    every subtree (it must be accepting and carry exactly its self loop)."""

    __slots__ = ("sig", "states", "initial", "accepting", "delta", "accept_all")
    sig: Signature
    states: Tuple[str, ...]
    initial: str
    accepting: FrozenSet[str]
    delta: Mapping[str, Tuple[Transition, ...]]
    accept_all: Optional[str]

    def __init__(
        self,
        sig: Signature,
        states: Tuple[str, ...],
        initial: str,
        accepting: FrozenSet[str],
        delta: Mapping[str, Tuple[Transition, ...]],
        accept_all: Optional[str] = None,
    ) -> None:
        set_field(self, "sig", sig)
        set_field(self, "states", states)
        set_field(self, "initial", initial)
        set_field(self, "accepting", accepting)
        set_field(self, "delta", delta)
        set_field(self, "accept_all", accept_all)

    def transitions(self, state: str) -> Tuple[Transition, ...]:
        return self.delta.get(state, ())

    def has_transition(
        self, state: str, literals: FrozenSet, constraints: FrozenSet, succ: Optional[Tuple]
    ) -> bool:
        """Whether a transition of ``state`` carries exactly these literals,
        constraints and (unless ``succ`` is None) successor states."""
        return any(
            t.literals == literals
            and t.constraints == constraints
            and (succ is None or t.succ == succ)
            for t in self.transitions(state)
        )


Automaton = Union[AlternatingAutomaton, NondetAutomaton]


def _check_constraint(
    sig: Signature, constraint: SpatialConstraint, where: str, defects: List[str]
) -> None:
    if constraint.rel.is_empty():
        defects.append(f"{where}: empty relation in {constraint}")
    for term in constraint.args:
        for direction in term.path:
            if direction not in sig.directions:
                defects.append(f"{where}: unknown direction '{direction}' in {constraint}")
        if term.feature not in sig.features:
            defects.append(f"{where}: unknown feature '{term.feature}' in {constraint}")


def _check_literal(
    sig: Signature,
    literal: Union[fm.PosLiteral, fm.NegLiteral],
    where: str,
    defects: List[str],
) -> None:
    if literal.name not in sig.concepts:
        defects.append(f"{where}: unknown concept '{literal.name}'")


def _witness_can_carry(kind: str, name: str) -> bool:
    """Whether a witness (``schemas/witness.schema.json``) can carry a name:
    a concept must not be empty or start with ``!``, the negation mark;
    another name must be one word, as a word key joins names by spaces, and
    a direction or feature holds no ``,``, which splits a constraint's text."""
    if kind == "concept":
        return name[:1] not in ("", "!")
    return name.split() == [name] and (kind == "state" or "," not in name)


def validate(automaton: Automaton) -> List[str]:
    """Collect structural defects; an empty list means the automaton is
    well formed."""
    defects: List[str] = []
    sig = automaton.sig
    if not sig.directions:
        defects.append("signature: no directions declared")
    for kind, names in (
        ("direction", sig.directions),
        ("concept", sig.concepts),
        ("feature", sig.features),
        ("state", automaton.states),
    ):
        seen = set()
        for name in names:
            if name in seen:
                defects.append(f"signature: duplicate {kind} '{name}'")
            elif not _witness_can_carry(kind, name):
                defects.append(f"signature: {kind} '{name}' cannot be written in a witness")
            seen.add(name)
    pools = {
        "directions": set(sig.directions),
        "concepts": set(sig.concepts),
        "features": set(sig.features),
    }
    for (kind_a, pool_a), (kind_b, pool_b) in (
        (("directions", pools["directions"]), ("concepts", pools["concepts"])),
        (("directions", pools["directions"]), ("features", pools["features"])),
        (("concepts", pools["concepts"]), ("features", pools["features"])),
    ):
        for name in sorted(pool_a & pool_b):
            defects.append(f"signature: '{name}' declared as both {kind_a[:-1]} and {kind_b[:-1]}")

    states = set(automaton.states)
    if automaton.initial not in states:
        defects.append(f"initial: unknown state '{automaton.initial}'")
    for state in sorted(automaton.accepting - states):
        defects.append(f"accepting: unknown state '{state}'")
    for state in automaton.delta:
        if state not in states:
            defects.append(f"delta: unknown state '{state}'")

    if isinstance(automaton, AlternatingAutomaton):
        for state in automaton.states:
            formula = automaton.delta.get(state)
            where = f"delta {state}"
            if formula is None:
                defects.append(f"{where}: missing transition formula")
                continue
            for gen in fm.generators(formula):
                if isinstance(gen, (fm.PosLiteral, fm.NegLiteral)):
                    _check_literal(sig, gen, where, defects)
                elif isinstance(gen, SpatialConstraint):
                    _check_constraint(sig, gen, where, defects)
                elif isinstance(gen, fm.Move):
                    if gen.direction not in sig.directions:
                        defects.append(f"{where}: unknown direction '{gen.direction}'")
                    if gen.state not in states:
                        defects.append(f"{where}: unknown state '{gen.state}'")
        return defects

    for state in automaton.states:
        for index, transition in enumerate(automaton.delta.get(state, ())):
            where = f"delta {state} transition {index + 1}"
            if len(transition.succ) != sig.k:
                defects.append(
                    f"{where}: {len(transition.succ)} successors for {sig.k} directions"
                )
            for target in transition.succ:
                if target not in states:
                    defects.append(f"{where}: unknown state '{target}'")
            for name in fm.complementary_names(transition.literals):
                defects.append(f"{where}: complementary literal pair on '{name}'")
            for literal in transition.literals:
                _check_literal(sig, literal, where, defects)
            for constraint in transition.constraints:
                _check_constraint(sig, constraint, where, defects)

    sink = automaton.accept_all
    if sink is not None:
        if sink not in states:
            defects.append(f"acceptall: unknown state '{sink}'")
        else:
            if sink not in automaton.accepting:
                defects.append(f"acceptall: '{sink}' must be accepting")
            expected = Transition(frozenset(), frozenset(), (sink,) * sig.k)
            if automaton.delta.get(sink, ()) != (expected,):
                defects.append(
                    f"acceptall: '{sink}' must carry exactly its empty self loop"
                )
    return defects


class Metrics(Value):
    """Size parameters of an automaton's constraint usage.

    ``constraint_count`` counts distinct constraints, ``chain_length`` is the
    longest chain argument (a bare feature counts 1, empty defaults to 1),
    and the class constant ``arity`` is the constraint arity, 2 for RCC8.
    """

    __slots__ = ("constraint_count", "chain_length")
    constraint_count: int
    chain_length: int
    arity: ClassVar[int] = 2

    def __init__(self, constraint_count: int, chain_length: int) -> None:
        set_field(self, "constraint_count", constraint_count)
        set_field(self, "chain_length", chain_length)


def metrics(automaton: NondetAutomaton) -> Metrics:
    """The metrics of the constraints on the declared states' transitions."""
    constraints = {
        constraint
        for state in automaton.states
        for transition in automaton.transitions(state)
        for constraint in transition.constraints
    }
    chain_length = max((term.length for c in constraints for term in c.args), default=1)
    return Metrics(constraint_count=len(constraints), chain_length=chain_length)


# ---------------------------------------------------------------------------
# Run prefixes and qualitative scenes


class RunNode(Value):
    __slots__ = ("state", "literals", "constraints", "children")
    state: str
    literals: FrozenSet[Union[fm.PosLiteral, fm.NegLiteral]]
    constraints: FrozenSet[SpatialConstraint]
    children: Tuple["RunNode", ...]

    def __init__(
        self,
        state: str,
        literals: FrozenSet[Union[fm.PosLiteral, fm.NegLiteral]],
        constraints: FrozenSet[SpatialConstraint],
        children: Tuple["RunNode", ...] = (),
    ) -> None:
        set_field(self, "state", state)
        set_field(self, "literals", literals)
        set_field(self, "constraints", constraints)
        set_field(self, "children", children)


class RunPrefix(Value):
    """A finite full k-ary tree of run labels, depth counted in edges."""

    __slots__ = ("k", "depth", "root")
    k: int
    depth: int
    root: RunNode

    def __init__(self, k: int, depth: int, root: RunNode) -> None:
        set_field(self, "k", k)
        set_field(self, "depth", depth)
        set_field(self, "root", root)


class SceneNode(Value):
    __slots__ = ("concepts", "scene", "children")
    concepts: FrozenSet[str]
    scene: Qcsp
    children: Tuple["SceneNode", ...]

    def __init__(
        self, concepts: FrozenSet[str], scene: Qcsp, children: Tuple["SceneNode", ...] = ()
    ) -> None:
        set_field(self, "concepts", concepts)
        set_field(self, "scene", scene)
        set_field(self, "children", children)


class SceneTreePrefix(Value):
    __slots__ = ("k", "depth", "root")
    k: int
    depth: int
    root: SceneNode

    def __init__(self, k: int, depth: int, root: SceneNode) -> None:
        set_field(self, "k", k)
        set_field(self, "depth", depth)
        set_field(self, "root", root)


class PrefixReport(Value):
    """Outcome of validating a run prefix against an automaton and scene."""

    __slots__ = ("defects", "unchecked")
    defects: List[str]
    unchecked: List[str]

    def __init__(
        self, defects: Optional[List[str]] = None, unchecked: Optional[List[str]] = None
    ) -> None:
        set_field(self, "defects", [] if defects is None else defects)
        set_field(self, "unchecked", [] if unchecked is None else unchecked)

    @property
    def ok(self) -> bool:
        return not self.defects


def _scene_union(scene: SceneTreePrefix) -> QcspBuilder:
    """A builder holding the union of every node's scene network."""
    builder = QcspBuilder()
    stack = [scene.root]
    while stack:
        node = stack.pop()
        for var in node.scene.variables:
            builder.add_variable(var)
        for (u, v), rel in node.scene.edges.items():
            builder.add(u, v, rel)
        for var, rel in node.scene.selfs.items():
            builder.add(var, var, rel)
        stack.extend(node.children)
    return builder


def _components(network: Qcsp) -> Iterator[Qcsp]:
    """The connected components of ``network``, each as a network.

    Pairs in different components carry the full relation, so the network
    is consistent exactly when every component is.
    """
    adjacency: Dict = {v: [] for v in network.variables}
    for pair in network.edges:
        adjacency[pair[0]].append(pair)
    seen = set()
    for start in network.variables:
        if start in seen:
            continue
        seen.add(start)
        members = [start]
        edges = {}
        for var in members:  # grows while it is read
            for pair in adjacency[var]:
                edges[pair] = network.edges[pair]
                if pair[1] not in seen:
                    seen.add(pair[1])
                    members.append(pair[1])
        selfs = {v: network.selfs[v] for v in members if v in network.selfs}
        yield Qcsp(tuple(members), edges, selfs)


def validate_run_prefix(
    automaton: NondetAutomaton, prefix: RunPrefix, scene: SceneTreePrefix
) -> PrefixReport:
    """Check a run prefix locally against transitions, literals, and scene.

    Three families of checks per node: (i) the node's label and successor
    states match one declared transition, (ii) positive literals hold in the
    scene's concept set and negative ones are absent, (iii) every constraint
    whose chain targets both fall inside the prefix is compatible with the
    scene networks.  Constraints reaching past the frontier are reported in
    ``unchecked`` rather than failed.  When no node has a defect, the union
    of the scene networks, narrowed by those constraints, must be
    consistent; each connected component is decided on its own.
    """
    report = PrefixReport()
    sig = automaton.sig
    if prefix.k != sig.k or scene.k != sig.k:
        report.defects.append(
            f"shape: prefix arity {prefix.k}/{scene.k} differs from signature {sig.k}"
        )
        return report
    if prefix.depth != scene.depth:
        report.defects.append(
            f"shape: run depth {prefix.depth} differs from scene depth {scene.depth}"
        )
        return report
    if prefix.root.state != automaton.initial:
        report.defects.append(
            f"root: state '{prefix.root.state}' is not the initial state"
        )

    tightened = _scene_union(scene)
    scene_union = tightened.build()
    # Defects name literals and constraints in text order.  An unfolded run
    # shares its model nodes' label sets, so each distinct set is sorted once.
    sorted_literals: Dict[FrozenSet, List] = {}
    sorted_constraints: Dict[FrozenSet, List[SpatialConstraint]] = {}

    def visit(word: Word, run_node: RunNode, scene_node: SceneNode, depth: int) -> None:
        where = "node '" + " ".join(word) + "'"
        expected_children = sig.k if depth < prefix.depth else 0
        if len(run_node.children) != expected_children or len(scene_node.children) != expected_children:
            report.defects.append(f"{where}: not a full tree of depth {prefix.depth}")
            return

        if not automaton.transitions(run_node.state):
            report.defects.append(
                f"{where}: state '{run_node.state}' has no transitions"
            )
        else:
            succ = tuple(child.state for child in run_node.children)
            if not automaton.has_transition(
                run_node.state,
                run_node.literals,
                run_node.constraints,
                succ if expected_children else None,
            ):
                report.defects.append(
                    f"{where}: label does not match any transition of '{run_node.state}'"
                )

        literals = sorted_literals.get(run_node.literals)
        if literals is None:
            literals = sorted_literals[run_node.literals] = sorted(
                run_node.literals, key=fm.encode_generator
            )
        for literal in literals:
            if isinstance(literal, fm.PosLiteral) and literal.name not in scene_node.concepts:
                report.defects.append(f"{where}: literal {literal.name} not in scene")
            if isinstance(literal, fm.NegLiteral) and literal.name in scene_node.concepts:
                report.defects.append(f"{where}: literal !{literal.name} contradicts scene")

        constraints = sorted_constraints.get(run_node.constraints)
        if constraints is None:
            constraints = sorted_constraints[run_node.constraints] = sorted(
                run_node.constraints, key=SpatialConstraint.encode
            )
        for constraint in constraints:
            first, second = constraint.args
            if (
                len(word) + len(first.path) > prefix.depth
                or len(word) + len(second.path) > prefix.depth
            ):
                report.unchecked.append(
                    f"{where}: {constraint} unchecked at horizon"
                )
                continue
            var_a: NodeVar = (word + first.path, first.feature)
            var_b: NodeVar = (word + second.path, second.feature)
            if var_a == var_b:
                if "EQ" not in constraint.rel:
                    report.defects.append(
                        f"{where}: {constraint} binds a variable to itself without EQ"
                    )
                continue
            declared = scene_union.relation(var_a, var_b)
            combined = declared & constraint.rel
            if combined.is_empty():
                report.defects.append(
                    f"{where}: {constraint} conflicts with scene relation {declared}"
                )
                continue
            tightened.add(var_a, var_b, constraint.rel)

        for index, child in enumerate(run_node.children):
            visit(
                word + (sig.directions[index],),
                child,
                scene_node.children[index],
                depth + 1,
            )

    visit((), prefix.root, scene.root, 0)

    if not report.defects and not all(map(is_consistent, _components(tightened.build()))):
        report.defects.append(
            "scene: constraints are jointly inconsistent with the scene networks"
        )
    return report

