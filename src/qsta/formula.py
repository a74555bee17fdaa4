"""Positive boolean transition formulas and their disjunctive normal form.

Formulas are built from four generator kinds (concept literals, negated
concept literals, spatial constraints, moves) combined with And/Or only.
A spatial constraint generator is the ``SpatialConstraint`` itself.
Negation exists solely at the literal level, so every formula is monotone in
its generators and has a DNF that is unique once duplicate and superset
disjuncts are removed and the remainder is sorted canonically.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterator, List, Tuple, Union

from ._value import Value, set_field
from .errors import ResourceLimitError
from .terms import SpatialConstraint

__all__ = [
    "PosLiteral",
    "NegLiteral",
    "Move",
    "And",
    "Or",
    "Formula",
    "Generator",
    "Disjunct",
    "dnf",
    "generators",
    "encode_generator",
    "parse_literal",
    "complementary_names",
    "DEFAULT_MAX_DISJUNCTS",
]

DEFAULT_MAX_DISJUNCTS = 10_000


class PosLiteral(Value):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        set_field(self, "name", name)


class NegLiteral(Value):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        set_field(self, "name", name)


class Move(Value):
    __slots__ = ("direction", "state")
    direction: str
    state: str

    def __init__(self, direction: str, state: str) -> None:
        set_field(self, "direction", direction)
        set_field(self, "state", state)


Generator = Union[PosLiteral, NegLiteral, SpatialConstraint, Move]


class And(Value):
    __slots__ = ("children",)
    children: Tuple["Formula", ...]

    def __init__(self, children: Tuple["Formula", ...]) -> None:
        set_field(self, "children", children)
        if not children:
            raise ValueError("And needs at least one child")


class Or(Value):
    __slots__ = ("children",)
    children: Tuple["Formula", ...]

    def __init__(self, children: Tuple["Formula", ...]) -> None:
        set_field(self, "children", children)
        if not children:
            raise ValueError("Or needs at least one child")


Formula = Union[And, Or, PosLiteral, NegLiteral, SpatialConstraint, Move]


def encode_generator(gen: Generator) -> str:
    """Canonical text form, also used as the deterministic sort key."""
    if isinstance(gen, PosLiteral):
        return gen.name
    if isinstance(gen, NegLiteral):
        return "!" + gen.name
    if isinstance(gen, SpatialConstraint):
        return gen.encode()
    if isinstance(gen, Move):
        return f"<{gen.direction}:{gen.state}>"
    raise TypeError(f"not a generator: {gen!r}")


def generators(formula: Formula) -> Iterator[Generator]:
    """Yield every generator occurrence, left to right.

    An explicit stack rather than recursion, so formulas built through the
    library are not limited by their nesting depth.
    """
    stack: List[Formula] = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, (And, Or)):
            stack.extend(reversed(node.children))
        else:
            yield node


def parse_literal(text: str) -> Union[PosLiteral, NegLiteral]:
    """Inverse of ``encode_generator`` for concept literals."""
    name = text[1:] if text.startswith("!") else text
    if not name or name.startswith("!"):
        raise ValueError(f"malformed literal: {text!r}")
    return NegLiteral(name) if text.startswith("!") else PosLiteral(name)


def complementary_names(literals) -> List[str]:
    """Concept names, sorted, that occur both as A and as !A."""
    positive = {lit.name for lit in literals if isinstance(lit, PosLiteral)}
    negative = {lit.name for lit in literals if isinstance(lit, NegLiteral)}
    return sorted(positive & negative)


class Disjunct(Value):
    """One DNF disjunct, its generators grouped by kind."""

    __slots__ = ("literals", "constraints", "moves")
    literals: FrozenSet[Union[PosLiteral, NegLiteral]]
    constraints: FrozenSet[SpatialConstraint]
    moves: FrozenSet[Move]

    def __init__(
        self,
        literals: FrozenSet[Union[PosLiteral, NegLiteral]],
        constraints: FrozenSet[SpatialConstraint],
        moves: FrozenSet[Move],
    ) -> None:
        set_field(self, "literals", literals)
        set_field(self, "constraints", constraints)
        set_field(self, "moves", moves)

    @staticmethod
    def from_generators(gens: FrozenSet[Generator]) -> "Disjunct":
        literals = frozenset(g for g in gens if isinstance(g, (PosLiteral, NegLiteral)))
        constraints = frozenset(g for g in gens if isinstance(g, SpatialConstraint))
        moves = frozenset(g for g in gens if isinstance(g, Move))
        return Disjunct(literals, constraints, moves)

    @property
    def generators(self) -> FrozenSet[Generator]:
        return self.literals | self.constraints | self.moves


def _expand(formula: Formula, cap: int) -> List[FrozenSet[Generator]]:
    """The disjuncts of ``formula`` before absorption, in expansion order.

    Children are expanded left to right on an explicit stack of frames
    [node, children done, partial result] rather than by recursion, so
    formulas built through the library are not limited by their nesting
    depth.  Each child's disjuncts join the partial result, as a union
    under an Or and as a product under an And, only if the joined size is
    within the cap.
    """
    stack: List[list] = []
    node = formula
    while True:
        while isinstance(node, (And, Or)):
            stack.append([node, 0, [frozenset()] if isinstance(node, And) else []])
            node = node.children[0]
        done: List[FrozenSet[Generator]] = [frozenset((node,))]
        while stack:
            frame = stack[-1]
            parent, partial = frame[0], frame[2]
            union = isinstance(parent, Or)
            if (len(partial) + len(done) if union else len(partial) * len(done)) > cap:
                raise ResourceLimitError(f"DNF exceeds {cap} disjuncts; raise the cap to proceed")
            if union:
                partial.extend(done)
            else:
                frame[2] = [a | b for a, b in itertools.product(partial, done)]
            frame[1] += 1
            if frame[1] < len(parent.children):
                node = parent.children[frame[1]]
                break
            done = stack.pop()[2]
        else:
            return done


def dnf(formula: Formula, *, max_disjuncts: int = DEFAULT_MAX_DISJUNCTS) -> List[Disjunct]:
    """Disjunctive normal form with redundant disjuncts removed.

    Duplicates and strict supersets of other disjuncts are dropped (both are
    absorbed under the monotone semantics), and the survivors are sorted by
    their canonical generator encodings, so equal formulas yield identical
    lists.
    """
    raw = _expand(formula, max_disjuncts)
    kept: List[FrozenSet[Generator]] = []
    for _, same_size in itertools.groupby(sorted(set(raw), key=len), key=len):
        # Only a strictly smaller set can be a strict subset, so each size
        # class is checked against the kept disjuncts of the sizes before it.
        smaller = tuple(kept)
        kept.extend([c for c in same_size if not any(s < c for s in smaller)])
    kept.sort(key=lambda gens: sorted(map(encode_generator, gens)))
    return [Disjunct.from_generators(gens) for gens in kept]

