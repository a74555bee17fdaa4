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
    negative = {lit.name for lit in literals if isinstance(lit, NegLiteral)}
    if not negative:
        return []
    positive = {lit.name for lit in literals if isinstance(lit, PosLiteral)}
    return sorted(positive & negative)


# The Disjunct field each generator class belongs to.
_KIND = {PosLiteral: 0, NegLiteral: 0, SpatialConstraint: 1, Move: 2}


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
        """Split ``gens`` by generator class in one pass.  A kind that holds
        every generator is ``gens`` itself, and the moves are otherwise what
        is left of ``gens``, so no move is hashed again."""
        kinds: Tuple[List[Generator], ...] = ([], [], [])
        for gen in gens:
            kinds[_KIND[gen.__class__]].append(gen)
        literals, constraints, moves = kinds
        if len(moves) == len(gens):
            return Disjunct(frozenset(), frozenset(), gens)
        if len(literals) == len(gens):
            return Disjunct(gens, frozenset(), frozenset())
        literals_set = frozenset(literals)
        constraints_set = frozenset(constraints)
        return Disjunct(
            literals_set, constraints_set, gens.difference(literals_set, constraints_set)
        )

    @property
    def generators(self) -> FrozenSet[Generator]:
        return self.literals | self.constraints | self.moves


def _expand(formula: Formula, cap: int) -> List[FrozenSet[Generator]]:
    """The disjuncts of ``formula`` before absorption.

    Compound children are expanded left to right on an explicit stack of
    frames [is an And, compound children, next child, partial result]
    rather than by recursion, so formulas built through the library are
    not limited by their nesting depth.  A node's generator children join
    in one step when its frame opens: their frozenset under an And, one
    singleton each under an Or.  Each compound child's disjuncts then join
    the partial result, as a product under an And and as a union under an
    Or, only if the joined size is within the cap.  A disjunct count is a
    sum or product of its children's, so whether the cap trips does not
    depend on the order of the joins.
    """
    stack: List[list] = []
    node = formula
    while True:
        while True:
            if not isinstance(node, (And, Or)):
                done: List[FrozenSet[Generator]] = [frozenset((node,))]
                break
            gens = []
            compound = []
            for child in node.children:
                (compound if isinstance(child, (And, Or)) else gens).append(child)
            if isinstance(node, And):
                partial = [frozenset(gens)]
            elif len(gens) > cap:
                raise _over_cap(cap)
            else:
                partial = [frozenset((gen,)) for gen in gens]
            if not compound:
                done = partial
                break
            stack.append([isinstance(node, And), compound, 1, partial])
            node = compound[0]
        while stack:
            frame = stack[-1]
            conjoin, compound, partial = frame[0], frame[1], frame[3]
            if (len(partial) * len(done) if conjoin else len(partial) + len(done)) > cap:
                raise _over_cap(cap)
            if not conjoin:
                partial.extend(done)
            elif partial != [frozenset()]:
                frame[3] = [a | b for a in partial for b in done]
            else:  # an And without generator children
                frame[3] = done
            if frame[2] < len(compound):
                node = compound[frame[2]]
                frame[2] += 1
                break
            done = stack.pop()[3]
        else:
            return done


def _over_cap(cap: int) -> ResourceLimitError:
    return ResourceLimitError(f"DNF exceeds {cap} disjuncts; raise the cap to proceed")


def dnf(formula: Formula, *, max_disjuncts: int = DEFAULT_MAX_DISJUNCTS) -> List[Disjunct]:
    """Disjunctive normal form with redundant disjuncts removed.

    Duplicates and strict supersets of other disjuncts are dropped (both are
    absorbed under the monotone semantics), and the survivors are sorted by
    their canonical generator encodings, so equal formulas yield identical
    lists.
    """
    if max_disjuncts < 1:
        raise ValueError(f"max_disjuncts must be at least 1, not {max_disjuncts}")
    kept = _expand(formula, max_disjuncts)
    if len(kept) > 1:
        raw, kept = kept, []
        for _, same_size in itertools.groupby(sorted(set(raw), key=len), key=len):
            # Only a strictly smaller set can be a strict subset, so each size
            # class is checked against the kept disjuncts of the sizes before it.
            smaller = tuple(kept)
            kept.extend([c for c in same_size if not any(s < c for s in smaller)])
        kept.sort(key=lambda gens: sorted(map(encode_generator, gens)))
    return [Disjunct.from_generators(gens) for gens in kept]
