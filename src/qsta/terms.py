"""Feature chains and spatial constraints shared by formulas and automata."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .relalg import Relation, parse_relation

__all__ = ["ChainTerm", "SpatialConstraint", "parse_chain", "parse_constraint"]


@dataclass(frozen=True)
class ChainTerm:
    """A possibly empty direction path followed by one feature name.

    ``ChainTerm(("d1", "d2"), "g")`` names the feature g of the node reached
    by walking d1 then d2 from wherever the term is evaluated.
    """

    path: Tuple[str, ...]
    feature: str

    @property
    def length(self) -> int:
        return len(self.path) + 1

    def encode(self) -> str:
        return " ".join(self.path + (self.feature,))

    def __str__(self) -> str:
        return self.encode()


@dataclass(frozen=True)
class SpatialConstraint:
    """A binary RCC8 constraint between two feature chains."""

    rel: Relation
    args: Tuple[ChainTerm, ChainTerm]

    def __post_init__(self) -> None:
        if len(self.args) != 2:
            raise ValueError("spatial constraints are binary")

    def encode(self) -> str:
        return f"{self.rel}({self.args[0]}, {self.args[1]})"

    def __str__(self) -> str:
        return self.encode()


def parse_chain(text: str) -> ChainTerm:
    """Inverse of ``ChainTerm.encode``: whitespace-separated names, feature last."""
    names = text.split()
    if not names:
        raise ValueError("empty feature chain")
    return ChainTerm(path=tuple(names[:-1]), feature=names[-1])


def parse_constraint(text: str) -> SpatialConstraint:
    """Inverse of ``SpatialConstraint.encode``, e.g. ``'{TPP,NTPP}(d1 g, g)'``."""
    text = text.strip()
    open_at = text.find("(")
    if open_at < 0 or not text.endswith(")"):
        raise ValueError(f"malformed constraint: {text!r}")
    rel = parse_relation(text[:open_at])
    inner = text[open_at + 1 : -1]
    parts = inner.split(",")
    if len(parts) != 2:
        raise ValueError(f"spatial constraints are binary: {text!r}")
    return SpatialConstraint(rel=rel, args=(parse_chain(parts[0]), parse_chain(parts[1])))
