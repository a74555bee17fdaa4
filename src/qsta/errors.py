"""Shared exception types."""

from __future__ import annotations


class ResourceLimitError(RuntimeError):
    """A configured resource cap (disjuncts, states, search nodes) was hit.

    Raised instead of silently truncating, so callers can either raise the
    cap or treat the input as out of scope.
    """


class MalformedModelError(ValueError):
    """A finite tree model violates its structural contract."""


class DslSyntaxError(ValueError):
    """Syntax error in the automaton DSL, with position information."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.bare_message = message
        self.line = line
        self.column = column
