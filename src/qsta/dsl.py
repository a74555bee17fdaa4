"""Text format for automata: text parses straight into an automaton, and
an automaton prints in one canonical form.

A document looks like::

    nondet {
      directions: d1 d2;
      concepts: A;
      features: g;
      states: q0 q1;
      initial: q0;
      accepting: q0;
      delta q0 -> { L={A}; X={TPP(g, d1 g)}; succ=(q0, q1) }
               | { L={}; X={}; succ=(q1, q1) };
    }

Alternating documents replace the transition list by a positive formula
over ``&``, ``|``, parentheses, literals ``A``/``!A``, moves ``<d1:q0>``
and constraints ``{TPP,NTPP}(d1 g, g)``.  Names are plain identifiers or
double-quoted strings (needed for simulated states such as ``"{q0:1}"``
and ``"#"``).  ``#`` outside quotes starts a line comment.  Only nondet
documents may name an accept-all sink (``acceptall: "#";``).

``print_automaton`` writes every section in the order above, ``accepting``
and the ``delta`` entries in state order, and a nondet transition's
literals and constraints sorted by their text; ``load_automaton`` reads
the result of a well-formed automaton back to an equal automaton.
"""

from __future__ import annotations

import re
import string
from itertools import islice
from typing import Dict, Iterable, List, Optional, Tuple, Union

from . import formula as fm
from .automata import (
    AlternatingAutomaton,
    Automaton,
    NondetAutomaton,
    Signature,
    Transition,
)
from .errors import DslSyntaxError
from .relalg import Relation
from .terms import ChainTerm, SpatialConstraint

__all__ = ["load_automaton", "print_automaton"]


# ---------------------------------------------------------------------------
# Tokens

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# One match per token: blanks and comments before it make no token, and
# the group is the token itself.  A token is a plain string whose first
# character gives its kind: '"' a quoted name (quotes included), a letter
# or '_' a name, "->" the arrow, and any other a punctuation character.
# The empty string at the end is EOF (trailing blanks give a second one).
# A character that starts no token takes the rest of the input, so a bad
# character is always the token before the last.  The group always
# matches, so the blanks and comments before it are never cut short.
_GOOD_TOKEN = re.compile(r'"[^"\n]*"|->|[{}()<>:;,|&!=]|' + _IDENT.pattern)
_TOKEN = re.compile(rf"(?:[ \t\r\n]+|#[^\n]*)*({_GOOD_TOKEN.pattern}|\Z|[\s\S]+)")
_TRAILING_COMMENT = re.compile(r"#[^\n]*\Z")
_NAME_START = frozenset(string.ascii_letters + "_")

# The parser (``_Parser.formula_atom``) and the printer (``_formula_text``)
# follow parenthesised formulas by recursion, so deeper input is a syntax
# error, not a RecursionError.
MAX_FORMULA_NESTING = 100


def _position(text: str, offset: int) -> Tuple[int, int]:
    """Line and column, both from 1, of ``text[offset]``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _offset(text: str, index: int) -> int:
    """Where token ``index`` of ``text`` starts, by scanning the text again.
    Input that ends in a comment puts EOF where the comment starts."""
    match = next(islice(_TOKEN.finditer(text), index, None))
    if match.group(1):
        return match.start(1)
    comment = _TRAILING_COMMENT.search(text, match.start())
    return comment.start() if comment else len(text)


def _is_name(token: str) -> bool:
    """A name or a quoted name."""
    return token[:1] in _NAME_START or token[:1] == '"'


def _shown(token: str) -> str:
    """A token as error messages show it: a quoted name without its quotes."""
    return token[1:-1] if token[:1] == '"' else token


def _error(message: str, text: str, index: int) -> DslSyntaxError:
    return DslSyntaxError(message, *_position(text, _offset(text, index)))


_BAD_CHARACTER = {'"': "unterminated quoted name", "-": "stray '-' (expected '->')"}


def _tokenize(text: str) -> List[str]:
    tokens = _TOKEN.findall(text)
    last = tokens[-2] if len(tokens) > 1 else ""
    if last and not _GOOD_TOKEN.fullmatch(last):
        message = _BAD_CHARACTER.get(last[0], f"unexpected character {last[0]!r}")
        raise _error(message, text, len(tokens) - 2)
    return tokens


# ---------------------------------------------------------------------------
# Parsing


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, message: str, at: Optional[int] = None) -> DslSyntaxError:
        """An error at token ``at``, by default the next one."""
        return _error(message, self.text, self.pos if at is None else at)

    def expect_punct(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            raise self.fail(f"expected '{text}', found {_shown(self.peek())!r}")
        self.pos += 1

    def at_punct(self, text: str, ahead: int = 0) -> bool:
        return self.tokens[self.pos + ahead] == text

    def name(self, what: str = "name") -> str:
        token = self.tokens[self.pos]
        if token[:1] in _NAME_START:
            self.pos += 1
            return token
        if token[:1] == '"':
            self.pos += 1
            return token[1:-1]
        raise self.fail(f"expected {what}, found {_shown(token)!r}")

    def expect(self, token: str) -> None:
        """A keyword or the arrow; the error does not show what was found."""
        if self.tokens[self.pos] != token:
            raise self.fail(f"expected '{token}'")
        self.pos += 1

    # -- formulas -----------------------------------------------------------

    def formula(self) -> fm.Formula:
        terms = [self.formula_and()]
        while self.at_punct("|"):
            self.next()
            terms.append(self.formula_and())
        return terms[0] if len(terms) == 1 else fm.Or(tuple(terms))

    def formula_and(self) -> fm.Formula:
        terms = [self.formula_atom()]
        while self.at_punct("&"):
            self.next()
            terms.append(self.formula_atom())
        return terms[0] if len(terms) == 1 else fm.And(tuple(terms))

    def formula_atom(self) -> fm.Formula:
        named = _is_name(self.peek())
        if self.at_punct("("):
            if self.nesting == MAX_FORMULA_NESTING:
                raise self.fail(f"formula nested deeper than {MAX_FORMULA_NESTING} levels")
            self.next()
            self.nesting += 1
            inner = self.formula()
            self.nesting -= 1
            self.expect_punct(")")
            return inner
        if self.at_punct("<"):
            self.next()
            direction = self.name("direction")
            self.expect_punct(":")
            state = self.name("state")
            self.expect_punct(">")
            return fm.Move(direction, state)
        if self.at_punct("{") or named and self.at_punct("(", 1):
            return self.constraint()
        if named or self.at_punct("!"):
            return self.literal()
        raise self.fail("expected a formula")

    # -- constraints --------------------------------------------------------

    def relation(self) -> Relation:
        start = self.pos
        if self.at_punct("{"):
            self.next()
            atoms = [self.name("relation atom")]
            while self.at_punct(","):
                self.next()
                atoms.append(self.name("relation atom"))
            self.expect_punct("}")
        else:
            atoms = [self.name("relation atom")]
        try:
            return Relation.of(*atoms)
        except ValueError as exc:
            raise self.fail(str(exc), start) from exc

    def chain(self) -> ChainTerm:
        names = [self.name("feature chain")]
        while _is_name(self.peek()):
            names.append(self.name())
        return ChainTerm(path=tuple(names[:-1]), feature=names[-1])

    def constraint(self) -> SpatialConstraint:
        rel = self.relation()
        self.expect_punct("(")
        first = self.chain()
        self.expect_punct(",")
        second = self.chain()
        self.expect_punct(")")
        return SpatialConstraint(rel=rel, args=(first, second))

    # -- nondet transitions --------------------------------------------------

    def literal(self) -> Union[fm.PosLiteral, fm.NegLiteral]:
        if self.at_punct("!"):
            self.next()
            return fm.NegLiteral(self.name("concept name"))
        return fm.PosLiteral(self.name("concept name"))

    def transition(self) -> Tuple[Transition, int]:
        self.expect_punct("{")
        self.expect("L")
        self.expect_punct("=")
        self.expect_punct("{")
        literals: List[Union[fm.PosLiteral, fm.NegLiteral]] = []
        while not self.at_punct("}"):
            literals.append(self.literal())
        self.expect_punct("}")
        self.expect_punct(";")
        self.expect("X")
        self.expect_punct("=")
        self.expect_punct("{")
        constraints: List[SpatialConstraint] = []
        while not self.at_punct("}"):
            constraints.append(self.constraint())
        self.expect_punct("}")
        self.expect_punct(";")
        self.expect("succ")
        succ_at = self.pos
        self.expect_punct("=")
        self.expect_punct("(")
        succ = [self.name("state")]
        while self.at_punct(","):
            self.next()
            succ.append(self.name("state"))
        self.expect_punct(")")
        self.expect_punct("}")
        return (
            Transition(frozenset(literals), frozenset(constraints), tuple(succ)),
            succ_at,
        )


_SECTION_NAMES = (
    "directions",
    "concepts",
    "features",
    "states",
    "initial",
    "accepting",
    "acceptall",
)
_REQUIRED_SECTIONS = (
    "directions",
    "features",
    "states",
    "initial",
    "accepting",
)
_MAY_BE_EMPTY = ("concepts", "accepting")


def load_automaton(text: str) -> Automaton:
    """Parse a document; raises DslSyntaxError with line and column."""
    parser = _Parser(text)
    kind = parser.peek()
    if kind not in ("alternating", "nondet"):
        raise parser.fail("expected 'alternating' or 'nondet'")
    parser.next()
    parser.expect_punct("{")

    sections: Dict[str, Tuple[str, ...]] = {}
    delta: Dict[str, Union[fm.Formula, Tuple[Transition, ...]]] = {}
    succ_positions: List[Tuple[int, int]] = []

    while not parser.at_punct("}"):
        at = parser.pos
        token = parser.peek()
        if token[:1] not in _NAME_START:
            raise parser.fail("expected a section")
        if token == "delta":
            parser.next()
            state = parser.name("state")
            if state in delta:
                raise parser.fail(f"duplicate delta for state '{state}'", at + 1)
            parser.expect("->")
            if kind == "alternating":
                delta[state] = parser.formula()
            else:
                transitions: List[Transition] = []
                while True:
                    transition, succ_at = parser.transition()
                    transitions.append(transition)
                    succ_positions.append((succ_at, len(transition.succ)))
                    if parser.at_punct("|"):
                        parser.next()
                        continue
                    break
                delta[state] = tuple(transitions)
            parser.expect_punct(";")
            continue
        if token not in _SECTION_NAMES:
            raise parser.fail(f"unknown section '{token}'")
        if token == "acceptall" and kind == "alternating":
            raise parser.fail("section 'acceptall' applies only to nondet automata")
        section = parser.next()
        if section in sections:
            raise parser.fail(f"duplicate section '{section}'", at)
        parser.expect_punct(":")
        names: List[str] = []
        while not parser.at_punct(";"):
            names.append(parser.name())
        parser.expect_punct(";")
        if not names and section not in _MAY_BE_EMPTY:
            raise parser.fail(f"section '{section}' needs at least one name", at)
        sections[section] = tuple(names)
    parser.expect_punct("}")
    if parser.peek():
        raise parser.fail("trailing input after the closing brace")

    for section in _REQUIRED_SECTIONS:
        if section not in sections:
            raise parser.fail(f"missing section '{section}'", 0)
    initial = sections["initial"]
    if len(initial) != 1:
        raise parser.fail("section 'initial' needs exactly one name", 0)
    acceptall = sections.get("acceptall")
    if acceptall is not None and len(acceptall) != 1:
        raise parser.fail("section 'acceptall' needs exactly one name", 0)

    arity = len(sections["directions"])
    for succ_at, count in succ_positions:
        if count != arity:
            raise parser.fail(f"{count} successors for {arity} directions", succ_at)

    sig = Signature(
        directions=sections["directions"],
        concepts=sections.get("concepts", ()),
        features=sections["features"],
    )
    states = sections["states"]
    accepting = frozenset(sections["accepting"])
    if kind == "alternating":
        return AlternatingAutomaton(
            sig=sig, states=states, initial=initial[0], accepting=accepting, delta=delta
        )
    return NondetAutomaton(
        sig=sig,
        states=states,
        initial=initial[0],
        accepting=accepting,
        delta={**{state: () for state in states}, **delta},
        accept_all=acceptall[0] if acceptall else None,
    )


# ---------------------------------------------------------------------------
# Printing


def _name_text(name: str) -> str:
    if _IDENT.fullmatch(name):
        return name
    if '"' in name or "\n" in name:
        raise ValueError(f"name not printable: {name!r}")
    return f'"{name}"'


def _names(names: Iterable[str]) -> str:
    return " ".join(_name_text(n) for n in names)


def _literal_text(literal: Union[fm.PosLiteral, fm.NegLiteral]) -> str:
    if isinstance(literal, fm.NegLiteral):
        return "!" + _name_text(literal.name)
    return _name_text(literal.name)


def _constraint_text(constraint: SpatialConstraint) -> str:
    first, second = (_names(chain.path + (chain.feature,)) for chain in constraint.args)
    return f"{constraint.rel}({first}, {second})"


def _formula_text(formula: fm.Formula, parent: str = "or") -> str:
    if isinstance(formula, fm.Or):
        if len(formula.children) == 1:
            return _formula_text(formula.children[0], parent)
        inner = " | ".join(_formula_text(c, "or") for c in formula.children)
        return f"({inner})" if parent == "and" else inner
    if isinstance(formula, fm.And):
        if len(formula.children) == 1:
            return _formula_text(formula.children[0], parent)
        return " & ".join(_formula_text(c, "and") for c in formula.children)
    if isinstance(formula, (fm.PosLiteral, fm.NegLiteral)):
        return _literal_text(formula)
    if isinstance(formula, fm.Move):
        return f"<{_name_text(formula.direction)}:{_name_text(formula.state)}>"
    if isinstance(formula, SpatialConstraint):
        return _constraint_text(formula)
    raise TypeError(f"not a formula: {formula!r}")


def _transition_text(transition: Transition) -> str:
    literals = " ".join(
        _literal_text(l) for l in sorted(transition.literals, key=fm.encode_generator)
    )
    constraints = " ".join(
        _constraint_text(c)
        for c in sorted(transition.constraints, key=SpatialConstraint.encode)
    )
    succ = ", ".join(_name_text(s) for s in transition.succ)
    return f"{{ L={{{literals}}}; X={{{constraints}}}; succ=({succ}) }}"


def print_automaton(automaton: Automaton) -> str:
    sig = automaton.sig
    alternating = isinstance(automaton, AlternatingAutomaton)
    accepting = (s for s in automaton.states if s in automaton.accepting)
    lines = [
        f"{'alternating' if alternating else 'nondet'} {{",
        f"  directions: {_names(sig.directions)};",
        f"  concepts: {_names(sig.concepts)};",
        f"  features: {_names(sig.features)};",
        f"  states: {_names(automaton.states)};",
        f"  initial: {_name_text(automaton.initial)};",
        f"  accepting: {_names(accepting)};",
    ]
    if not alternating and automaton.accept_all is not None:
        lines.append(f"  acceptall: {_name_text(automaton.accept_all)};")
    for state in dict.fromkeys(automaton.states):  # once, if a state is named twice
        head = f"  delta {_name_text(state)} -> "
        if alternating and state in automaton.delta:
            lines.append(head + _formula_text(automaton.delta[state]) + ";")
        elif not alternating and automaton.transitions(state):
            parts = (_transition_text(t) for t in automaton.transitions(state))
            joiner = "\n" + " " * (len(head) - 2) + "| "
            lines.append(head + joiner.join(parts) + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"
