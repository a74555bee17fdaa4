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
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

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

# One alternative per token kind; the group that matched names the kind.
# Blanks and comments make no token, and BAD takes any character that starts
# no other token, so every character of the input starts a match.
_TOKEN = re.compile(
    r"(?P<BLANK>[ \t\r\n]+)"
    r"|(?P<COMMENT>#[^\n]*)"
    r'|"(?P<QUOTED>[^"\n]*)"'
    r"|(?P<ARROW>->)"
    r"|(?P<PUNCT>[{}()<>:;,|&!=])"
    rf"|(?P<NAME>{_IDENT.pattern})"
    r"|(?P<BAD>.)"
)

# The parser (``_Parser.formula_atom``) and the printer (``_formula_text``)
# follow parenthesised formulas by recursion, so deeper input is a syntax
# error, not a RecursionError.
MAX_FORMULA_NESTING = 100


class _Token(NamedTuple):
    kind: str  # NAME, QUOTED, PUNCT, ARROW, EOF
    text: str
    offset: int


def _position(text: str, offset: int) -> Tuple[int, int]:
    """Line and column, both from 1, of ``text[offset]``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


_BAD_CHARACTER = {'"': "unterminated quoted name", "-": "stray '-' (expected '->')"}


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    eof = 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "BAD":
            ch = match.group()
            message = _BAD_CHARACTER.get(ch, f"unexpected character {ch!r}")
            raise DslSyntaxError(message, *_position(text, match.start()))
        if kind != "BLANK" and kind != "COMMENT":
            tokens.append(_Token(kind, match.group(kind), match.start()))
        # Input that ends in a comment puts EOF where the comment starts.
        eof = match.start() if kind == "COMMENT" else match.end()
    tokens.append(_Token("EOF", "", eof))
    return tokens


# ---------------------------------------------------------------------------
# Parsing


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, message: str, token: Optional[_Token] = None) -> DslSyntaxError:
        token = token or self.peek()
        return DslSyntaxError(message, *_position(self.text, token.offset))

    def expect_punct(self, text: str) -> _Token:
        token = self.peek()
        if token.kind != "PUNCT" or token.text != text:
            raise self.fail(f"expected '{text}', found {token.text!r}")
        return self.next()

    def expect_arrow(self) -> None:
        if self.peek().kind != "ARROW":
            raise self.fail("expected '->'")
        self.next()

    def at_punct(self, text: str, ahead: int = 0) -> bool:
        token = self.tokens[self.pos + ahead]
        return token.kind == "PUNCT" and token.text == text

    def name(self, what: str = "name") -> str:
        token = self.peek()
        if token.kind in ("NAME", "QUOTED"):
            self.next()
            return token.text
        raise self.fail(f"expected {what}, found {token.text!r}")

    def keyword(self, word: str) -> None:
        token = self.peek()
        if token.kind != "NAME" or token.text != word:
            raise self.fail(f"expected '{word}'")
        self.next()

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
        named = self.peek().kind in ("NAME", "QUOTED")
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
        token = self.peek()
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
            raise self.fail(str(exc), token) from exc

    def chain(self) -> ChainTerm:
        names = [self.name("feature chain")]
        while self.peek().kind in ("NAME", "QUOTED"):
            names.append(self.next().text)
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

    def transition(self) -> Tuple[Transition, _Token]:
        self.expect_punct("{")
        self.keyword("L")
        self.expect_punct("=")
        self.expect_punct("{")
        literals: List[Union[fm.PosLiteral, fm.NegLiteral]] = []
        while not self.at_punct("}"):
            literals.append(self.literal())
        self.expect_punct("}")
        self.expect_punct(";")
        self.keyword("X")
        self.expect_punct("=")
        self.expect_punct("{")
        constraints: List[SpatialConstraint] = []
        while not self.at_punct("}"):
            constraints.append(self.constraint())
        self.expect_punct("}")
        self.expect_punct(";")
        self.keyword("succ")
        succ_token = self.peek()
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
            succ_token,
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
    kind_token = parser.peek()
    if kind_token.kind != "NAME" or kind_token.text not in ("alternating", "nondet"):
        raise parser.fail("expected 'alternating' or 'nondet'")
    kind = parser.next().text
    parser.expect_punct("{")

    sections: Dict[str, Tuple[str, ...]] = {}
    delta: Dict[str, Union[fm.Formula, Tuple[Transition, ...]]] = {}
    succ_positions: List[Tuple[_Token, int]] = []

    while not parser.at_punct("}"):
        token = parser.peek()
        if token.kind != "NAME":
            raise parser.fail("expected a section")
        if token.text == "delta":
            parser.next()
            state_token = parser.peek()
            state = parser.name("state")
            if state in delta:
                raise parser.fail(f"duplicate delta for state '{state}'", state_token)
            parser.expect_arrow()
            if kind == "alternating":
                delta[state] = parser.formula()
            else:
                transitions: List[Transition] = []
                while True:
                    transition, succ_token = parser.transition()
                    transitions.append(transition)
                    succ_positions.append((succ_token, len(transition.succ)))
                    if parser.at_punct("|"):
                        parser.next()
                        continue
                    break
                delta[state] = tuple(transitions)
            parser.expect_punct(";")
            continue
        if token.text not in _SECTION_NAMES:
            raise parser.fail(f"unknown section '{token.text}'")
        if token.text == "acceptall" and kind == "alternating":
            raise parser.fail("section 'acceptall' applies only to nondet automata")
        section = parser.next().text
        if section in sections:
            raise parser.fail(f"duplicate section '{section}'", token)
        parser.expect_punct(":")
        names: List[str] = []
        while not parser.at_punct(";"):
            names.append(parser.name())
        parser.expect_punct(";")
        if not names and section not in _MAY_BE_EMPTY:
            raise parser.fail(f"section '{section}' needs at least one name", token)
        sections[section] = tuple(names)
    parser.expect_punct("}")
    if parser.peek().kind != "EOF":
        raise parser.fail("trailing input after the closing brace")

    for section in _REQUIRED_SECTIONS:
        if section not in sections:
            raise parser.fail(f"missing section '{section}'", kind_token)
    initial = sections["initial"]
    if len(initial) != 1:
        raise parser.fail("section 'initial' needs exactly one name", kind_token)
    acceptall = sections.get("acceptall")
    if acceptall is not None and len(acceptall) != 1:
        raise parser.fail("section 'acceptall' needs exactly one name", kind_token)

    arity = len(sections["directions"])
    for succ_token, count in succ_positions:
        if count != arity:
            raise parser.fail(f"{count} successors for {arity} directions", succ_token)

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
    for state in automaton.states:
        head = f"  delta {_name_text(state)} -> "
        if alternating and state in automaton.delta:
            lines.append(head + _formula_text(automaton.delta[state]) + ";")
        elif not alternating and automaton.transitions(state):
            parts = (_transition_text(t) for t in automaton.transitions(state))
            joiner = "\n" + " " * (len(head) - 2) + "| "
            lines.append(head + joiner.join(parts) + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"
