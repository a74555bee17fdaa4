"""Text format for automata: parse, print, and elaborate to automaton objects.

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
and ``"#"``).  ``#`` outside quotes starts a line comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import formula as fm
from .automata import (
    AlternatingAutomaton,
    Automaton,
    NondetAutomaton,
    Signature,
    Transition,
)
from .errors import DslSyntaxError
from .relalg import Relation, parse_relation
from .terms import ChainTerm, SpatialConstraint

__all__ = [
    "AutomatonDocument",
    "TransitionSyntax",
    "parse_document",
    "print_document",
    "document_to_automaton",
    "automaton_to_document",
    "load_automaton",
    "print_automaton",
]


# ---------------------------------------------------------------------------
# Tokens

_PUNCT = set("{}()<>:;,|&!=")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# The parser (``_Parser.formula_atom``) and the printer (``_formula_text``)
# follow parenthesised formulas by recursion, so deeper input is a syntax
# error, not a RecursionError.
MAX_FORMULA_NESTING = 100


@dataclass(frozen=True)
class _Token:
    kind: str  # NAME, QUOTED, PUNCT, ARROW, EOF
    text: str
    line: int
    column: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line = 1
    column = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            end = text.find('"', i + 1)
            if end == -1 or "\n" in text[i + 1 : end]:
                raise DslSyntaxError("unterminated quoted name", line, column)
            tokens.append(_Token("QUOTED", text[i + 1 : end], line, column))
            column += end - i + 1
            i = end + 1
            continue
        if ch == "-":
            if text[i : i + 2] == "->":
                tokens.append(_Token("ARROW", "->", line, column))
                i += 2
                column += 2
                continue
            raise DslSyntaxError("stray '-' (expected '->')", line, column)
        if ch in _PUNCT:
            tokens.append(_Token("PUNCT", ch, line, column))
            i += 1
            column += 1
            continue
        match = _IDENT.match(text, i)
        if match:
            tokens.append(_Token("NAME", match.group(), line, column))
            column += match.end() - i
            i = match.end()
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Token("EOF", "", line, column))
    return tokens


# ---------------------------------------------------------------------------
# Documents


@dataclass(frozen=True)
class TransitionSyntax:
    """One nondeterministic transition as written: source order preserved."""

    literals: Tuple[Union[fm.PosLiteral, fm.NegLiteral], ...]
    constraints: Tuple[SpatialConstraint, ...]
    succ: Tuple[str, ...]


DeltaEntry = Union[
    Tuple[str, Tuple[TransitionSyntax, ...]],  # nondet
    Tuple[str, fm.Formula],  # alternating
]


@dataclass(frozen=True)
class AutomatonDocument:
    kind: str  # "alternating" | "nondet"
    directions: Tuple[str, ...]
    concepts: Tuple[str, ...]
    features: Tuple[str, ...]
    states: Tuple[str, ...]
    initial: str
    accepting: Tuple[str, ...]
    acceptall: Optional[str]
    delta: Tuple[DeltaEntry, ...]


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
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
        return DslSyntaxError(message, token.line, token.column)

    def expect_punct(self, text: str) -> _Token:
        token = self.peek()
        if token.kind != "PUNCT" or token.text != text:
            raise self.fail(f"expected '{text}', found {token.text!r}")
        return self.next()

    def expect_arrow(self) -> None:
        if self.peek().kind != "ARROW":
            raise self.fail("expected '->'")
        self.next()

    def at_punct(self, text: str) -> bool:
        token = self.peek()
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
        token = self.peek()
        if self.at_punct("("):
            if self.nesting == MAX_FORMULA_NESTING:
                raise self.fail(f"formula nested deeper than {MAX_FORMULA_NESTING} levels")
            self.next()
            self.nesting += 1
            inner = self.formula()
            self.nesting -= 1
            self.expect_punct(")")
            return inner
        if self.at_punct("!"):
            self.next()
            return fm.NegLiteral(self.name("concept name"))
        if self.at_punct("<"):
            self.next()
            direction = self.name("direction")
            self.expect_punct(":")
            state = self.name("state")
            self.expect_punct(">")
            return fm.Move(direction, state)
        if self.at_punct("{"):
            return fm.Constraint(self.constraint())
        if token.kind in ("NAME", "QUOTED"):
            lookahead = self.tokens[self.pos + 1]
            if lookahead.kind == "PUNCT" and lookahead.text == "(":
                return fm.Constraint(self.constraint())
            self.next()
            return fm.PosLiteral(token.text)
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
            text = "{" + ",".join(atoms) + "}"
        else:
            text = self.name("relation atom")
        try:
            return parse_relation(text)
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

    def transition(self) -> Tuple[TransitionSyntax, _Token]:
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
            TransitionSyntax(tuple(literals), tuple(constraints), tuple(succ)),
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


def parse_document(text: str) -> AutomatonDocument:
    """Parse a document; raises DslSyntaxError with line and column."""
    parser = _Parser(_tokenize(text))
    kind_token = parser.peek()
    if kind_token.kind != "NAME" or kind_token.text not in ("alternating", "nondet"):
        raise parser.fail("expected 'alternating' or 'nondet'")
    kind = parser.next().text
    parser.expect_punct("{")

    sections: Dict[str, Tuple[str, ...]] = {}
    delta: List[DeltaEntry] = []
    delta_states: Dict[str, _Token] = {}
    succ_positions: List[Tuple[_Token, int]] = []

    while not parser.at_punct("}"):
        token = parser.peek()
        if token.kind != "NAME":
            raise parser.fail("expected a section")
        if token.text == "delta":
            parser.next()
            state_token = parser.peek()
            state = parser.name("state")
            if state in delta_states:
                raise parser.fail(f"duplicate delta for state '{state}'", state_token)
            delta_states[state] = state_token
            parser.expect_arrow()
            if kind == "alternating":
                delta.append((state, parser.formula()))
            else:
                transitions: List[TransitionSyntax] = []
                while True:
                    transition, succ_token = parser.transition()
                    transitions.append(transition)
                    succ_positions.append((succ_token, len(transition.succ)))
                    if parser.at_punct("|"):
                        parser.next()
                        continue
                    break
                delta.append((state, tuple(transitions)))
            parser.expect_punct(";")
            continue
        if token.text not in _SECTION_NAMES:
            raise parser.fail(f"unknown section '{token.text}'")
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
            raise DslSyntaxError(
                f"missing section '{section}'", kind_token.line, kind_token.column
            )
    initial = sections["initial"]
    if len(initial) != 1:
        raise DslSyntaxError(
            "section 'initial' needs exactly one name", kind_token.line, kind_token.column
        )
    acceptall = sections.get("acceptall")
    if acceptall is not None and len(acceptall) != 1:
        raise DslSyntaxError(
            "section 'acceptall' needs exactly one name",
            kind_token.line,
            kind_token.column,
        )

    arity = len(sections["directions"])
    for succ_token, count in succ_positions:
        if count != arity:
            raise DslSyntaxError(
                f"{count} successors for {arity} directions",
                succ_token.line,
                succ_token.column,
            )

    return AutomatonDocument(
        kind=kind,
        directions=sections["directions"],
        concepts=sections.get("concepts", ()),
        features=sections["features"],
        states=sections["states"],
        initial=initial[0],
        accepting=sections["accepting"],
        acceptall=acceptall[0] if acceptall else None,
        delta=tuple(delta),
    )


# ---------------------------------------------------------------------------
# Printing


def _name_text(name: str) -> str:
    if _IDENT.fullmatch(name):
        return name
    if '"' in name or "\n" in name:
        raise ValueError(f"name not printable: {name!r}")
    return f'"{name}"'


def _names(names: Sequence[str]) -> str:
    return " ".join(_name_text(n) for n in names)


def _literal_text(literal: Union[fm.PosLiteral, fm.NegLiteral]) -> str:
    if isinstance(literal, fm.NegLiteral):
        return "!" + _name_text(literal.name)
    return _name_text(literal.name)


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
    if isinstance(formula, fm.Constraint):
        return formula.constraint.encode()
    raise TypeError(f"not a formula: {formula!r}")


def _transition_text(transition: TransitionSyntax) -> str:
    literals = " ".join(_literal_text(l) for l in transition.literals)
    constraints = " ".join(c.encode() for c in transition.constraints)
    succ = ", ".join(_name_text(s) for s in transition.succ)
    return f"{{ L={{{literals}}}; X={{{constraints}}}; succ=({succ}) }}"


def print_document(doc: AutomatonDocument) -> str:
    lines = [f"{doc.kind} {{"]
    lines.append(f"  directions: {_names(doc.directions)};")
    lines.append(f"  concepts: {_names(doc.concepts)};")
    lines.append(f"  features: {_names(doc.features)};")
    lines.append(f"  states: {_names(doc.states)};")
    lines.append(f"  initial: {_name_text(doc.initial)};")
    lines.append(f"  accepting: {_names(doc.accepting)};")
    if doc.acceptall is not None:
        lines.append(f"  acceptall: {_name_text(doc.acceptall)};")
    for state, body in doc.delta:
        head = f"  delta {_name_text(state)} -> "
        if doc.kind == "alternating":
            lines.append(head + _formula_text(body) + ";")
        else:
            parts = [_transition_text(t) for t in body]
            joiner = "\n" + " " * (len(head) - 2) + "| "
            lines.append(head + joiner.join(parts) + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Elaboration


def document_to_automaton(doc: AutomatonDocument) -> Automaton:
    sig = Signature(
        directions=doc.directions, concepts=doc.concepts, features=doc.features
    )
    accepting = frozenset(doc.accepting)
    if doc.kind == "alternating":
        return AlternatingAutomaton(
            sig=sig,
            states=doc.states,
            initial=doc.initial,
            accepting=accepting,
            delta={state: formula for state, formula in doc.delta},
        )
    delta: Dict[str, Tuple[Transition, ...]] = {state: () for state in doc.states}
    for state, body in doc.delta:
        delta[state] = tuple(
            Transition(
                literals=frozenset(t.literals),
                constraints=frozenset(t.constraints),
                succ=t.succ,
            )
            for t in body
        )
    return NondetAutomaton(
        sig=sig,
        states=doc.states,
        initial=doc.initial,
        accepting=accepting,
        delta=delta,
        accept_all=doc.acceptall,
    )


def automaton_to_document(automaton: Automaton) -> AutomatonDocument:
    sig = automaton.sig
    accepting = tuple(s for s in automaton.states if s in automaton.accepting)
    if isinstance(automaton, AlternatingAutomaton):
        delta: List[DeltaEntry] = [
            (state, automaton.delta[state])
            for state in automaton.states
            if state in automaton.delta
        ]
        kind = "alternating"
        acceptall = None
    else:
        delta = []
        for state in automaton.states:
            transitions = automaton.transitions(state)
            if not transitions:
                continue
            delta.append(
                (
                    state,
                    tuple(
                        TransitionSyntax(
                            literals=tuple(
                                sorted(t.literals, key=fm.encode_generator)
                            ),
                            constraints=tuple(
                                sorted(t.constraints, key=SpatialConstraint.encode)
                            ),
                            succ=t.succ,
                        )
                        for t in transitions
                    ),
                )
            )
        kind = "nondet"
        acceptall = automaton.accept_all
    return AutomatonDocument(
        kind=kind,
        directions=sig.directions,
        concepts=sig.concepts,
        features=sig.features,
        states=tuple(automaton.states),
        initial=automaton.initial,
        accepting=accepting,
        acceptall=acceptall,
        delta=tuple(delta),
    )


def load_automaton(text: str) -> Automaton:
    return document_to_automaton(parse_document(text))


def print_automaton(automaton: Automaton) -> str:
    return print_document(automaton_to_document(automaton))
