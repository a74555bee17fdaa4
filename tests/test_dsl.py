"""Parsing and printing of the automaton text format."""

import hashlib
import pathlib
import random
import re

import pytest

from qsta import (
    AlternatingAutomaton,
    DslSyntaxError,
    NondetAutomaton,
    load_automaton,
    print_automaton,
    simulate,
    validate,
)
from qsta import formula as fm

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def err(text):
    with pytest.raises(DslSyntaxError) as info:
        load_automaton(text)
    return info.value


# ---------------------------------------------------------------------------
# Round trips


def test_corpus_files_round_trip():
    for path in sorted(CORPUS.glob("*.aut")):
        automaton = load_automaton(path.read_text())
        again = load_automaton(print_automaton(automaton))
        assert again == automaton, path.name


def test_printing_is_idempotent():
    for path in sorted(CORPUS.glob("*.aut")):
        once = print_automaton(load_automaton(path.read_text()))
        twice = print_automaton(load_automaton(once))
        assert once == twice, path.name


# sha256 of print_automaton over every corpus file, each alternating one
# followed by its simulation, in file name order; computed before the
# printer worked on automata directly.
CANONICAL_PRINT_SHA256 = "749861dd748f8684f42cbb44811ccb389502429293bf1680e1f58beacc17b5ed"


def test_canonical_prints_are_pinned():
    printed = []
    for path in sorted(CORPUS.glob("*.aut")):
        automaton = load_automaton(path.read_text())
        printed.append(print_automaton(automaton))
        if isinstance(automaton, AlternatingAutomaton):
            printed.append(print_automaton(simulate(automaton)))
    assert len(printed) == 15
    assert hashlib.sha256("".join(printed).encode()).hexdigest() == CANONICAL_PRINT_SHA256


# sha256 over 3 000 seeded mutants of the corpus texts: the printed
# automaton, or the message, line and column of the syntax error; computed
# before the tokenizer reported bad characters through its own token kind,
# and re-pinned when the printer began writing one delta per state: two
# mutants name a state twice, and only their printed texts changed.
DSL_ERRORS_SHA256 = "fff49589654744d1dce6698f06aadb6776341fed97227a1803eb5b5edabb30b9"

# Pieces a mutation inserts: punctuation, a character the DSL does not know,
# names and fragments.
PIECES = list('{}()<>:;,|&!=-"# \n\t$') + [
    "->", "q0", '"x-1"', "{EQ,DC}", "TPP", "<d1:q0>", "!A", "L={}",
]


def mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        span = rng.randint(1, 6)
        operation = rng.randrange(3)
        if operation == 0:  # delete a span
            text = text[:at] + text[at + span :]
        elif operation == 1:  # insert a piece
            text = text[:at] + rng.choice(PIECES) + text[at:]
        else:  # duplicate a span
            text = text[:at] + text[at : at + span] + text[at:]
    return text


def test_syntax_errors_are_pinned():
    rng = random.Random(2024)
    texts = [path.read_text() for path in sorted(CORPUS.glob("*.aut"))]
    parts = []
    for _ in range(3000):
        try:
            parts.append(print_automaton(load_automaton(mutate(rng, rng.choice(texts)))))
        except DslSyntaxError as exc:
            parts.append(f"{exc.bare_message} {exc.line} {exc.column}\n")
    assert hashlib.sha256("".join(parts).encode()).hexdigest() == DSL_ERRORS_SHA256


def test_a_state_named_twice_prints_one_delta_and_reloads():
    text = (CORPUS / "self_loop.aut").read_text().replace("states: q0;", "states: q0 q0;")
    automaton = load_automaton(text)
    assert validate(automaton)  # the repeated name is a defect, not a syntax error
    printed = print_automaton(automaton)
    assert printed.count("delta q0 ->") == 1
    assert print_automaton(load_automaton(printed)) == printed


def test_canonical_print_shape():
    text = (CORPUS / "self_loop.aut").read_text()
    printed = print_automaton(load_automaton(text))
    assert printed == (
        "nondet {\n"
        "  directions: d1 d2;\n"
        "  concepts: ;\n"
        "  features: g;\n"
        "  states: q0;\n"
        "  initial: q0;\n"
        "  accepting: q0;\n"
        "  delta q0 -> { L={}; X={}; succ=(q0, q0) };\n"
        "}\n"
    )


def test_simulated_automata_round_trip_through_quotes():
    alt = load_automaton((CORPUS / "alt_univ.aut").read_text())
    product = simulate(alt)
    printed = print_automaton(product)
    assert '"{q0:1}"' in printed or '"{q0:0}"' in printed
    assert '"#"' in printed
    again = load_automaton(printed)
    assert isinstance(again, NondetAutomaton)
    assert again.states == product.states
    assert again.delta == product.delta
    assert again.accept_all == product.accept_all


def test_quoted_names_in_constraints_round_trip():
    # direction and feature names that are no identifiers keep their quotes
    # inside constraints, in transitions and in formulas alike
    head = (
        '  directions: "x-1" d2;\n  concepts: ;\n  features: g "f.2";\n'
        "  states: q0;\n  initial: q0;\n  accepting: q0;\n"
    )
    nondet = load_automaton(
        "nondet {\n" + head + '  delta q0 -> { L={}; X={TPP("x-1" g, g) '
        'EQ(d2 "f.2", "x-1" d2 "f.2")}; succ=(q0, q0) };\n}\n'
    )
    alternating = load_automaton(
        "alternating {\n" + head + '  delta q0 -> {TPP,NTPP}("x-1" g, g) '
        '& (<"x-1":q0> | EQ(d2 "f.2", "f.2")) & <d2:q0>;\n}\n'
    )
    for automaton in (nondet, alternating, simulate(alternating)):
        assert validate(automaton) == []
        printed = print_automaton(automaton)
        assert '"x-1" g' in printed and 'd2 "f.2"' in printed
        assert load_automaton(printed) == automaton


# ---------------------------------------------------------------------------
# Lexical details


def test_comments_and_whitespace_are_ignored():
    automaton = load_automaton(
        "# leading comment\n"
        "nondet { # trailing comment\n"
        "  directions: d1 d2;;\n".replace(";;", ";")
        + "  concepts: ;\n  features: g;\n  states: q0;\n"
        "  initial: q0;\n  accepting: q0;\n"
        "  delta q0 -> { L={}; X={}; succ=(q0, q0) }; # comment\n"
        "}\n"
    )
    assert isinstance(automaton, NondetAutomaton)


def test_quoted_names_accept_punctuation():
    automaton = load_automaton(
        'nondet {\n  directions: d1;\n  concepts: ;\n  features: g;\n'
        '  states: "{q0:1}";\n  initial: "{q0:1}";\n  accepting: "{q0:1}";\n'
        '  delta "{q0:1}" -> { L={}; X={} ; succ=("{q0:1}") };\n}\n'
    )
    assert automaton.states == ("{q0:1}",)


def test_unterminated_quote_is_positioned():
    e = err('nondet { directions: "d1\n')
    assert e.line == 1
    assert "unterminated" in e.bare_message
    # a closing quote on a later line does not end the name
    e = err('nondet {\n  states: "q\n0";\n}')
    assert (e.bare_message, e.line, e.column) == ("unterminated quoted name", 2, 11)


def test_stray_dash_is_rejected():
    e = err("nondet {\n  directions: d1 - d2;\n}")
    assert (e.line, "stray '-'" in e.bare_message) == (2, True)


def test_unexpected_character_is_positioned():
    e = err("nondet {\n  directions: d1 $ d2;\n}")
    assert e.line == 2
    assert "unexpected character" in e.bare_message
    # a tab and a carriage return each advance the column by one
    e = err("nondet {\n\tdirections:\r$")
    assert (e.bare_message, e.line, e.column) == ("unexpected character '$'", 2, 14)


def test_input_ending_in_a_comment_puts_eof_at_the_comment():
    # a comment does not advance the column
    e = err("nondet {  # no newline follows")
    assert (e.bare_message, e.line, e.column) == ("expected a section", 1, 11)


# The DSL's tokens, found without the loader: blanks and comments, then a
# quoted name, the arrow, one punctuation character or a name.
TOKEN = re.compile(r'(?:\s|#[^\n]*)*("[^"\n]*"|->|[{}()<>:;,|&!=]|\w+)')


def test_a_bad_character_is_positioned_in_place_of_every_token():
    # the loader finds a token's position only for an error, by scanning the
    # text again up to it; this checks that scan at every token of the corpus
    cases = 0
    for path in sorted(CORPUS.glob("*.aut")):
        text = path.read_text()
        assert "$" not in text
        for match in TOKEN.finditer(text):
            mutant = text[: match.start(1)] + "$" + text[match.end(1) :]
            at = mutant.index("$")
            line, column = mutant.count("\n", 0, at) + 1, at - mutant.rfind("\n", 0, at)
            e = err(mutant)
            assert (e.bare_message, e.line, e.column) == ("unexpected character '$'", line, column)
            cases += 1
    assert cases > 800


# ---------------------------------------------------------------------------
# Structural errors


def test_unknown_kind_rejected():
    e = err("tree { }")
    assert "'alternating' or 'nondet'" in e.bare_message


def test_unknown_section_rejected():
    e = err("nondet { colours: red; }")
    assert "unknown section 'colours'" in e.bare_message


def test_duplicate_section_rejected():
    e = err("nondet { directions: d1; directions: d2; }")
    assert "duplicate section 'directions'" in e.bare_message


def test_missing_section_reported():
    e = err(
        "nondet { directions: d1; features: g; states: q0; initial: q0; }"
    )
    assert "missing section 'accepting'" in e.bare_message


def test_empty_required_section_rejected():
    e = err("nondet { directions: ; }")
    assert "needs at least one name" in e.bare_message


def test_concepts_and_accepting_may_be_empty():
    automaton = load_automaton(
        "nondet {\n  directions: d1;\n  concepts: ;\n  features: g;\n"
        "  states: q0;\n  initial: q0;\n  accepting: ;\n"
        "  delta q0 -> { L={}; X={}; succ=(q0) };\n}\n"
    )
    assert automaton.sig.concepts == ()
    assert automaton.accepting == frozenset()


def test_initial_needs_exactly_one_name():
    e = err(
        "nondet { directions: d1; features: g; states: q0 q1;"
        " initial: q0 q1; accepting: q0; }"
    )
    assert "exactly one name" in e.bare_message


def test_duplicate_delta_rejected():
    e = err(
        "nondet { directions: d1; features: g; states: q0;"
        " initial: q0; accepting: q0;"
        " delta q0 -> { L={}; X={}; succ=(q0) };"
        " delta q0 -> { L={}; X={}; succ=(q0) }; }"
    )
    assert "duplicate delta for state 'q0'" in e.bare_message


def test_successor_arity_is_checked_with_position():
    e = err(
        "nondet {\n  directions: d1 d2;\n  concepts: ;\n  features: g;\n"
        "  states: q0;\n  initial: q0;\n  accepting: q0;\n"
        "  delta q0 -> { L={}; X={}; succ=(q0, q0, q0) };\n}\n"
    )
    assert "3 successors for 2 directions" in e.bare_message
    assert e.line == 8


def test_trailing_garbage_rejected():
    e = err(
        "nondet { directions: d1; features: g; states: q0;"
        " initial: q0; accepting: q0;"
        " delta q0 -> { L={}; X={}; succ=(q0) }; } extra"
    )
    assert "trailing input" in e.bare_message


def test_unknown_relation_atom_is_positioned():
    e = err(
        "nondet {\n  directions: d1;\n  concepts: ;\n  features: g;\n"
        "  states: q0;\n  initial: q0;\n  accepting: q0;\n"
        "  delta q0 -> { L={}; X={NEAR(g, g)}; succ=(q0) };\n}\n"
    )
    assert "unknown RCC8 atom 'NEAR'" in e.bare_message
    assert e.line == 8
    # a quoted name is one atom, read as it is written
    for relation, atom in [
        ('{"DC,EC"}', "DC,EC"),
        ('" DC "', " DC "),
        ('"{DC}"', "{DC}"),
        ('{""}', ""),
    ]:
        e = err(
            "nondet {\n  directions: d1;\n  concepts: ;\n  features: g;\n"
            "  states: q0;\n  initial: q0;\n  accepting: q0;\n"
            f"  delta q0 -> {{ L={{}}; X={{{relation}(g, d1 g)}}; succ=(q0) }};\n}}\n"
        )
        assert (e.bare_message, e.line, e.column) == (f"unknown RCC8 atom {atom!r}", 8, 26)


# ---------------------------------------------------------------------------
# Alternating formulas


def test_alternating_formula_precedence():
    automaton = load_automaton(
        "alternating {\n  directions: d1;\n  concepts: A B;\n  features: g;\n"
        "  states: q0;\n  initial: q0;\n  accepting: q0;\n"
        "  delta q0 -> A & <d1:q0> | B;\n}\n"
    )
    body = automaton.delta["q0"]
    assert isinstance(body, fm.Or)
    assert isinstance(body.children[0], fm.And)
    assert body.children[1] == fm.PosLiteral("B")


def test_alternating_parentheses_override_precedence():
    automaton = load_automaton(
        "alternating {\n  directions: d1;\n  concepts: A B;\n  features: g;\n"
        "  states: q0;\n  initial: q0;\n  accepting: q0;\n"
        "  delta q0 -> A & (<d1:q0> | B);\n}\n"
    )
    body = automaton.delta["q0"]
    assert isinstance(body, fm.And)
    assert isinstance(body.children[1], fm.Or)


def test_formula_nesting_is_limited():
    def doc(depth):
        return (
            "alternating {\n  directions: d1;\n  concepts: A;\n  features: g;\n"
            "  states: q0;\n  initial: q0;\n  accepting: q0;\n"
            "  delta q0 -> " + "(" * depth + "A" + ")" * depth + ";\n}\n"
        )

    assert load_automaton(doc(100)).delta["q0"] == fm.PosLiteral("A")
    e = err(doc(101))
    assert e.bare_message == "formula nested deeper than 100 levels"
    assert (e.line, e.column) == (8, 115)


def test_alternating_constraint_with_relation_set():
    automaton = load_automaton(
        "alternating {\n  directions: d1;\n  concepts: ;\n  features: g h;\n"
        "  states: q0;\n  initial: q0;\n  accepting: q0;\n"
        "  delta q0 -> {TPP,NTPP}(d1 g, h) & <d1:q0>;\n}\n"
    )
    body = automaton.delta["q0"]
    constraint = body.children[0]
    assert str(constraint.rel) == "{TPP,NTPP}"
    assert constraint.args[0].path == ("d1",)
    assert constraint.args[1].feature == "h"


def test_alternating_negated_literal_and_move():
    automaton = load_automaton(
        "alternating {\n  directions: d1;\n  concepts: A;\n  features: g;\n"
        "  states: q0 q1;\n  initial: q0;\n  accepting: q1;\n"
        "  delta q0 -> !A & <d1:q1>;\n  delta q1 -> <d1:q1>;\n}\n"
    )
    body = automaton.delta["q0"]
    assert body.children[0] == fm.NegLiteral("A")
    assert body.children[1] == fm.Move("d1", "q1")


# ---------------------------------------------------------------------------
# Elaboration


def test_elaboration_produces_typed_automata():
    nondet = load_automaton((CORPUS / "self_loop.aut").read_text())
    assert isinstance(nondet, NondetAutomaton)
    alt = load_automaton((CORPUS / "alt_univ.aut").read_text())
    assert isinstance(alt, AlternatingAutomaton)


def test_elaboration_fills_missing_delta_with_no_transitions():
    automaton = load_automaton(
        "nondet {\n  directions: d1;\n  concepts: ;\n  features: g;\n"
        "  states: q0 q1;\n  initial: q0;\n  accepting: q0;\n"
        "  delta q0 -> { L={}; X={}; succ=(q1) };\n}\n"
    )
    assert automaton.transitions("q1") == ()


def test_acceptall_section_round_trips():
    text = (
        "nondet {\n  directions: d1;\n  concepts: ;\n  features: g;\n"
        '  states: q0 "#";\n  initial: q0;\n  accepting: q0 "#";\n'
        '  acceptall: "#";\n'
        '  delta q0 -> { L={}; X={}; succ=("#") };\n'
        '  delta "#" -> { L={}; X={}; succ=("#") };\n}\n'
    )
    automaton = load_automaton(text)
    assert automaton.accept_all == "#"
    assert 'acceptall: "#";' in print_automaton(automaton)


def test_acceptall_is_rejected_in_alternating_documents():
    # only nondet automata have an accept-all sink
    e = err(
        "alternating {\n  directions: d1;\n  concepts: ;\n  features: g;\n"
        "  states: q0;\n  initial: q0;\n  accepting: q0;\n  acceptall: q0;\n"
        "  delta q0 -> <d1:q0>;\n}\n"
    )
    assert e.bare_message == "section 'acceptall' applies only to nondet automata"
    assert (e.line, e.column) == (8, 3)


def test_acceptall_needs_exactly_one_name():
    e = err(
        "nondet { directions: d1; features: g; states: q0 q1;"
        " initial: q0; accepting: q0; acceptall: q0 q1; }"
    )
    assert e.bare_message == "section 'acceptall' needs exactly one name"
    assert (e.line, e.column) == (1, 1)


def test_transition_order_is_preserved():
    automaton = load_automaton((CORPUS / "fallback.aut").read_text())
    first, second = automaton.transitions("q0")
    assert first.constraints and not first.literals
    assert second.literals and second.constraints
