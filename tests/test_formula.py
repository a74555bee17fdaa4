"""Positive boolean formulas and DNF conversion."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen_random import eval_formula, random_monotone_formula
from qsta import ChainTerm, ResourceLimitError, SpatialConstraint, parse_relation
from qsta.formula import (
    And,
    Move,
    NegLiteral,
    Or,
    PosLiteral,
    complementary_names,
    dnf,
    encode_generator,
    parse_literal,
)


def lit(name):
    return PosLiteral(name)


def tpp_g_d1h():
    return SpatialConstraint(
        rel=parse_relation("TPP"),
        args=(ChainTerm((), "g"), ChainTerm(("d1",), "h")),
    )


# -- dnf ----------------------------------------------------------------------


def test_dnf_single_generator():
    [d] = dnf(lit("a"))
    assert d.generators == frozenset({lit("a")})


def test_dnf_distributes_conjunction_over_disjunction():
    f = And((lit("a"), Or((lit("b"), lit("c")))))
    got = [d.generators for d in dnf(f)]
    assert sorted(got, key=sorted_key) == sorted(
        [frozenset({lit("a"), lit("b")}), frozenset({lit("a"), lit("c")})],
        key=sorted_key,
    )


def sorted_key(gens):
    return tuple(sorted(encode_generator(g) for g in gens))


def test_dnf_four_way_product():
    f = And((Or((lit("a"), lit("b"))), Or((lit("c"), lit("d")))))
    got = {tuple(sorted(encode_generator(g) for g in d.generators)) for d in dnf(f)}
    assert got == {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}


def test_dnf_removes_duplicates_and_supersets():
    # a | (a & b) collapses to a alone
    f = Or((lit("a"), And((lit("a"), lit("b")))))
    assert [d.generators for d in dnf(f)] == [frozenset({lit("a")})]


def test_dnf_keeps_inadmissible_disjuncts_for_later_filtering():
    # dnf is pure monotone normalization; complementary pairs are weeded
    # out by whoever consumes the disjunct.
    f = Or((And((lit("a"), NegLiteral("a"))), lit("b")))
    sets = [d.generators for d in dnf(f)]
    assert frozenset({lit("a"), NegLiteral("a")}) in sets
    assert frozenset({lit("b")}) in sets
    clashes = {
        frozenset(d.generators): complementary_names(d.literals) for d in dnf(f)
    }
    assert clashes[frozenset({lit("a"), NegLiteral("a")})] == ["a"]
    assert clashes[frozenset({lit("b")})] == []


def test_dnf_deterministic_order():
    f = Or((lit("b"), lit("a"), lit("c")))
    encodings = [sorted_key(d.generators) for d in dnf(f)]
    assert encodings == sorted(encodings)


def test_dnf_cap_raises():
    # (a1|b1) & ... & (a14|b14) has 2^14 > 10_000 disjuncts
    clauses = tuple(
        Or((lit(f"a{i}"), lit(f"b{i}"))) for i in range(14)
    )
    message = "^DNF exceeds 10000 disjuncts; raise the cap to proceed$"
    with pytest.raises(ResourceLimitError, match=message):
        dnf(And(clauses))
    assert len(dnf(And(clauses), max_disjuncts=2**14)) == 2**14
    message = "^DNF exceeds 2 disjuncts; raise the cap to proceed$"
    with pytest.raises(ResourceLimitError, match=message):
        dnf(Or((lit("a"), lit("b"), lit("c"))), max_disjuncts=2)


def test_dnf_of_a_chain_deeper_than_the_recursion_limit():
    f = lit("B0")
    for i in range(1, 2001):
        f = And((f, lit(f"B{i}")))
    (disjunct,) = dnf(f)
    assert disjunct.literals == frozenset(lit(f"B{i}") for i in range(2001))


# sha256 of dnf's output on criterion 3's 100 formulas, computed while the
# expansion still recursed.
CRITERION_3_DNF_SHA256 = "b32854a7431f6c15534848ba92671bf798867609ade9e0e7346187ea21c60a0b"


def test_dnf_output_is_pinned_on_criterion_3_formulas():
    rng = random.Random(77)
    lines = []
    for _ in range(100):
        generators = [PosLiteral(f"p{j}") for j in range(rng.randint(1, 6))]
        formula = random_monotone_formula(rng, generators, depth=3)
        lines.append(repr([sorted_key(d.generators) for d in dnf(formula)]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CRITERION_3_DNF_SHA256


def test_dnf_idempotent_on_own_output():
    rng = random.Random(3)
    gens = [lit(f"x{i}") for i in range(5)]
    for _ in range(30):
        f = random_monotone_formula(rng, gens, 3)
        first = dnf(f)
        rebuilt = Or(tuple(And(tuple(sorted(d.generators, key=encode_generator))) for d in first))
        again = dnf(rebuilt)
        assert [d.generators for d in again] == [d.generators for d in first]


def test_dnf_truth_table_equivalence_random():
    rng = random.Random(77)
    for _ in range(60):
        gens = [lit(f"A{i}") for i in range(rng.randint(1, 6))]
        f = random_monotone_formula(rng, gens, 3)
        disjuncts = dnf(f)
        for bits in itertools.product([False, True], repeat=len(gens)):
            truth = dict(zip(gens, bits))
            direct = eval_formula(f, truth)
            via_dnf = any(
                all(truth[g] for g in d.generators) for d in disjuncts
            )
            assert direct == via_dnf


# -- odds and ends ----------------------------------------------------------


def test_parse_literal():
    assert parse_literal("A") == lit("A")
    assert parse_literal("!A") == NegLiteral("A")
    with pytest.raises(ValueError):
        parse_literal("")
    with pytest.raises(ValueError):
        parse_literal("!!A")


def test_encode_generator_forms():
    assert encode_generator(lit("A")) == "A"
    assert encode_generator(NegLiteral("B")) == "!B"
    assert encode_generator(Move("d1", "q0")) == "<d1:q0>"
    assert encode_generator(tpp_g_d1h()) == "TPP(g, d1 h)"


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**20 - 1))
def test_dnf_output_is_superset_free(seed):
    rng = random.Random(seed)
    gens = [lit(f"y{i}") for i in range(4)]
    f = random_monotone_formula(rng, gens, 3)
    sets = [d.generators for d in dnf(f)]
    assert len(set(sets)) == len(sets)
    for a in sets:
        for b in sets:
            if a != b:
                assert not a < b
