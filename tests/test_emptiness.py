"""Emptiness search, witness structure, unfolding and serialization."""

import gc
import hashlib
import importlib.util
import json
import pathlib
import random

import pytest

from qsta import (
    ChainTerm,
    FiniteTreeModel,
    FtmNode,
    MalformedModelError,
    PtpTriple,
    ResourceLimitError,
    SceneNode,
    SceneTreePrefix,
    WordOrder,
    backconstraints_step,
    check_bounds,
    check_witness,
    decide,
    ftm_search,
    globalcsp,
    is_consistent,
    load_automaton,
    metrics,
    parse_chain,
    parse_constraint,
    resolve_variable,
    scene_from_witness,
    simulate,
    unfold_with_sources,
    validate,
    validate_run_prefix,
    witness_from_json,
    witness_to_dot,
    witness_to_json,
)
import qsta

from gen_random import direct_reading, random_nondet, random_nondet_shaped
from oracle_classic import classical_nonempty
from rebuild import replace

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

EXPECTED_VERDICTS = {
    "self_loop": "not-empty",
    "contradictory": "empty",
    "eq_loop": "not-empty",
    "no_accept": "empty",
    "constraints4": "not-empty",
    "part_cycle": "empty",
    "fallback": "not-empty",
    "alt_univ": "not-empty",
    "alt_choice": "not-empty",
    "alt_spatial": "not-empty",
    "chain3": "not-empty",
    "nonancestor_cycle": "empty",
}


def corpus_automaton(name):
    text = (CORPUS / f"{name}.aut").read_text()
    automaton = load_automaton(text)
    if isinstance(automaton, qsta.AlternatingAutomaton):
        automaton = simulate(automaton)
    return automaton


def replace_node(model, word, **changes):
    nodes = dict(model.nodes)
    nodes[word] = replace(nodes[word], **changes)
    return FiniteTreeModel(directions=model.directions, nodes=nodes)


# ---------------------------------------------------------------------------
# Word order


def test_word_order_follows_declaration_not_alphabet():
    order = WordOrder(("right", "down"))
    assert order.lex_lt(("right",), ("down",))
    assert not order.lex_lt(("down",), ("right",))
    assert order.lex_lt((), ("right",))


def test_word_order_prefix_and_rightmost():
    assert WordOrder.is_strict_prefix((), ("d1",))
    assert not WordOrder.is_strict_prefix(("d2",), ("d1", "d2"))


# ---------------------------------------------------------------------------
# Pending triples


def test_ptp_triple_rejects_bad_argument_index():
    c = parse_constraint("TPP(g, d1 h)")
    with pytest.raises(ValueError):
        PtpTriple(c, 3, parse_chain("h"))


def test_ptp_triple_rejects_non_suffix_chain():
    c = parse_constraint("TPP(g, d1 d2 h)")
    with pytest.raises(ValueError):
        PtpTriple(c, 2, parse_chain("d1 h"))
    with pytest.raises(ValueError):
        PtpTriple(c, 2, parse_chain("d1 d2 h"))  # not a strict suffix


def test_ptp_triple_origin_recovers_issuing_node():
    c = parse_constraint("TPP(g, d1 d2 h)")
    triple = PtpTriple(c, 2, parse_chain("h"))
    assert triple.origin_of(("d1", "d2")) == ()
    assert triple.origin_of(("d2", "d1", "d2")) == ("d2",)


def test_backconstraints_step_from_root_constraint():
    c = parse_constraint("TPP(g, d1 d2 h)")
    root = FtmNode(
        state="q0",
        literals=frozenset(),
        constraints=frozenset({c}),
        children=(("d1",), ("d2",)),
        backnode=None,
        ptpge=frozenset(),
    )
    assert backconstraints_step(root, "d1") == frozenset(
        {PtpTriple(c, 2, parse_chain("d2 h"))}
    )
    assert backconstraints_step(root, "d2") == frozenset()


def test_backconstraints_step_advances_pending_triples():
    c = parse_constraint("TPP(g, d1 d2 h)")
    child = FtmNode(
        state="q0",
        literals=frozenset(),
        constraints=frozenset(),
        children=(("d1", "d1"), ("d1", "d2")),
        backnode=None,
        ptpge=frozenset({PtpTriple(c, 2, parse_chain("d2 h"))}),
    )
    assert backconstraints_step(child, "d2") == frozenset(
        {PtpTriple(c, 2, parse_chain("h"))}
    )
    assert backconstraints_step(child, "d1") == frozenset()


def test_backconstraints_step_bare_feature_triple_dies():
    c = parse_constraint("EQ(g, d1 g)")
    node = FtmNode(
        state="q0",
        literals=frozenset(),
        constraints=frozenset(),
        children=(("d1", "d1"), ("d1", "d2")),
        backnode=None,
        ptpge=frozenset({PtpTriple(c, 2, parse_chain("g"))}),
    )
    assert backconstraints_step(node, "d1") == frozenset()
    assert backconstraints_step(node, "d2") == frozenset()


# ---------------------------------------------------------------------------
# Corpus decisions and witness shapes


def test_corpus_verdicts():
    for name, want in EXPECTED_VERDICTS.items():
        assert decide(corpus_automaton(name)).verdict == want, name


def test_self_loop_witness_folds_both_children_to_root():
    model = decide(corpus_automaton("self_loop")).witness
    assert sorted(model.nodes) == [(), ("d1",), ("d2",)]
    assert model.nodes[("d1",)].backnode == ()
    assert model.nodes[("d2",)].backnode == ()
    assert model.height == 1


def test_eq_loop_witness_shape():
    model = decide(corpus_automaton("eq_loop")).witness
    words = sorted(model.nodes, key=lambda w: (len(w), w))
    assert words == [(), ("d1",), ("d2",), ("d1", "d1"), ("d1", "d2")]
    assert model.internal_words() == [(), ("d1",)]
    assert model.nodes[("d1", "d1")].backnode == ("d1",)
    assert model.nodes[("d1", "d2")].backnode == ()
    assert model.nodes[("d2",)].backnode == ()
    c = parse_constraint("EQ(g, d1 g)")
    assert model.nodes[("d1",)].ptpge == frozenset({PtpTriple(c, 2, parse_chain("g"))})


def test_chain3_witness_needs_height_three():
    model = decide(corpus_automaton("chain3")).witness
    assert model.height == 3
    assert len(model.internal_words()) == 3
    # pending triples accumulate one chain step per level down the d1 spine
    c = parse_constraint("EQ(g, d1 d1 g)")
    assert model.nodes[("d1",)].ptpge == frozenset(
        {PtpTriple(c, 2, parse_chain("d1 g"))}
    )
    assert model.nodes[("d1", "d1")].ptpge == frozenset(
        {PtpTriple(c, 2, parse_chain("d1 g")), PtpTriple(c, 2, parse_chain("g"))}
    )


def test_constraints4_witness_counts():
    model = decide(corpus_automaton("constraints4")).witness
    assert len(model.internal_words()) == 5
    assert len(model.leaf_words()) == 6
    assert model.height == 4


def test_fallback_witness_uses_second_transition():
    automaton = corpus_automaton("fallback")
    model = decide(automaton).witness
    root = model.root
    assert root.constraints == frozenset({parse_constraint("EQ(g, d2 g)")})
    assert any(qsta.formula.encode_generator(l) == "A" for l in root.literals)


def test_empty_instances_report_no_witness_after_csp_checks():
    for name in ("contradictory", "part_cycle"):
        decision = decide(corpus_automaton(name))
        assert decision.witness is None
        assert decision.stats.csp_checks >= 1, name


def test_no_accept_fails_without_touching_the_network():
    decision = decide(corpus_automaton("no_accept"))
    assert decision.witness is None
    assert decision.stats.csp_checks == 0


def test_search_revisits_completed_sibling_subtrees():
    """A structurally complete first configuration whose constraint network
    is unsatisfiable must not lock in the verdict: the search has to retry
    the sibling subtree's other transitions, whatever the declared order."""
    poison_first = """
    nondet {
      directions: d1 d2;
      concepts: ;
      features: h;
      states: q0 q1;
      initial: q0;
      accepting: q0 q1;
      delta q0 -> { L={}; X={}; succ=(q1, q1) };
      delta q1 -> { L={}; X={NTPPI(h, h)}; succ=(q1, q1) }
                | { L={}; X={}; succ=(q1, q1) };
    }
    """
    clean_first = poison_first.replace(
        "{ L={}; X={NTPPI(h, h)}; succ=(q1, q1) }\n                | { L={}; X={}; succ=(q1, q1) }",
        "{ L={}; X={}; succ=(q1, q1) }\n                | { L={}; X={NTPPI(h, h)}; succ=(q1, q1) }",
    )
    assert clean_first != poison_first
    first = decide(load_automaton(poison_first))
    second = decide(load_automaton(clean_first))
    assert first.verdict == "not-empty"
    assert second.verdict == "not-empty"
    # the surviving configuration carries no constraints anywhere
    for model in (first.witness, second.witness):
        assert all(not n.constraints for n in model.nodes.values())


def test_retried_subtree_keeps_constraints_resolved_after_it():
    """The root's constraints reach node d2, which is built after the d1
    subtree.  When the first tree fails, the retry at d1 rebuilds d2, and
    the root's constraints must resolve again there: TPP and DC on the
    same pair make every tree inconsistent."""
    automaton = load_automaton(
        """
        nondet {
          directions: d1 d2;
          concepts: ;
          features: f g;
          states: r a t;
          initial: r;
          accepting: t;
          delta r -> { L={}; X={TPP(f, d2 g) DC(f, d2 g)}; succ=(a, t) };
          delta a -> { L={}; X={DC(f, f)}; succ=(t, t) }
                   | { L={}; X={}; succ=(t, t) };
          delta t -> { L={}; X={}; succ=(t, t) };
        }
        """
    )
    decision = decide(automaton)
    assert decision.verdict == "empty"
    assert decision.stats.csp_checks == 2


def test_retract_to_a_node_keeps_the_constraints_its_registration_resolved():
    """The root's constraints wait on d1 and resolve when d1 is registered.
    d1's first transition only leads to a rejecting cycle, so the search
    retracts to d1 itself and tries its second; the constraints d1's
    registration resolved still stand, and TPP and DC on the same pair make
    the one complete tree inconsistent."""
    automaton = load_automaton(
        """
        nondet {
          directions: d1 d2;
          concepts: ;
          features: f g;
          states: r a n t;
          initial: r;
          accepting: t;
          delta r -> { L={}; X={TPP(f, d1 g) DC(f, d1 g)}; succ=(a, t) };
          delta a -> { L={}; X={}; succ=(n, n) }
                   | { L={}; X={}; succ=(t, t) };
          delta n -> { L={}; X={}; succ=(n, n) };
          delta t -> { L={}; X={}; succ=(t, t) };
        }
        """
    )
    decision = decide(automaton)
    assert decision.verdict == "empty"
    assert decision.stats.csp_checks == 1


# ---------------------------------------------------------------------------
# Variable resolution and the global network


def test_resolve_variable_steps_through_internal_children():
    model = decide(corpus_automaton("eq_loop")).witness
    assert resolve_variable(model.nodes, (), ChainTerm((), "g")) == ((), "g")
    assert resolve_variable(model.nodes, (), ChainTerm(("d1",), "g")) == (("d1",), "g")


def test_resolve_variable_routes_through_backnodes():
    model = decide(corpus_automaton("eq_loop")).witness
    # d1's d1-child is a leaf folding back to d1: the chain lands on d1 itself
    assert resolve_variable(model.nodes, ("d1",), ChainTerm(("d1",), "g")) == (("d1",), "g")
    # two steps from the root pass through the fold as well
    assert resolve_variable(model.nodes, (), ChainTerm(("d1", "d1"), "g")) == (("d1",), "g")


def test_resolve_variable_rejects_backnode_cycles():
    bad = FiniteTreeModel(
        directions=("d1", "d2"),
        nodes={
            (): FtmNode("q0", frozenset(), frozenset(), (("d1",), ("d2",)), None, frozenset()),
            ("d1",): FtmNode("q0", frozenset(), frozenset(), (), ("d2",), frozenset()),
            ("d2",): FtmNode("q0", frozenset(), frozenset(), (), ("d1",), frozenset()),
        },
    )
    with pytest.raises(MalformedModelError):
        resolve_variable(bad.nodes, ("d1",), ChainTerm((), "g"))


def test_resolve_variable_rejects_missing_words():
    model = decide(corpus_automaton("self_loop")).witness
    with pytest.raises(MalformedModelError):
        resolve_variable(model.nodes, ("d1", "d1"), ChainTerm((), "g"))


def test_globalcsp_of_eq_loop_folds_to_a_self_pair():
    model = decide(corpus_automaton("eq_loop")).witness
    network = globalcsp(model.nodes)
    # root constraint: edge between the root's and the child's g regions
    assert str(network.relation(((), "g"), (("d1",), "g"))) == "EQ"
    # child constraint folds onto the child itself: an EQ self entry
    assert str(network.self_relation((("d1",), "g"))) == "EQ"
    assert is_consistent(network)


def test_globalcsp_does_not_depend_on_node_order():
    for name, verdict in EXPECTED_VERDICTS.items():
        if verdict == "not-empty":
            model = decide(corpus_automaton(name)).witness
            reversed_nodes = dict(reversed(list(model.nodes.items())))
            assert globalcsp(reversed_nodes) == globalcsp(model.nodes), name


# ---------------------------------------------------------------------------
# Bounds


def test_bounds_clamp_constraint_free_automata():
    automaton = corpus_automaton("self_loop")
    model = decide(automaton).witness
    met = metrics(automaton)
    assert (met.constraint_count, met.chain_length, met.arity) == (0, 1, 2)
    report = check_bounds(model, met, len(automaton.states))
    assert report.internal_bound == 2  # 1 state x clamp(0) x 1 x 2
    assert report.leaf_bound == 4
    assert report.clamped
    assert report.ok


def test_bounds_exact_counts_for_eq_loop():
    automaton = corpus_automaton("eq_loop")
    model = decide(automaton).witness
    report = check_bounds(model, metrics(automaton), len(automaton.states))
    assert (report.internal_count, report.leaf_count) == (2, 3)
    assert (report.internal_bound, report.leaf_bound) == (4, 8)
    assert not report.clamped
    assert report.ok


def test_bounds_flag_duplicate_signatures():
    model = decide(corpus_automaton("eq_loop")).witness
    nodes = dict(model.nodes)
    # graft a fake internal child that repeats the root signature
    nodes[("d2",)] = replace(
        nodes[("d2",)],
        backnode=None,
        children=(("d2", "d1"), ("d2", "d2")),
        ptpge=frozenset(),
    )
    automaton = corpus_automaton("eq_loop")
    report = check_bounds(
        FiniteTreeModel(model.directions, nodes), metrics(automaton), 1
    )
    assert report.duplicate_signatures == [("", "d2")]
    assert not report.ok


def test_corpus_witnesses_respect_bounds():
    for name, want in EXPECTED_VERDICTS.items():
        if want != "not-empty":
            continue
        decision = decide(corpus_automaton(name))
        assert decision.prefix_defects == [], name


def test_decide_checks_the_bounds_once(monkeypatch):
    # the bounds are checked by check_witness, whose defects the decision
    # carries; decide itself does not check them again
    calls = []

    def counting(*args):
        calls.append(args)
        return check_bounds(*args)

    monkeypatch.setattr(qsta.emptiness, "check_bounds", counting)
    decision = decide(corpus_automaton("eq_loop"))
    assert decision.nonempty and decision.prefix_defects == []
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Unfolding


def test_unfold_depth_zero_is_just_the_root():
    model = decide(corpus_automaton("eq_loop")).witness
    prefix = unfold_with_sources(model, 0)[0]
    assert prefix.depth == 0
    assert prefix.root.children == ()
    assert prefix.root.state == "q0"


def test_unfold_copies_folded_subtrees():
    model = decide(corpus_automaton("eq_loop")).witness
    prefix = unfold_with_sources(model, 3)[0]
    # full binary tree: the folds guarantee every level is fully populated
    def count(node):
        return 1 + sum(count(c) for c in node.children)
    assert count(prefix.root) == 15
    # every copy carries the constraint of the internal node it copies
    c = frozenset({parse_constraint("EQ(g, d1 g)")})
    assert prefix.root.constraints == c
    assert prefix.root.children[0].constraints == c


def test_unfold_sources_point_at_internal_nodes():
    model = decide(corpus_automaton("eq_loop")).witness
    _, sources = unfold_with_sources(model, 2)
    internal = set(model.internal_words())
    assert set(sources.values()) <= internal
    assert sources[()] == ()
    assert sources[("d2",)] == ()  # the d2 leaf copies the root
    assert sources[("d1", "d1")] == ("d1",)  # the d1 d1 leaf copies d1


# ---------------------------------------------------------------------------
# Witness checking


def test_corpus_witnesses_pass_check_witness():
    for name, want in EXPECTED_VERDICTS.items():
        if want != "not-empty":
            continue
        automaton = corpus_automaton(name)
        model = decide(automaton).witness
        assert check_witness(automaton, model) == [], name


def test_check_witness_flags_wrong_root_state():
    automaton = corpus_automaton("self_loop")
    model = replace_node(decide(automaton).witness, (), state="q9")
    defects = check_witness(automaton, model)
    assert any("is not the initial state" in d for d in defects)


def test_check_witness_flags_dangling_backnode():
    automaton = corpus_automaton("self_loop")
    model = replace_node(decide(automaton).witness, ("d2",), backnode=("d9",))
    defects = check_witness(automaton, model)
    assert any("dangling backnode" in d for d in defects)


def test_check_witness_flags_backnode_signature_mismatch():
    automaton = corpus_automaton("eq_loop")
    model = decide(automaton).witness
    # d1 d1 folds to d1; retargeting it at the root changes the triple set
    bad = replace_node(model, ("d1", "d1"), backnode=())
    defects = check_witness(automaton, bad)
    assert any("backnode signature differs" in d for d in defects)


def test_check_witness_flags_label_tampering():
    automaton = corpus_automaton("self_loop")
    model = decide(automaton).witness
    bad = replace_node(
        model, (), literals=frozenset({qsta.formula.parse_literal("A")})
    )
    defects = check_witness(automaton, bad)
    assert any("does not match any transition" in d for d in defects)


def test_check_witness_flags_rejecting_ancestor_loop():
    automaton = corpus_automaton("no_accept")
    nodes = {
        (): FtmNode("q0", frozenset(), frozenset(), (("d1",), ("d2",)), None, frozenset()),
        ("d1",): FtmNode("q0", frozenset(), frozenset(), (), (), frozenset()),
        ("d2",): FtmNode("q0", frozenset(), frozenset(), (), (), frozenset()),
    }
    model = FiniteTreeModel(("d1", "d2"), nodes)
    defects = check_witness(automaton, model)
    assert any("without an accepting state" in d for d in defects)


def test_check_witness_flags_cycle_through_a_non_ancestor_fold():
    # Written by a search that only rejected loops onto strict ancestors:
    # leaf 'd2 d1' (state b) folds onto 'd1 d1', which is not its ancestor,
    # and closes the cycle t -> b -> s -> t with no accepting state.
    automaton = corpus_automaton("nonancestor_cycle")
    payload = json.loads((FIXTURES / "nonancestor_cycle.witness.json").read_text())
    model = witness_from_json(payload)
    assert len(model.nodes) == 11
    assert model.nodes[("d2", "d1")].backnode == ("d1", "d1")
    defects = check_witness(automaton, model)
    assert any(
        d.startswith("node 'd2 d1'") and "without an accepting state" in d
        for d in defects
    )


def test_check_witness_flags_inconsistent_network():
    automaton = corpus_automaton("contradictory")
    c_dc = parse_constraint("DC(g, d1 g)")
    c_eq = parse_constraint("EQ(g, d1 g)")
    cs = frozenset({c_dc, c_eq})
    step = frozenset(
        {PtpTriple(c_dc, 2, parse_chain("g")), PtpTriple(c_eq, 2, parse_chain("g"))}
    )
    nodes = {
        (): FtmNode("q0", frozenset(), cs, (("d1",), ("d2",)), None, frozenset()),
        ("d1",): FtmNode("q0", frozenset(), cs, (("d1", "d1"), ("d1", "d2")), None, step),
        ("d2",): FtmNode("q0", frozenset(), frozenset(), (), (), frozenset()),
        ("d1", "d1"): FtmNode("q0", frozenset(), frozenset(), (), ("d1",), step),
        ("d1", "d2"): FtmNode("q0", frozenset(), frozenset(), (), (), frozenset()),
    }
    model = FiniteTreeModel(("d1", "d2"), nodes)
    defects = check_witness(automaton, model)
    assert defects == ["global constraint network is inconsistent"]


def test_check_witness_rejects_direction_mismatch():
    automaton = corpus_automaton("self_loop")
    model = decide(automaton).witness
    flipped = FiniteTreeModel(("a", "b"), dict(model.nodes))
    defects = check_witness(automaton, flipped)
    assert defects == ["witness directions differ from the automaton signature"]


def test_decide_matches_classical_oracle_on_random_automata():
    rng = random.Random(7)
    wrong = []
    for i in range(200):
        automaton = random_nondet(rng, max_states=6, max_k=3)
        decision = decide(automaton)
        if decision.nonempty != classical_nonempty(automaton):
            wrong.append((i, decision.verdict))
    assert wrong == []


# ---------------------------------------------------------------------------
# check_witness against the materialized run it stands for

PREFIX_NODE_CAP = 2000


def _prefix_size(k, depth):
    return depth + 1 if k == 1 else (k ** (depth + 1) - 1) // (k - 1)


def _refold(model):
    """Recompute pending triples top down and point each leaf at the
    lexicographically smaller internal node of its signature, if any, so
    that a mutant stays as close to a sound witness as it can."""
    order = WordOrder(model.directions)
    nodes = dict(model.nodes)
    for word in nodes:
        if word and word[:-1] in nodes:
            ptpge = backconstraints_step(nodes[word[:-1]], word[-1])
            nodes[word] = replace(nodes[word], ptpge=ptpge)
    by_signature = {}
    for word, node in nodes.items():
        if not node.is_leaf:
            by_signature.setdefault((node.state, node.ptpge), word)
    for word, node in nodes.items():
        match = by_signature.get((node.state, node.ptpge))
        if node.is_leaf and match is not None and order.lex_lt(match, word):
            nodes[word] = replace(node, backnode=match)
    return FiniteTreeModel(model.directions, nodes)


def _mutants(automaton, model, rng):
    """Seeded mutations of a witness: retarget a fold, relabel a node with
    another transition of its state, change a state, fold a subtree away,
    drop literals."""
    order = WordOrder(model.directions)
    internal = model.internal_words()
    out = []
    leaves = model.leaf_words()
    if leaves:
        word = rng.choice(leaves)
        out.append(replace_node(model, word, backnode=rng.choice(internal)))
    word = rng.choice(internal)
    node = model.nodes[word]
    others = [
        t
        for t in automaton.transitions(node.state)
        if (t.literals, t.constraints) != (node.literals, node.constraints)
    ]
    if others:
        picked = rng.choice(others)
        relabelled = replace_node(
            model, word, literals=picked.literals, constraints=picked.constraints
        )
        out.append(_refold(relabelled))
    word = rng.choice(list(model.nodes))
    states = [q for q in automaton.states if q != model.nodes[word].state]
    if states:
        out.append(_refold(replace_node(model, word, state=rng.choice(states))))
    if len(internal) > 1:
        word = rng.choice(internal[1:])
        nodes = {
            w: n for w, n in model.nodes.items() if not WordOrder.is_strict_prefix(word, w)
        }
        target = rng.choice([w for w in internal if order.lex_lt(w, word)])
        nodes[word] = replace(
            nodes[word],
            literals=frozenset(),
            constraints=frozenset(),
            children=(),
            backnode=target,
        )
        out.append(_refold(FiniteTreeModel(model.directions, nodes)))
    labelled = [w for w in internal if model.nodes[w].literals]
    if labelled:
        word = rng.choice(labelled)
        kept = frozenset(l for l in model.nodes[word].literals if rng.random() < 0.5)
        out.append(replace_node(model, word, literals=kept))
    return out


def _differential_automata():
    for name, want in EXPECTED_VERDICTS.items():
        if want == "not-empty":
            yield name, corpus_automaton(name)
    rng = random.Random(31337)
    for i in range(50):
        shaped = random_nondet_shaped(rng)
        yield f"c5-{i}-simulated", simulate(shaped)
        yield f"c5-{i}-direct", direct_reading(shaped)
    rng = random.Random(7)
    for i in range(100):
        yield f"nd-{i}", random_nondet(rng, max_states=6, max_k=3)


FALLBACK = pathlib.Path(__file__).resolve().parent.parent / "bench" / "fallback.py"

# sha256 of the rows of _search_outcomes(), one line each with its columns
# joined by spaces, computed before the search resolved its constraints
# incrementally; any change to what the search builds, rejects or returns
# changes it.
SEARCH_OUTCOMES_SHA256 = "e8e766e43915876b8c416541f771e3f70d30f61feae4576b279fc2fd0906b0f5"
# sha256 over the name, verdict and witness-hash columns only, computed with
# the search that digest pins; a prune changes the counters by design, never these.
SEARCH_VERDICTS_SHA256 = "72ee19f804e04408a88976b260a2805c8b42a3083d230ecacdbe5340873ffd4f"


def _pinned_automata():
    """The corpus, criterion 5 at seed 31337 (both readings), 100
    random_nondet automata at seed 7 and 12 fallback instances."""
    spec = importlib.util.spec_from_file_location("bench_fallback", FALLBACK)
    fallback = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fallback)
    automata = [(name, corpus_automaton(name)) for name in EXPECTED_VERDICTS]
    automata += [(n, a) for n, a in _differential_automata() if n.startswith(("c5-", "nd-"))]
    rng = random.Random(1)
    for i in range(12):
        text, _ = fallback.fallback_instance(rng, i)
        automata.append((f"fb-{i}", load_automaton(text)))
    return automata


def _search_outcomes():
    for name, automaton in _pinned_automata():
        model, stats = ftm_search(automaton)
        witness = "" if model is None else hashlib.sha256(
            json.dumps(witness_to_json(model), sort_keys=True).encode()
        ).hexdigest()
        yield (
            name,
            model is not None,
            witness,
            stats.nodes_created,
            stats.peak_nodes,
            stats.csp_checks,
            stats.bound_exceeded,
        )


def _outcomes_digest(rows):
    lines = (" ".join(str(column) for column in row) for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.fixture(scope="module")
def search_outcomes():
    return list(_search_outcomes())


def test_search_outcomes_are_pinned(search_outcomes):
    assert _outcomes_digest(search_outcomes) == SEARCH_OUTCOMES_SHA256


def test_search_verdicts_and_witnesses_are_pinned(search_outcomes):
    digest = _outcomes_digest(row[:3] for row in search_outcomes)
    assert digest == SEARCH_VERDICTS_SHA256


def test_search_leaves_no_cyclic_garbage():
    # the search links its nodes both ways and must unlink them before it
    # returns, so reference counting alone frees every decision's garbage
    automata = [automaton for _, automaton in _pinned_automata()]
    gc.collect()
    gc.disable()
    try:
        for automaton in automata:
            decide(automaton)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_check_witness_implies_a_sound_unfolded_run():
    rng = random.Random(2002)
    accepted = 0
    problems = []
    for name, automaton in _differential_automata():
        model, _ = ftm_search(automaton)
        if model is None:
            continue
        for index, candidate in enumerate([model] + _mutants(automaton, model, rng)):
            if check_witness(automaton, candidate):
                continue
            accepted += 1
            k = len(candidate.directions)
            for depth in sorted({1, 2, 3 * candidate.height}):
                if _prefix_size(k, depth) > PREFIX_NODE_CAP:
                    continue
                prefix, sources = unfold_with_sources(candidate, depth)
                scene = scene_from_witness(candidate, prefix, sources)
                defects = validate_run_prefix(automaton, prefix, scene).defects
                if defects:
                    problems.append((name, index, depth, defects[0]))
    assert problems == []
    assert accepted > 0


# sha256 of validate_run_prefix's defect and unchecked lines, in order, for
# every corpus witness unfolded to depths 0-6, against its own scene and
# against that scene with every concept set emptied; computed while the
# checker still sorted each node's literals and constraints on every visit.
RUN_PREFIX_LINES_SHA256 = "f28397091e8d0bd794fe8fd80353e097bd7d5753be9c424e36bc50d87aa5e950"


def _without_concepts(node):
    return SceneNode(frozenset(), node.scene, tuple(map(_without_concepts, node.children)))


def _run_prefix_lines():
    for name, verdict in EXPECTED_VERDICTS.items():
        if verdict == "empty":
            continue
        automaton = corpus_automaton(name)
        model, _ = ftm_search(automaton)
        for depth in range(7):
            prefix, sources = unfold_with_sources(model, depth)
            scene = scene_from_witness(model, prefix, sources)
            bare = SceneTreePrefix(scene.k, scene.depth, _without_concepts(scene.root))
            for label, against in (("scene", scene), ("bare", bare)):
                report = validate_run_prefix(automaton, prefix, against)
                for kind, lines in (("defect", report.defects), ("unchecked", report.unchecked)):
                    for line in lines:
                        yield f"{name} {depth} {label} {kind}: {line}"


def test_run_prefix_lines_are_pinned():
    lines = list(_run_prefix_lines())
    assert any(" scene unchecked: " in line for line in lines)
    assert any(" bare defect: " in line for line in lines)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RUN_PREFIX_LINES_SHA256


def test_check_witness_flags_complementary_literals():
    # validate rejects this automaton; decide, a library call, still runs
    automaton = load_automaton(
        "nondet { directions: d1 d2; concepts: A; features: g; states: q0;"
        " initial: q0; accepting: q0;"
        " delta q0 -> { L={A !A}; X={}; succ=(q0, q0) }; }"
    )
    assert validate(automaton)
    defect = "node '': complementary literal pair on 'A'"
    assert defect in check_witness(automaton, ftm_search(automaton)[0])
    assert defect in decide(automaton).prefix_defects


# ---------------------------------------------------------------------------
# Resource limits and stats


def test_search_node_limit_raises():
    automaton = corpus_automaton("eq_loop")
    with pytest.raises(ResourceLimitError):
        ftm_search(automaton, max_nodes=2)


def test_search_node_limit_caps_the_live_tree():
    # fallback.aut's search creates 11 nodes, at most 7 of them live at once
    automaton = corpus_automaton("fallback")
    model, stats = ftm_search(automaton, max_nodes=7)
    assert model is not None
    assert (stats.nodes_created, stats.peak_nodes) == (11, 7)
    with pytest.raises(ResourceLimitError) as info:
        ftm_search(automaton, max_nodes=6)
    assert str(info.value) == (
        "search tree exceeded 6 nodes (witness bound 48; raise max_nodes to override)"
    )


def test_search_stats_are_populated():
    model, stats = ftm_search(corpus_automaton("eq_loop"))
    assert model is not None
    assert stats.nodes_created >= len(model.nodes)
    assert stats.peak_nodes >= len(model.nodes)
    assert stats.csp_checks >= 1


# ---------------------------------------------------------------------------
# Serialization


def test_witness_json_roundtrip():
    for name in ("eq_loop", "constraints4", "fallback"):
        model = decide(corpus_automaton(name)).witness
        payload = json.loads(json.dumps(witness_to_json(model)))
        again = witness_from_json(payload)
        assert again == model, name


def test_witness_json_is_byte_stable():
    first = decide(corpus_automaton("constraints4")).witness
    second = decide(corpus_automaton("constraints4")).witness
    a = json.dumps(witness_to_json(first), indent=2, sort_keys=True)
    b = json.dumps(witness_to_json(second), indent=2, sort_keys=True)
    assert a == b


def test_witness_json_matches_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (CORPUS.parent / "schemas" / "witness.schema.json").read_text()
    )
    for name in ("self_loop", "eq_loop", "constraints4"):
        payload = witness_to_json(decide(corpus_automaton(name)).witness)
        jsonschema.validate(payload, schema)


def test_witness_from_json_rejects_foreign_documents():
    with pytest.raises(MalformedModelError):
        witness_from_json({"format": "something-else"})
    with pytest.raises(MalformedModelError, match="malformed witness document"):
        witness_from_json([])
    with pytest.raises(MalformedModelError):
        witness_from_json(
            {
                "format": "finite-tree-model",
                "version": 1,
                "directions": ["d1"],
                "height": 0,
                "nodes": {"": {}},
            }
        )
    # the schema requires arrays; a string must not read as its characters
    payload = witness_to_json(decide(corpus_automaton("alt_choice")).witness)
    for field in ("directions", "literals", "constraints", "children", "ptpge"):
        document = json.loads(json.dumps(payload))
        where = document if field == "directions" else document["nodes"][""]
        where[field] = "A"
        with pytest.raises(
            MalformedModelError,
            match=f"malformed witness document: '{field}' is not an array",
        ):
            witness_from_json(document)
    # the schema requires version 1 and a non-negative integer height, which
    # must be the tree's; a JSON true is not an integer, though True == 1
    payload = witness_to_json(decide(corpus_automaton("eq_loop")).witness)
    for field, value, message in (
        ("version", 99, "'version' is not 1"),
        ("version", None, "missing 'version'"),
        ("version", True, "'version' is not an integer"),
        ("height", "tall", "'height' is not an integer"),
        ("height", None, "missing 'height'"),
        ("height", -1, "'height' is negative"),
        ("height", True, "'height' is not an integer"),
        ("height", 7, "'height' is 7, the tree's height is 2"),
    ):
        document = dict(payload, **{field: value})
        if value is None:
            del document[field]
        with pytest.raises(MalformedModelError) as info:
            witness_from_json(document)
        assert str(info.value) == f"malformed witness document: {message}", (field, value)
    # with its arguments swapped, d1's triple is valid as argIndex 1 only
    triple = payload["nodes"]["d1"]["ptpge"][0]
    triple.update(constraint="EQ(d1 g, g)", argIndex=1)
    witness_from_json(payload)
    for value in (True, "1"):
        triple["argIndex"] = value
        with pytest.raises(MalformedModelError) as info:
            witness_from_json(payload)
        assert str(info.value) == "malformed witness document: 'argIndex' is not an integer"
    # directions are non-empty strings, and node keys use only those
    payload = witness_to_json(decide(corpus_automaton("alt_choice")).witness)
    for directions, message in (
        (["d1", 5], "direction 5 is not a non-empty string"),
        (["d1", ""], "direction '' is not a non-empty string"),
        (["d1", "d3"], "node key 'd1 d2' names a direction not in 'directions'"),
    ):
        document = dict(payload, directions=directions)
        with pytest.raises(MalformedModelError) as info:
            witness_from_json(document)
        assert str(info.value) == f"malformed witness document: {message}", directions
    # every field a node reads is named when it is missing or of a wrong type
    payload = witness_to_json(decide(corpus_automaton("eq_loop")).witness)
    for key, field, value, message in (
        ("", "state", ["x"], "'state' is not a string"),
        ("", "state", None, "missing 'state'"),
        ("", "literals", [5], "an entry of 'literals' is not a string"),
        ("", "constraints", [None], "an entry of 'constraints' is not a string"),
        ("", "constraints", ["EQ"], "malformed constraint: 'EQ'"),
        ("", "children", [["d1"]], "an entry of 'children' is not a string"),
        ("", "backnode", None, "missing 'backnode'"),
        ("d2", "backnode", 5, "'backnode' is not a string or null"),
        ("d1", "ptpge", ["EQ(d1 g, g)"], "an entry of 'ptpge' is not an object"),
    ):
        document = json.loads(json.dumps(payload))
        if value is None:
            del document["nodes"][key][field]
        else:
            document["nodes"][key][field] = value
        with pytest.raises(MalformedModelError) as info:
            witness_from_json(document)
        assert str(info.value) == f"malformed witness document: {message}", field
    for nodes, message in (
        (None, "'nodes' is not an object"),
        ([], "'nodes' is not an object"),
        ({"": "root"}, "'' is not an object"),
    ):
        with pytest.raises(MalformedModelError) as info:
            witness_from_json(dict(payload, nodes=nodes))
        assert str(info.value) == f"malformed witness document: {message}", nodes
    # a pending triple's errors name its field
    for field, value, message in (
        ("remainingChain", None, "missing 'remainingChain'"),
        ("argIndex", 3, "'argIndex' is not 1 or 2"),
        ("remainingChain", " ", "'remainingChain' is empty"),
        ("remainingChain", "d2 g", "'remainingChain' is not a strict suffix of argument 2"),
    ):
        document = json.loads(json.dumps(payload))
        triple = document["nodes"]["d1"]["ptpge"][0]
        if value is None:
            del triple[field]
        else:
            triple[field] = value
        with pytest.raises(MalformedModelError) as info:
            witness_from_json(document)
        assert str(info.value) == f"malformed witness document: {message}", field
    # a field the schema does not allow is named, and so is its place
    for where, message in (
        ((), "unknown field 'x' in the document"),
        (("nodes", "d1"), "unknown field 'x' in node 'd1'"),
        (("nodes", "d1", "ptpge", 0), "unknown field 'x' in a 'ptpge' entry"),
    ):
        document = json.loads(json.dumps(payload))
        target = document
        for step in where:
            target = target[step]
        target["x"] = 1
        with pytest.raises(MalformedModelError) as info:
            witness_from_json(document)
        assert str(info.value) == f"malformed witness document: {message}", where
    # the origin is not read, but the schema requires a string
    document = json.loads(json.dumps(payload))
    document["nodes"]["d1"]["ptpge"][0]["origin"] = 5
    with pytest.raises(MalformedModelError) as info:
        witness_from_json(document)
    assert str(info.value) == "malformed witness document: 'origin' is not a string"
    # words and constraints must be written as the writer writes them
    for path, value, message in (
        (("nodes", "d1", "children", 0), " d1 d1", "'children' entry ' d1 d1'"),
        (("nodes", "d2", "backnode"), "  ", "'backnode' '  '"),
        (("nodes", "d1", "ptpge", 0, "origin"), " ", "'origin' ' '"),
        (("nodes", "d1", "constraints", 0), "EQ(g,d1 g)", "'constraints' entry 'EQ(g,d1 g)'"),
        (("nodes", "d1", "constraints", 0), "eq(g, d1 g)", "'constraints' entry 'eq(g, d1 g)'"),
        (("nodes", "d1", "ptpge", 0, "constraint"), "EQ(g, d1  g)", "'constraint' 'EQ(g, d1  g)'"),
        (("nodes", "d1", "ptpge", 0, "remainingChain"), "g ", "'remainingChain' 'g '"),
    ):
        document = json.loads(json.dumps(payload))
        target = document
        for step in path[:-1]:
            target = target[step]
        canonical = target[path[-1]]
        target[path[-1]] = value
        with pytest.raises(MalformedModelError) as info:
            witness_from_json(document)
        assert str(info.value) == (
            f"malformed witness document: {message} is not written as {canonical!r}"
        ), path
    document = json.loads(json.dumps(payload))
    document["nodes"]["d1  d2"] = document["nodes"].pop("d1 d2")
    with pytest.raises(MalformedModelError) as info:
        witness_from_json(document)
    assert str(info.value) == (
        "malformed witness document: node key 'd1  d2' is not written as 'd1 d2'"
    )


def test_witness_dot_lists_every_node_and_fold():
    model = decide(corpus_automaton("eq_loop")).witness
    dot = witness_to_dot(model)
    assert dot.startswith("digraph")
    assert dot.count("shape=box") == len(model.nodes)
    assert dot.count("style=dotted") == len(model.leaf_words())
    assert '[label="d1"]' in dot and '[label="d2"]' in dot
