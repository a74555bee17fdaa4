"""Acceptance suite: eleven release criteria, one test per criterion.

Each test prints one ``criterion N: PASS/FAIL`` line (visible with -s) and
fails with the collected problems when a criterion does not hold.  Random
criteria use fixed seeds so the suite is reproducible.
"""

import itertools
import pathlib
import random
import time
from typing import List

from qsta import (
    ATOMS,
    AlternatingAutomaton,
    EQ_RELATION,
    Relation,
    WordOrder,
    check_bounds,
    compose,
    converse,
    decide,
    dnf,
    is_consistent,
    load_automaton,
    metrics,
    scene_from_witness,
    sim_state_bound,
    simulate,
    unfold_with_sources,
    validate_run_prefix,
)
from qsta.cli import main
from qsta.formula import PosLiteral

import oracle_grid as og
import oracle_networks as on
from gen_random import (
    direct_reading,
    eval_formula,
    network_from_choices,
    random_alternating,
    random_atomic_choices,
    random_monotone_formula,
    random_nondet,
    random_nondet_shaped,
)
from oracle_classic import classical_nonempty
from rebuild import replace

CORPUS = sorted((pathlib.Path(__file__).resolve().parent.parent / "corpus").glob("*.aut"))


def _report(number: int, description: str, problems: List[str]) -> None:
    status = "FAIL" if problems else "PASS"
    print(f"criterion {number}: {status} {description}")
    assert not problems, f"criterion {number}: " + "; ".join(problems)


def _load(path: pathlib.Path):
    automaton = load_automaton(path.read_text())
    if isinstance(automaton, AlternatingAutomaton):
        automaton = simulate(automaton)
    return automaton


def _decided_corpus():
    """(name, nondet automaton, decision) for every corpus file."""
    out = []
    for path in CORPUS:
        automaton = _load(path)
        out.append((path.stem, automaton, decide(automaton)))
    return out


# ---------------------------------------------------------------------------


def test_criterion_01_algebra_integrity():
    problems: List[str] = []
    started = time.perf_counter()
    atomic = {a: Relation.of(a) for a in ATOMS}
    for a, b in itertools.product(ATOMS, repeat=2):
        lhs = converse(compose(atomic[a], atomic[b]))
        rhs = compose(converse(atomic[b]), converse(atomic[a]))
        if lhs != rhs:
            problems.append(f"peircean law fails on ({a}, {b})")
    for a in ATOMS:
        if compose(EQ_RELATION, atomic[a]) != atomic[a]:
            problems.append(f"EQ is not a left identity on {a}")
        if compose(atomic[a], EQ_RELATION) != atomic[a]:
            problems.append(f"EQ is not a right identity on {a}")
    for mask in range(256):
        rel = Relation(mask)
        if converse(converse(rel)) != rel:
            problems.append(f"converse not involutive on mask {mask}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, limit 1s")
    _report(1, "converse/composition laws hold on all atoms and relations", problems)


def test_criterion_02_path_consistency_adequacy():
    problems: List[str] = []
    rng = random.Random(1234)
    agreements = 0
    for i in range(200):
        n_vars = rng.randint(2, 6)
        if i % 3 == 0:
            scenario = og.random_scenario_network(rng, n_vars, 6)
            choices = {(a, b): atom for (a, b), atom in scenario.items() if a < b}
        else:
            choices = random_atomic_choices(rng, n_vars)
        got = is_consistent(network_from_choices(choices))
        want = on.oracle_consistent(
            n_vars, {p: frozenset({a}) for p, a in choices.items()}
        )
        if got == want:
            agreements += 1
        else:
            problems.append(f"network {i}: decided {got}, oracle says {want}")
    if agreements != 200:
        problems.append(f"only {agreements}/200 networks agree")
    _report(2, "is_consistent matches the atomic-scenario oracle 200/200", problems)


def test_criterion_03_dnf_equivalence():
    problems: List[str] = []
    rng = random.Random(77)
    for i in range(100):
        generators = [PosLiteral(f"p{j}") for j in range(rng.randint(1, 6))]
        formula = random_monotone_formula(rng, generators, depth=3)
        disjuncts = dnf(formula)
        for bits in itertools.product((False, True), repeat=len(generators)):
            truth = dict(zip(generators, bits))
            direct = eval_formula(formula, truth)
            via_dnf = any(
                all(truth[literal] for literal in d.literals) for d in disjuncts
            )
            if direct != via_dnf:
                problems.append(f"formula {i} differs on assignment {bits}")
                break
    _report(3, "dnf is truth-table-equivalent on 100 monotone formulas", problems)


def test_criterion_04_simulation_state_bound():
    problems: List[str] = []
    if sim_state_bound(2, 1) != 7:
        problems.append(f"spot value (2,1) gave {sim_state_bound(2, 1)}, want 7")
    rng = random.Random(4242)
    for i in range(50):
        a = random_alternating(rng)
        bound = sim_state_bound(len(a.states), len(a.accepting))
        reached = len(simulate(a).states)
        if reached > bound:
            problems.append(f"automaton {i}: {reached} states exceed bound {bound}")
    _report(4, "reachable simulation states stay within 2^f*3^(q-f)+1", problems)


def test_criterion_05_simulation_agrees_with_direct_reading():
    problems: List[str] = []
    rng = random.Random(31337)
    started = time.perf_counter()
    for i in range(50):
        a = random_nondet_shaped(rng)
        via_simulation = decide(simulate(a)).nonempty
        via_direct = decide(direct_reading(a)).nonempty
        if via_simulation != via_direct:
            problems.append(
                f"automaton {i}: simulate says {via_simulation}, "
                f"direct reading says {via_direct}"
            )
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, limit 60s")
    _report(5, "simulate preserves emptiness on 50 disjunct-shaped automata", problems)


def test_criterion_06_emptiness_agrees_with_classical_oracle():
    problems: List[str] = []
    rng = random.Random(99)
    started = time.perf_counter()
    for i in range(100):
        a = random_nondet(rng)
        got = decide(a).nonempty
        want = classical_nonempty(a)
        if got != want:
            problems.append(f"automaton {i}: decided {got}, oracle says {want}")
    elapsed = time.perf_counter() - started
    if elapsed >= 120.0:
        problems.append(f"took {elapsed:.1f}s, limit 120s")
    _report(6, "decide matches the fixed-point oracle on 100 automata", problems)


def test_criterion_07_witness_validity():
    problems: List[str] = []
    checked = 0
    for name, automaton, decision in _decided_corpus():
        if not decision.nonempty:
            continue
        checked += 1
        model = decision.witness
        met = metrics(automaton)
        accepting = set(automaton.accepting)
        order = WordOrder(model.directions)

        report = check_bounds(model, met, len(automaton.states))
        if not report.ok:
            problems.append(f"{name}: bounds check failed")
        if report.clamped != (met.constraint_count < 1 or met.chain_length < 1):
            problems.append(f"{name}: clamp flag wrong")

        internal = set(model.internal_words())
        for word in model.leaf_words():
            leaf = model.nodes[word]
            target = model.nodes.get(leaf.backnode)
            if (
                leaf.backnode not in internal
                or target.state != leaf.state
                or target.ptpge != leaf.ptpge
                or not order.lex_le(leaf.backnode, word)
            ):
                problems.append(f"{name}: leaf contract broken at '{' '.join(word)}'")
            if WordOrder.is_strict_prefix(leaf.backnode, word):
                between = any(
                    model.nodes[w].state in accepting
                    for w in model.nodes
                    if order.lex_le(leaf.backnode, w) and order.lex_le(w, word)
                )
                if not between:
                    problems.append(
                        f"{name}: loop at '{' '.join(word)}' has no accepting state"
                    )

        for depth in sorted({1, 2, 3 * model.height}):
            prefix, sources = unfold_with_sources(model, depth)
            scene = scene_from_witness(model, prefix, sources)
            run_report = validate_run_prefix(automaton, prefix, scene)
            if run_report.defects:
                problems.append(
                    f"{name}: unfold at depth {depth}: {run_report.defects[0]}"
                )
    if checked == 0:
        problems.append("no nonempty corpus instance produced a witness")
    _report(7, f"all {checked} corpus witnesses pass bounds, loops and unfolds", problems)


def test_criterion_08_constraint_driven_verdict_flip():
    problems: List[str] = []
    path = next(p for p in CORPUS if p.stem == "contradictory")
    automaton = load_automaton(path.read_text())
    if decide(automaton).nonempty:
        problems.append("DC plus EQ on one feature pair was not reported empty")

    dc = Relation.of("DC")
    delta = {
        state: tuple(
            replace(
                t,
                constraints=frozenset(c for c in t.constraints if c.rel != dc),
            )
            for t in transitions
        )
        for state, transitions in automaton.delta.items()
    }
    relaxed = replace(automaton, delta=delta)
    if not decide(relaxed).nonempty:
        problems.append("dropping the DC constraint did not flip the verdict")
    _report(8, "contradictory constraints force empty, relaxing flips it", problems)


def test_criterion_09_node_bound_conformance():
    problems: List[str] = []
    checked = 0
    for name, automaton, decision in _decided_corpus():
        if not decision.nonempty:
            continue
        checked += 1
        model = decision.witness
        met = metrics(automaton)
        k = len(model.directions)
        base = (
            len(automaton.states)
            * max(met.constraint_count, 1)
            * max(met.chain_length, 1)
            * met.arity
        )
        internal = len(model.internal_words())
        leaves = len(model.leaf_words())
        if internal > base:
            problems.append(f"{name}: {internal} internal nodes exceed {base}")
        if leaves > base * k:
            problems.append(f"{name}: {leaves} leaves exceed {base * k}")
        report = check_bounds(model, met, len(automaton.states))
        if (report.internal_bound, report.leaf_bound) != (base, base * k):
            problems.append(f"{name}: reported bounds disagree with the product")
    if checked == 0:
        problems.append("no witnesses to check")
    _report(9, f"all {checked} witnesses respect the node-count products", problems)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    problems: List[str] = []
    for path in CORPUS:
        first = tmp_path / f"{path.stem}_1.json"
        second = tmp_path / f"{path.stem}_2.json"
        code_1 = main(["emptiness", str(path), "--witness", str(first)])
        code_2 = main(["emptiness", str(path), "--witness", str(second)])
        capsys.readouterr()
        if code_1 != code_2:
            problems.append(f"{path.stem}: exit codes {code_1} vs {code_2}")
        if first.exists() != second.exists():
            problems.append(f"{path.stem}: witness written on only one run")
        elif first.exists() and first.read_bytes() != second.read_bytes():
            problems.append(f"{path.stem}: witness files differ between runs")
    with capsys.disabled():
        _report(10, "repeated emptiness runs are byte-identical", problems)


def test_criterion_11_desk_scale_performance():
    problems: List[str] = []
    for path in CORPUS:
        started = time.perf_counter()
        decide(_load(path))
        elapsed = time.perf_counter() - started
        if elapsed >= 10.0:
            problems.append(f"{path.stem}: took {elapsed:.1f}s, limit 10s")
    _report(11, f"each of {len(CORPUS)} corpus instances decides in under 10s", problems)
