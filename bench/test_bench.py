"""Self-tests of the benchmark's own code: ``python3 -m pytest bench``."""

from __future__ import annotations

import itertools
import random

import pytest

import workloads  # first: puts the checkout's src/ and tests/ on the path
from workloads import qsta

import fallback
import gen_random
import oracle_networks
import refs
from oracle_classic import classical_nonempty


def _first(workload: str, seed: int, count: int, tmp_path):
    return list(itertools.islice(workloads.instances(workload, seed, tmp_path), count))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_seed_generates_identical_instances_twice(workload, tmp_path):
    first = _first(workload, 5, 12, tmp_path)
    again = _first(workload, 5, 12, tmp_path)
    assert [i.id for i in first] == [i.id for i in again]
    assert [i.input for i in first] == [i.input for i in again]
    assert [i.input for i in _first(workload, 6, 12, tmp_path)] != [i.input for i in first]


def _flip(decision):
    return qsta.Decision(nonempty=not decision.nonempty)


def test_corpus_reference_flags_a_flipped_verdict(tmp_path):
    for instance in _first("corpus", 1, 19, tmp_path):
        if instance.id.endswith(".emptiness"):
            name = instance.id.split(".")[0]
            right = refs.CORPUS_VERDICTS[name]
            wrong = "empty" if right == "not-empty" else "not-empty"
            code = 0 if wrong == "not-empty" else 1
            assert instance.check((code, wrong + "\n", "")).problem is not None
            assert instance.check((1 - code, right + "\n", "")).problem is None
        else:
            assert instance.check((1, "node bounds violated\n", "")).problem is not None


def test_generated_references_flag_flipped_verdicts():
    # The first units of the set: their verdicts are right, and they
    # include neither the known false verdicts nor the slow automaton 10.
    units = workloads.generated_set()
    shaped = [unit for unit in units if len(unit) == 2][:8]
    plain = [unit[0] for unit in units if len(unit) == 1][:8]
    flagged = {"nd": 0, "one-sided": 0, "agreement": 0}
    for instance in plain:
        decision = qsta.decide(instance.input)
        assert instance.check((instance.input, decision)).problem is None
        flagged["nd"] += instance.check((instance.input, _flip(decision))).problem is not None
    for sim, direct in shaped:
        if not classical_nonempty(direct.input):
            fake = qsta.Decision(nonempty=True)
            flagged["one-sided"] += refs.classical_one_sided(direct.input, fake.verdict) is not None
        automaton = qsta.simulate(sim.input)
        decision = qsta.decide(automaton, max_unfold_nodes=workloads.GENERATED_UNFOLD_CAP)
        assert sim.check((automaton, decision)).problem is None
        flagged["agreement"] += direct.check((direct.input, _flip(decision))).problem is not None
    assert min(flagged.values()) >= 3, flagged


@pytest.mark.parametrize("workload", ["generated", "networks"])
def test_a_fixed_set_is_the_same_for_every_seed(workload, tmp_path):
    size = workloads.pass_size(workload)
    first = _first(workload, 1, size, tmp_path)
    other = _first(workload, 2, size, tmp_path)
    assert sorted(i.id for i in first) == sorted(i.id for i in other)
    assert len({i.id for i in first}) == size
    assert [i.id for i in first] != [i.id for i in other]


def test_fallback_reference_flags_a_flipped_verdict(tmp_path):
    for instance in _first("fallback", 2, 2, tmp_path):
        automaton = qsta.load_automaton(instance.input)
        decision = qsta.decide(automaton)
        assert instance.check(decision).problem is None
        assert instance.check(_flip(decision)).problem is not None


def test_network_references_flag_flipped_verdicts(tmp_path):
    for instance in _first("networks", 4, 8, tmp_path):
        if instance.id.endswith(".consistent"):
            got = qsta.is_consistent(instance.input)
            assert instance.check(got).problem is None
            assert instance.check(not got).problem is not None
        else:
            scenario = qsta.consistent_scenario(instance.input)
            assert instance.check(scenario).problem is None
            assert instance.check(None).problem is not None
            edges = dict(scenario.edges)
            edges[(0, 1)] = edges[(1, 0)] = qsta.Relation.of("EQ", "DC")
            broken = qsta.Qcsp(scenario.variables, edges, dict(scenario.selfs))
            assert instance.check(broken).problem is not None


def test_network_reference_agrees_with_the_brute_force_oracle():
    rng = random.Random(11)
    verdicts = set()
    for _ in range(60):
        n = rng.randint(3, 5)
        _, allowed = gen_random.random_mixed_network(rng, n)
        want = oracle_networks.oracle_consistent(n, allowed)
        assert refs.reference_consistent(n, allowed) == want
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n, c", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("nonempty", [True, False])
def test_fallback_generator_verdicts_hold_on_small_n(n, c, nonempty):
    text = fallback.fallback_text(random.Random(n * 10 + c), n, c, nonempty)
    decision = qsta.decide(qsta.load_automaton(text))
    assert decision.verdict == ("not-empty" if nonempty else "empty")
    if nonempty:
        assert decision.witness.height <= 2
        assert not decision.prefix_defects


def test_fallback_contradictions_are_unsatisfiable_by_the_oracle():
    assert fallback.DC_SELF_PAIR == "DC(g, g)"
    assert not oracle_networks.oracle_consistent(1, {}, {0: frozenset({"DC"})})
    assert fallback.TPP_CYCLE == "TPP(f1, f2) TPP(f2, f3) TPP(f3, f1)"
    cycle = {(0, 1): frozenset({"TPP"}), (1, 2): frozenset({"TPP"}), (0, 2): frozenset({"TPPI"})}
    assert not oracle_networks.oracle_consistent(3, cycle)


def test_tail_is_a_nearest_rank_percentile():
    import run

    samples = [float(i) for i in range(1, 201)]
    assert run.tail(samples, 95) == (190.0, 10)
    assert run.tail(samples, 50) == (100.0, 100)


def test_compare_labels_a_doubled_median_over_a_noisy_base_worse():
    import compare

    base = [10.0, 14.0, 6.0, 12.0, 8.0, 13.0, 7.0, 11.0, 9.0, 10.0]
    assert compare.spread(base) > 0.25
    slower = [2 * b for b in base]
    assert compare.label(base, slower, list(zip(base, slower)), True, 0.25)[0] == "worse"
    halved = [b / 2 for b in base]  # of a higher-is-better metric
    assert compare.label(base, halved, list(zip(base, halved)), False, 0.25)[0] == "worse"
    same = [b * 1.05 for b in reversed(base)]
    assert compare.label(base, same, list(zip(base, same)), True, 0.25)[0] == "unresolved"
    faster = [b / 3 for b in base]
    assert compare.label(base, faster, list(zip(base, faster)), True, 0.25)[0] == "improved"


def test_scale_divides_by_the_mean_probe_near_each_instance():
    import speed

    window, reference = speed.WINDOW_NS, speed.REFERENCE_NS
    probes = [(0, reference), (window // 2, 3 * reference), (10 * window, 2 * reference)]
    near, far = speed.scale([(0, 1200), (5 * window, 1200)], probes)
    assert near == 600  # mean of the two probes within the window
    assert far == 400  # none within the window: the last probe before it
    probes = [(0, reference), (12 * window, 3 * reference), (30 * window, 5 * reference)]
    (long,) = speed.scale([(window, 10 * window)], probes)
    assert long == 5 * window  # the probes just before and just after it


def test_a_failed_instance_voids_the_run_only_on_fail_free_workloads(monkeypatch, capsys):
    import json

    import run

    def wrong(workload, seed, workdir):
        while True:
            yield workloads.Instance("x", None, lambda: None, lambda r: workloads.Outcome("x", "wrong"))

    monkeypatch.setattr(workloads, "instances", wrong)
    monkeypatch.setattr(run, "setup_seconds", lambda root: (0.1, 0.1))
    for workload in workloads.WORKLOADS:
        assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0.001"]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["failed"] == result["attempted"] == 1  # one distinct instance
        assert result["correct"] is (workload not in run.FAIL_FREE)


def test_a_run_stops_at_the_pass_end_nearest_the_budget(monkeypatch):
    import types

    import run

    clock = types.SimpleNamespace(now=0)
    monkeypatch.setattr(run, "time", types.SimpleNamespace(perf_counter_ns=lambda: clock.now))

    def stream():  # every call takes 4 ms on the clock; a pass of 5 takes 20 ms
        while True:
            yield workloads.Instance(
                "x", None, lambda: setattr(clock, "now", clock.now + 4_000_000), lambda r: workloads.Outcome("x")
            )

    def calls(budget_ms):
        return len(run.run_pass(stream(), budget_ms * 1_000_000, pass_size=5).durations_ns)

    assert calls(1) == 5  # at least one pass
    assert calls(49) == 10  # 40 or 60 ms: 40 is nearer
    assert calls(65) == 15  # 60 or 80 ms: 60 is nearer
