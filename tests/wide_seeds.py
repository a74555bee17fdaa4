"""Release-gate properties on fresh automata and networks, seeded from a commit hash.

    PYTHONPATH=src python tests/wide_seeds.py --commit "$(git rev-parse HEAD)" --seconds 120

Tier-1 checks these properties on fixed seeds only.  This script derives
one seed per property from the commit hash (or takes ``--seeds``), prints
them, and draws fresh automata from them in turn until ``--seconds`` of
work are spent:

- ``alternating``: ``random_alternating`` up to 5 states and k <= 2, half
  of them with constraints; ``decide(simulate(a))`` must equal
  ``oracle_alternating`` without constraints, and say empty whenever the
  oracle does with them;
- ``criterion5``: ``random_nondet_shaped``; ``simulate`` and the direct
  reading must give the same verdict;
- ``criterion6``: ``random_nondet``; ``decide`` must equal
  ``oracle_classic``;
- ``networks``: RCC8 networks of 3 to 8 variables, alternately
  ``random_mixed_network`` and sparse ones (half the pairs declared, one
  to three atoms each, every other sparse network over relations outside
  the closure of the atoms only, which makes the solver branch on pairs
  no constraint names); ``is_consistent``, which stops branching once
  every pair lies in the closure of the atoms, must equal
  ``oracle_networks.oracle_consistent``, and so must the verdict of a
  ``MaskMatrix`` that adds the network's constraints one at a time, in a
  seeded order, each pair either way round, and at random steps adds
  random constraints and undoes them, as the emptiness search undoes a
  rejected choice; that matrix's ``consistent`` must leave the matrix and
  its trail as it found them; and ``consistent_scenario`` must find a
  scenario exactly when the oracle says consistent, atomic on every pair,
  within the allowed atoms, and passing ``oracle_consistent_atoms``;
- ``dsl``: the corpus texts mutated as ``test_fuzz.py`` mutates them;
  ``load_automaton`` must load each or raise ``DslSyntaxError``, and what
  loads, well formed or not, must print to a text that loads and prints
  to itself;
- ``witness-text``: ``random_nondet_shaped`` with state names that JSON
  and the simulation escape (a backslash, a comma, a colon, non-ASCII
  letters), alternately simulated and read directly; a non-empty
  verdict's witness text, as ``qsta emptiness --witness`` writes it, must
  equal ``json.dumps``'s and read back to a model ``check_witness``
  accepts.

A disagreement is a program bug: the script prints the property, seed
and index, and exits 1.  So is a constraint-free ``alternating`` draw (an
even index) that takes longer than ``--instance-seconds``: on such input
the search's Büchi lookahead is exact and the search never backtracks,
so a slow one is a search bug, printed as a disagreement.  Any other
draw that takes that long, and any draw that hits a resource cap, is
reported and skipped, since neither is a wrong verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import signal
import sys
import time
from typing import Callable, Dict, Optional, Tuple

from gen_random import (
    direct_reading,
    random_alternating,
    random_mixed_network,
    random_nondet,
    random_nondet_shaped,
)
from oracle_alternating import alternating_nonempty
from oracle_classic import classical_nonempty
from oracle_networks import ATOM_NAMES, oracle_consistent, oracle_consistent_atoms
from qsta import (
    AlternatingAutomaton,
    DslSyntaxError,
    QcspBuilder,
    Relation,
    ResourceLimitError,
    check_witness,
    consistent_scenario,
    decide,
    is_consistent,
    load_automaton,
    print_automaton,
    simulate,
    witness_from_json,
    witness_to_json,
)
from qsta.cli import _witness_text
from qsta.formula import And, Move, Or
from qsta.relalg import _CLOSURE_OF_ATOMS, MaskMatrix, converse
from test_fuzz import CORPUS, mutate_text

CORPUS_TEXTS = [path.read_text() for path in sorted(CORPUS.glob("*.aut"))]

# The relations of one to three atoms outside the closure of the atoms.
OUTSIDE_CLOSURE = [
    frozenset(Relation(mask))
    for mask in range(1, 256)
    if mask not in _CLOSURE_OF_ATOMS and len(Relation(mask)) <= 3
]

# A property draws its input from the stream and returns the check,
# which gives None or the disagreement; only the check is timed.
Check = Callable[[], Optional[str]]


def alternating(rng: random.Random, index: int) -> Check:
    constrained = index % 2 == 1
    a = random_alternating(rng, max_states=5, max_k=2, allow_constraints=constrained)

    def check() -> Optional[str]:
        got = decide(simulate(a)).nonempty
        want = alternating_nonempty(a)
        if got == want or (constrained and want):
            return None
        return f"decide(simulate(a)) says {got}, the alternating oracle {want}"

    return check


def criterion5(rng: random.Random, index: int) -> Check:
    a = random_nondet_shaped(rng)

    def check() -> Optional[str]:
        via_simulation = decide(simulate(a)).nonempty
        via_direct = decide(direct_reading(a)).nonempty
        if via_simulation == via_direct:
            return None
        return f"simulate says {via_simulation}, the direct reading {via_direct}"

    return check


def criterion6(rng: random.Random, index: int) -> Check:
    a = random_nondet(rng)

    def check() -> Optional[str]:
        got = decide(a).nonempty
        want = classical_nonempty(a)
        return None if got == want else f"decide says {got}, the classical oracle {want}"

    return check


def _added_with_undos(constraints, n_vars: int, rng: random.Random) -> Tuple[bool, bool]:
    """A ``MaskMatrix``'s verdict on the constraints, added in order, and
    whether its ``consistent`` left the matrix and the trail as it found
    them.  Before some of the constraints, chosen at random, a mark is
    taken, one to three random constraints over the network's variables
    are added, and the matrix is undone to the mark, as the search undoes
    a rejected choice; an undo that left anything behind would change the
    verdict."""
    matrix = MaskMatrix()
    for constraint in constraints:
        if rng.random() < 0.3:
            mark = len(matrix.trail)
            for _ in range(rng.randint(1, 3)):
                if not matrix.add(rng.randrange(n_vars), rng.randrange(n_vars), rng.randrange(1, 256)):
                    break
            matrix.undo(mark)
        if not matrix.add(*constraint):
            return False, True
    before = [row[:] for row in matrix.m], matrix.trail[:]
    verdict = matrix.consistent()
    return verdict, (matrix.m, matrix.trail) == before


def _scenario_problem(network, n_vars: int, allowed, want: bool) -> Optional[str]:
    """What is wrong with ``consistent_scenario``'s answer, if anything."""
    scenario = consistent_scenario(network)
    if (scenario is not None) != want:
        return f"consistent_scenario finds a scenario: {scenario is not None}, the network oracle {want}"
    if scenario is None:
        return None
    atoms = {}
    for pair in itertools.combinations(range(n_vars), 2):
        rel = scenario.relation(*pair)
        if not rel.is_atomic() or not set(rel) <= allowed.get(pair, set(ATOM_NAMES)):
            return f"consistent_scenario gives {rel} on {pair}, not an allowed atom"
        atoms[pair] = str(rel)
    return None if oracle_consistent_atoms(n_vars, atoms) else "the scenario fails the network oracle"


def networks(rng: random.Random, index: int) -> Check:
    n_vars = rng.randint(3, 8)
    if index % 2 == 0:
        network, allowed = random_mixed_network(rng, n_vars)
    else:
        builder = QcspBuilder(range(n_vars))
        allowed = {}
        for pair in itertools.combinations(range(n_vars), 2):
            if rng.random() < 0.5:
                if index % 4 == 3:
                    atoms = rng.choice(OUTSIDE_CLOSURE)
                else:
                    atoms = frozenset(rng.sample(ATOM_NAMES, rng.randint(1, 3)))
                builder.add(*pair, Relation.of(*atoms))
                allowed[pair] = atoms
        network = builder.build()

    replay = random.Random(rng.getrandbits(64))
    constraints = []
    for (i, j), atoms in allowed.items():
        rel = Relation.of(*atoms)
        constraints.append((i, j, rel.mask) if replay.random() < 0.5 else (j, i, converse(rel).mask))
    replay.shuffle(constraints)

    def check() -> Optional[str]:
        got = is_consistent(network)
        want = oracle_consistent(n_vars, allowed)
        if got != want:
            return f"is_consistent says {got}, the network oracle {want}"
        added, kept = _added_with_undos(constraints, n_vars, replay)
        if added != want:
            return f"the MaskMatrix says {added}, the network oracle {want}"
        if not kept:
            return "MaskMatrix.consistent changed the matrix or its trail"
        return _scenario_problem(network, n_vars, allowed, want)

    return check


def dsl(rng: random.Random, index: int) -> Check:
    text = mutate_text(rng, rng.choice(CORPUS_TEXTS))

    def check() -> Optional[str]:
        # an exception other than a syntax error is the bug looked for
        try:
            automaton = load_automaton(text)
        except DslSyntaxError:
            return None
        except Exception as exc:
            return f"load_automaton raised {exc!r}"
        try:
            printed = print_automaton(automaton)
            again = print_automaton(load_automaton(printed))
        except Exception as exc:
            return f"printing or reloading raised {exc!r}"
        return None if again == printed else "the printed text reloads to another text"

    return check


# Suffixes that make a state name need escaping: in JSON (a backslash,
# non-ASCII letters) and in a simulated state's name (a backslash, a
# comma, a colon).
NAME_SUFFIXES = ["\\", ",", ":", "é", "δ"]


def _renamed(automaton: AlternatingAutomaton, rng: random.Random) -> AlternatingAutomaton:
    names = {
        q: q + "".join(rng.choice(NAME_SUFFIXES) for _ in range(rng.randint(0, 2)))
        for q in automaton.states
    }

    def rename(formula):
        if isinstance(formula, Move):
            return Move(formula.direction, names[formula.state])
        if isinstance(formula, (And, Or)):
            return type(formula)(tuple(map(rename, formula.children)))
        return formula

    return AlternatingAutomaton(
        sig=automaton.sig,
        states=tuple(names[q] for q in automaton.states),
        initial=names[automaton.initial],
        accepting=frozenset(names[q] for q in automaton.accepting),
        delta={names[q]: rename(f) for q, f in automaton.delta.items()},
    )


def witness_text(rng: random.Random, index: int) -> Check:
    shaped = _renamed(random_nondet_shaped(rng), rng)

    def check() -> Optional[str]:
        automaton = simulate(shaped) if index % 2 else direct_reading(shaped)
        decision = decide(automaton)
        if not decision.nonempty:
            return None
        payload = witness_to_json(decision.witness)
        text = _witness_text(payload)
        if text != json.dumps(payload, indent=2, ensure_ascii=False) + "\n":
            return "the witness writer's text differs from json.dumps's"
        defects = check_witness(automaton, witness_from_json(json.loads(text)))
        return f"check_witness rejects the witness read back: {defects[0]}" if defects else None

    return check


PROPERTIES: Dict[str, Callable[[random.Random, int], Check]] = {
    "alternating": alternating,
    "criterion5": criterion5,
    "criterion6": criterion6,
    "networks": networks,
    "dsl": dsl,
    "witness-text": witness_text,
}


class _Slow(BaseException):
    """The per-draw alarm.  It is no ``Exception``, so a property's own
    ``except Exception`` lets it through to the ``slow:`` report."""


def _interrupt(signum, frame):
    raise _Slow()


def seeds_from_commit(commit: str) -> Dict[str, int]:
    return {
        name: int(hashlib.sha256(f"{commit}:{name}".encode()).hexdigest()[:12], 16)
        for name in PROPERTIES
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--commit", help="derive the seeds from this commit hash")
    source.add_argument("--seeds", help="comma-separated seeds, one per property, in order")
    parser.add_argument("--seconds", type=float, default=120.0)
    parser.add_argument("--instance-seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    if args.commit:
        seeds = seeds_from_commit(args.commit)
    else:
        seeds = dict(zip(PROPERTIES, (int(s) for s in args.seeds.split(","))))
    print("seeds: " + " ".join(f"{name}={seed}" for name, seed in seeds.items()))
    print(f"rerun with: --seeds {','.join(str(seed) for seed in seeds.values())}")

    rngs = {name: random.Random(seed) for name, seed in seeds.items()}
    checked = dict.fromkeys(PROPERTIES, 0)
    skipped = disagreements = 0
    signal.signal(signal.SIGALRM, _interrupt)
    deadline = time.monotonic() + args.seconds
    index = 0
    while time.monotonic() < deadline:
        for name, draw in PROPERTIES.items():
            check = draw(rngs[name], index)
            where = f"{name} seed {seeds[name]} index {index}"
            signal.setitimer(signal.ITIMER_REAL, args.instance_seconds)
            try:
                problem = check()
            except _Slow:
                took = f"took over {args.instance_seconds} s"
                # the alternating property's even draws are constraint-free
                if name == "alternating" and index % 2 == 0:
                    disagreements += 1
                    print(f"DISAGREE: {where}: constraint-free, {took}", flush=True)
                else:
                    skipped += 1
                    print(f"slow: {where} {took}", flush=True)
                continue
            except ResourceLimitError as exc:
                print(f"capped: {where}: {exc}", flush=True)
                skipped += 1
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            checked[name] += 1
            if problem is not None:
                disagreements += 1
                print(f"DISAGREE: {where}: {problem}", flush=True)
        index += 1
    counts = ", ".join(f"{name} {count}" for name, count in checked.items())
    print(f"checked {counts}; skipped {skipped}; disagreements {disagreements}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
