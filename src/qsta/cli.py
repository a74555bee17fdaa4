"""Command line front end: validate, simulate, emptiness, check-witness.

Exit codes: ``emptiness`` uses 0 for not-empty, 1 for empty; ``validate``
and ``check-witness`` use 0 for clean, 1 for defects; every command uses 2
for errors (syntax, invalid input automaton, resource limits) and for any
other failure, so a crash never reads as a verdict.  ``emptiness`` and
``check-witness`` run the same witness check, ``emptiness.check_witness``:
``emptiness`` prints each defect it finds in its own witness as a
``warning:`` line on stderr, ``check-witness`` prints them on stdout, or
``ok`` when there are none.  Resource caps come
from the environment: QSTA_MAX_DISJUNCTS, QSTA_MAX_SIM_STATES,
QSTA_MAX_SEARCH_NODES.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Tuple

from . import emptiness as emp
from .automata import AlternatingAutomaton, NondetAutomaton, validate
from .dsl import load_automaton, print_automaton
from .formula import DEFAULT_MAX_DISJUNCTS
from .simulate import DEFAULT_MAX_SIM_STATES, sim_state_bound, simulate

__all__ = ["main"]


def _env_int(name: str, default: Optional[int]) -> Optional[int]:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as file:
        return file.read()


def _write_all(outputs: List[Tuple[str, str]]) -> None:
    """Write each (path, text); when a write fails, remove the files this
    call opened, the one whose write failed too, and raise, so a failed
    call leaves none of them.  A file it could not open is left alone."""
    opened: List[str] = []
    try:
        for path, text in outputs:
            with open(path, "w", encoding="utf-8") as file:
                opened.append(path)
                file.write(text)
    except OSError:
        for path in opened:
            try:
                os.remove(path)
            except OSError:
                pass
        raise


def _load(path: str):
    return load_automaton(_read(path))


def _simulate(automaton: AlternatingAutomaton) -> NondetAutomaton:
    """Simulate under the caps QSTA_MAX_SIM_STATES and QSTA_MAX_DISJUNCTS."""
    return simulate(
        automaton,
        max_states=_env_int("QSTA_MAX_SIM_STATES", DEFAULT_MAX_SIM_STATES),
        max_disjuncts=_env_int("QSTA_MAX_DISJUNCTS", DEFAULT_MAX_DISJUNCTS),
    )


def _check_well_formed(automaton, *, origin: str) -> None:
    """Print each defect of ``automaton`` on stderr and raise if there are any."""
    defects = validate(automaton)
    if defects:
        for defect in defects:
            print(f"{origin}: {defect}", file=sys.stderr)
        raise ValueError(f"{origin}: automaton is not well formed")


def _as_nondet(automaton, *, origin: str) -> NondetAutomaton:
    """Validate and, for alternating input, simulate first."""
    _check_well_formed(automaton, origin=origin)
    if isinstance(automaton, AlternatingAutomaton):
        return _simulate(automaton)
    return automaton


def _cmd_validate(args: argparse.Namespace) -> int:
    automaton = _load(args.file)
    defects = validate(automaton)
    for defect in defects:
        print(defect)
    return 0 if not defects else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    automaton = _load(args.file)
    if not isinstance(automaton, AlternatingAutomaton):
        raise ValueError("simulate expects an alternating automaton")
    _check_well_formed(automaton, origin=args.file)
    result = _simulate(automaton)
    _write_all([(args.output, print_automaton(result))])
    print(f"states: {len(result.states)}")
    print(f"bound: {sim_state_bound(len(automaton.states), len(automaton.accepting))}")
    return 0


def _cmd_emptiness(args: argparse.Namespace) -> int:
    max_nodes: Optional[int] = args.max_nodes
    if max_nodes is None:
        max_nodes = _env_int("QSTA_MAX_SEARCH_NODES", None)
    elif max_nodes <= 0:
        raise ValueError(f"--max-nodes must be positive, got {max_nodes}")
    automaton = _as_nondet(_load(args.file), origin=args.file)
    decision = emp.decide(automaton, max_nodes=max_nodes)
    if decision.stats.bound_exceeded:
        print("note: search tree grew past the theoretical witness bound", file=sys.stderr)
    for defect in decision.prefix_defects:
        print(f"warning: {defect}", file=sys.stderr)
    outputs = []
    if decision.nonempty:
        if args.witness:
            payload = emp.witness_to_json(decision.witness)
            outputs.append((args.witness, json.dumps(payload, indent=2, ensure_ascii=False) + "\n"))
        if args.dot:
            outputs.append((args.dot, emp.witness_to_dot(decision.witness)))
    _write_all(outputs)
    print(decision.verdict)
    return 0 if decision.nonempty else 1


def _cmd_check_witness(args: argparse.Namespace) -> int:
    automaton = _as_nondet(_load(args.file), origin=args.file)
    payload = json.loads(_read(args.witness))
    model = emp.witness_from_json(payload)
    defects = emp.check_witness(automaton, model)
    for defect in defects:
        print(defect)
    if not defects:
        print("ok")
        return 0
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsta",
        description="Tree automata with qualitative spatial constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="report structural defects")
    p_validate.add_argument("file")
    p_validate.set_defaults(run=_cmd_validate)

    p_simulate = sub.add_parser(
        "simulate", help="translate an alternating automaton to a nondeterministic one"
    )
    p_simulate.add_argument("file")
    p_simulate.add_argument("-o", "--output", required=True)
    p_simulate.set_defaults(run=_cmd_simulate)

    p_empty = sub.add_parser("emptiness", help="decide emptiness")
    p_empty.add_argument("file")
    p_empty.add_argument("--witness", help="write the witness as JSON")
    p_empty.add_argument("--dot", help="write the witness as DOT")
    p_empty.add_argument("--max-nodes", type=int, default=None)
    p_empty.set_defaults(run=_cmd_emptiness)

    p_check = sub.add_parser("check-witness", help="re-validate a stored witness")
    p_check.add_argument("file")
    p_check.add_argument("witness")
    p_check.set_defaults(run=_cmd_check_witness)
    return parser


_PARSER = _build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.run(args)
    except Exception as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
