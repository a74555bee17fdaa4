"""Correctness references, independent of the code under test.

Each check takes an instance's output and returns ``None`` when it is
right, or a one-line reason when it is wrong.  The benchmark counts a
wrong output as a failed instance; nothing is filtered.

- Corpus verdicts come from the hand-written comments of the 11 shipped
  files, transcribed below.
- Constraint-free automata are checked exactly against the classical
  fixed point of ``tests/oracle_classic.py``; automata with literals or
  constraints only one-sidedly (the fixed point ignores them, so "empty"
  there means empty).
- RCC8 verdicts are checked with the tables of ``tests/oracle_networks.py``:
  a claimed scenario must be atomic, refine the input and pass that
  oracle's triangle check, and "inconsistent" is confirmed by the exact
  search below, which runs path consistency over the oracle's tables
  (the oracle's own brute-force search is exponential on inconsistent
  networks of 8 or more variables).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

import oracle_networks as on
from oracle_classic import classical_nonempty

# Expected verdict of each shipped corpus file, with the comment it rests on.
CORPUS_VERDICTS: Dict[str, str] = {
    "alt_choice": "not-empty",  # both children move to the accepting sink
    "alt_spatial": "not-empty",  # "the resulting witness network stays satisfiable"
    "alt_univ": "not-empty",  # "label A must hold everywhere", one live state
    "chain3": "not-empty",  # "giving a height-three witness"
    "constraints4": "not-empty",  # pending triples across two levels, one network
    "contradictory": "empty",  # "Empty for a spatial reason"
    "eq_loop": "not-empty",  # "Nonempty instance"
    "fallback": "not-empty",  # "succeed with the second choice"
    "no_accept": "empty",  # "Empty because no state is accepting"
    "part_cycle": "empty",  # "Empty through composition"
    "self_loop": "not-empty",  # "Smallest nonempty instance"
}


def expected(verdict: str, want: str) -> Optional[str]:
    return None if verdict == want else f"verdict {verdict}, expected {want}"


def classical_exact(automaton, verdict: str) -> Optional[str]:
    """Exact check for constraint-free automata."""
    want = "not-empty" if classical_nonempty(automaton) else "empty"
    return expected(verdict, want)


def classical_one_sided(automaton, verdict: str) -> Optional[str]:
    """Sound for any automaton: the fixed point over-approximates."""
    if verdict == "not-empty" and not classical_nonempty(automaton):
        return "verdict not-empty, but the classical fixed point proves it empty"
    return None


# -- RCC8 ---------------------------------------------------------------------

_BIT = {atom: 1 << i for i, atom in enumerate(on.ATOM_NAMES)}
_FULL = (1 << len(on.ATOM_NAMES)) - 1
_EQ = _BIT["EQ"]


def _mask(atoms) -> int:
    out = 0
    for atom in atoms:
        out |= _BIT[atom]
    return out


def _atoms(mask: int) -> List[str]:
    return [a for a in on.ATOM_NAMES if mask & _BIT[a]]


_CONVERSE = [_mask(on.ORACLE_CONVERSE[a] for a in _atoms(m)) for m in range(_FULL + 1)]
# _ATOM_COMPOSE[a][m]: composition of atom a with every relation mask m.
_ATOM_COMPOSE = [
    [
        _mask(x for b in _atoms(m) for x in on.ORACLE_COMPOSITION[(a, b)])
        for m in range(_FULL + 1)
    ]
    for a in on.ATOM_NAMES
]


def _compose(first: int, second: int) -> int:
    out = 0
    for i in range(len(on.ATOM_NAMES)):
        if first >> i & 1:
            out |= _ATOM_COMPOSE[i][second]
    return out


def _path_consistent(m: List[List[int]], queue: List[Tuple[int, int]]) -> bool:
    n = len(m)
    queued = set(queue)
    while queue:
        i, j = queue.pop()
        queued.discard((i, j))
        for k in range(n):
            if k == i or k == j:
                continue
            for a, b, through in (
                (i, k, _compose(m[i][j], m[j][k])),
                (k, j, _compose(m[k][i], m[i][j])),
            ):
                new = m[a][b] & through
                if new == m[a][b]:
                    continue
                if not new:
                    return False
                m[a][b] = new
                m[b][a] = _CONVERSE[new]
                if (a, b) not in queued:
                    queue.append((a, b))
                    queued.add((a, b))
    return True


def _search(m: List[List[int]], queue: List[Tuple[int, int]]) -> bool:
    if not _path_consistent(m, queue):
        return False
    n = len(m)
    branch = None
    for i in range(n):
        for j in range(i + 1, n):
            size = bin(m[i][j]).count("1")
            if size > 1 and (branch is None or size < branch[0]):
                branch = (size, i, j)
    if branch is None:
        return True  # atomic and path consistent: consistent for RCC8
    _, i, j = branch
    for atom in _atoms(m[i][j]):
        copy = [row[:] for row in m]
        copy[i][j] = _BIT[atom]
        copy[j][i] = _CONVERSE[_BIT[atom]]
        if _search(copy, [(i, j)]):
            return True
    return False


def reference_consistent(n_vars: int, allowed: Dict[Tuple[int, int], FrozenSet[str]]) -> bool:
    """Exact consistency over the oracle's tables; ``allowed`` as in
    ``oracle_networks.oracle_consistent`` (keys (i, j) with i < j)."""
    m = [[_FULL] * n_vars for _ in range(n_vars)]
    for i in range(n_vars):
        m[i][i] = _EQ
    for (i, j), atoms in allowed.items():
        m[i][j] &= _mask(atoms)
        m[j][i] = _CONVERSE[m[i][j]]
    if any(not m[i][j] for i in range(n_vars) for j in range(n_vars)):
        return False
    return _search(m, [(i, j) for i in range(n_vars) for j in range(n_vars) if i != j])


def consistency(verdict: bool, want: bool) -> Optional[str]:
    if verdict == want:
        return None
    return f"is_consistent says {verdict}, reference says {want}"


def scenario_certificate(
    n_vars: int, allowed: Dict[Tuple[int, int], FrozenSet[str]], scenario
) -> Optional[str]:
    """A scenario from ``consistent_scenario`` must fix one allowed atom per
    pair and pass the oracle's triangle check."""
    if scenario is None:
        return "no scenario for a consistent network"
    atoms: Dict[Tuple[int, int], FrozenSet[str]] = {}
    for i in range(n_vars):
        for j in range(i + 1, n_vars):
            rel = scenario.relation(i, j)
            if len(rel) != 1:
                return f"scenario pair ({i}, {j}) is not atomic: {rel}"
            (atom,) = tuple(rel)
            if atom not in allowed.get((i, j), on.ATOM_NAMES):
                return f"scenario pair ({i}, {j}) = {atom} is not allowed by the input"
            atoms[(i, j)] = frozenset((atom,))
    if not on.oracle_consistent(n_vars, atoms):
        return "scenario fails the oracle's composition check"
    return None
