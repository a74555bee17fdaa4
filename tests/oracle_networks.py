"""Brute-force consistency oracle for RCC8 constraint networks.

Carries its own transcription of the published RCC8 converse and
composition tables, kept textual and deliberately separate from the
package's tables so that a typo in either copy makes the two sides
disagree instead of agreeing by construction.

The searcher enumerates atomic labelings of the unordered variable pairs
in a fixed order and prunes a partial labeling as soon as any fully
labeled triangle violates composition.  For RCC8 an atomic network whose
triangles all satisfy composition is realizable, so the search is an
exact decision procedure.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

ATOM_NAMES = ("DC", "EC", "PO", "TPP", "NTPP", "TPPI", "NTPPI", "EQ")

_CONVERSE_TEXT = """
DC:DC  EC:EC  PO:PO  TPP:TPPI  NTPP:NTPPI  TPPI:TPP  NTPPI:NTPP  EQ:EQ
"""

# Rows read: first atom, second atom, then the composition as atom list.
_COMPOSITION_TEXT = """
DC DC : DC EC PO TPP NTPP TPPI NTPPI EQ
DC EC : DC EC PO TPP NTPP
DC PO : DC EC PO TPP NTPP
DC TPP : DC EC PO TPP NTPP
DC NTPP : DC EC PO TPP NTPP
DC TPPI : DC
DC NTPPI : DC
DC EQ : DC
EC DC : DC EC PO TPPI NTPPI
EC EC : DC EC PO TPP TPPI EQ
EC PO : DC EC PO TPP NTPP
EC TPP : EC PO TPP NTPP
EC NTPP : PO TPP NTPP
EC TPPI : DC EC
EC NTPPI : DC
EC EQ : EC
PO DC : DC EC PO TPPI NTPPI
PO EC : DC EC PO TPPI NTPPI
PO PO : DC EC PO TPP NTPP TPPI NTPPI EQ
PO TPP : PO TPP NTPP
PO NTPP : PO TPP NTPP
PO TPPI : DC EC PO TPPI NTPPI
PO NTPPI : DC EC PO TPPI NTPPI
PO EQ : PO
TPP DC : DC
TPP EC : DC EC
TPP PO : DC EC PO TPP NTPP
TPP TPP : TPP NTPP
TPP NTPP : NTPP
TPP TPPI : DC EC PO TPP TPPI EQ
TPP NTPPI : DC EC PO TPPI NTPPI
TPP EQ : TPP
NTPP DC : DC
NTPP EC : DC
NTPP PO : DC EC PO TPP NTPP
NTPP TPP : NTPP
NTPP NTPP : NTPP
NTPP TPPI : DC EC PO TPP NTPP
NTPP NTPPI : DC EC PO TPP NTPP TPPI NTPPI EQ
NTPP EQ : NTPP
TPPI DC : DC EC PO TPPI NTPPI
TPPI EC : EC PO TPPI NTPPI
TPPI PO : PO TPPI NTPPI
TPPI TPP : PO TPP TPPI EQ
TPPI NTPP : PO TPP NTPP
TPPI TPPI : TPPI NTPPI
TPPI NTPPI : NTPPI
TPPI EQ : TPPI
NTPPI DC : DC EC PO TPPI NTPPI
NTPPI EC : PO TPPI NTPPI
NTPPI PO : PO TPPI NTPPI
NTPPI TPP : PO TPPI NTPPI
NTPPI NTPP : PO TPP NTPP TPPI NTPPI EQ
NTPPI TPPI : NTPPI
NTPPI NTPPI : NTPPI
NTPPI EQ : NTPPI
EQ DC : DC
EQ EC : EC
EQ PO : PO
EQ TPP : TPP
EQ NTPP : NTPP
EQ TPPI : TPPI
EQ NTPPI : NTPPI
EQ EQ : EQ
"""


def _parse_converse() -> Dict[str, str]:
    table = {}
    for entry in _CONVERSE_TEXT.split():
        left, right = entry.split(":")
        table[left] = right
    return table


def _parse_composition() -> Dict[Tuple[str, str], FrozenSet[str]]:
    table = {}
    for line in _COMPOSITION_TEXT.strip().splitlines():
        head, tail = line.split(":")
        first, second = head.split()
        table[(first, second)] = frozenset(tail.split())
    return table


ORACLE_CONVERSE = _parse_converse()
ORACLE_COMPOSITION = _parse_composition()


def oracle_consistent(
    n_vars: int,
    allowed: Dict[Tuple[int, int], FrozenSet[str]],
    selfs: Dict[int, FrozenSet[str]] = {},
) -> bool:
    """Does an atomic scenario exist?

    ``allowed[(i, j)]`` with i < j lists the atoms permitted between
    variables i and j; missing pairs permit every atom.  ``selfs`` lists
    atoms permitted between a variable and itself, satisfiable only
    through EQ.
    """
    for atoms in selfs.values():
        if "EQ" not in atoms:
            return False

    pairs = [(i, j) for i in range(n_vars) for j in range(i + 1, n_vars)]
    chosen: Dict[Tuple[int, int], str] = {}

    def atom_at(i: int, j: int) -> str:
        if i < j:
            return chosen[(i, j)]
        return ORACLE_CONVERSE[chosen[(j, i)]]

    def compatible(i: int, j: int) -> bool:
        for k in range(n_vars):
            if k == i or k == j:
                continue
            if (min(i, k), max(i, k)) not in chosen:
                continue
            if (min(k, j), max(k, j)) not in chosen:
                continue
            if atom_at(i, j) not in ORACLE_COMPOSITION[(atom_at(i, k), atom_at(k, j))]:
                return False
        return True

    def search(index: int) -> bool:
        if index == len(pairs):
            return True
        i, j = pairs[index]
        for atom in ATOM_NAMES:
            if atom not in allowed.get((i, j), frozenset(ATOM_NAMES)):
                continue
            chosen[(i, j)] = atom
            if compatible(i, j) and search(index + 1):
                return True
            del chosen[(i, j)]
        return False

    return search(0)


def oracle_consistent_atoms(n_vars: int, atoms: Dict[Tuple[int, int], str]) -> bool:
    """Consistency of a complete atomic network given as ordered-pair atoms."""
    allowed = {
        (i, j): frozenset({atom})
        for (i, j), atom in atoms.items()
        if i < j
    }
    return oracle_consistent(n_vars, allowed)
