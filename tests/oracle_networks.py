"""Brute-force consistency oracle for RCC8 constraint networks.

Carries its own transcription of the published RCC8 converse and
composition tables, kept textual and deliberately separate from the
package's tables so that a typo in either copy makes the two sides
disagree instead of agreeing by construction.

The searcher keeps a set of atoms per ordered variable pair and closes it
under path consistency over these tables: every triangle i, k, j removes
from (i, j) the atoms outside the composition of (i, k) and (k, j).  It
then branches on a pair with the fewest atoms left (more than one), one
atom at a time in table order, and closes again.  Path consistency only
removes atoms that no scenario uses, and for RCC8 an atomic network whose
triangles all satisfy composition is realizable, so a closed network of
single atoms is consistent and the search is an exact decision procedure.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

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

    every = frozenset(ATOM_NAMES)
    domains: Dict[Tuple[int, int], FrozenSet[str]] = {}
    for i in range(n_vars):
        for j in range(i + 1, n_vars):
            atoms = every & allowed.get((i, j), every)
            domains[(i, j)] = atoms
            domains[(j, i)] = frozenset(ORACLE_CONVERSE[a] for a in atoms)
    composed: Dict[Tuple[FrozenSet[str], FrozenSet[str]], FrozenSet[str]] = {}

    def compose(first: FrozenSet[str], second: FrozenSet[str]) -> FrozenSet[str]:
        key = (first, second)
        if key not in composed:
            composed[key] = frozenset().union(
                *(ORACLE_COMPOSITION[(a, b)] for a in first for b in second)
            )
        return composed[key]

    def close(d: Dict[Tuple[int, int], FrozenSet[str]], queue: List[Tuple[int, int]]) -> bool:
        """Path consistency from the pairs in ``queue``, which it empties;
        False once a pair has no atom left."""
        while queue:
            i, j = queue.pop()
            for k in range(n_vars):
                if k == i or k == j:
                    continue
                # (i, k) through j, and (k, j) through i
                for a, b, c in ((i, j, k), (k, i, j)):
                    narrowed = d[(a, c)] & compose(d[(a, b)], d[(b, c)])
                    if narrowed != d[(a, c)]:
                        if not narrowed:
                            return False
                        d[(a, c)] = narrowed
                        d[(c, a)] = frozenset(ORACLE_CONVERSE[x] for x in narrowed)
                        queue.append((a, c))
        return True

    def search(d: Dict[Tuple[int, int], FrozenSet[str]]) -> bool:
        open_pairs = [pair for pair, atoms in d.items() if pair[0] < pair[1] and len(atoms) > 1]
        if not open_pairs:
            return True
        i, j = min(open_pairs, key=lambda pair: len(d[pair]))
        for atom in ATOM_NAMES:
            if atom not in d[(i, j)]:
                continue
            branch = dict(d)
            branch[(i, j)] = frozenset((atom,))
            branch[(j, i)] = frozenset((ORACLE_CONVERSE[atom],))
            if close(branch, [(i, j)]) and search(branch):
                return True
        return False

    if any(not atoms for atoms in domains.values()):
        return False
    return close(domains, [pair for pair in domains if pair[0] < pair[1]]) and search(domains)


def oracle_consistent_atoms(n_vars: int, atoms: Dict[Tuple[int, int], str]) -> bool:
    """Consistency of a complete atomic network given as ordered-pair atoms."""
    allowed = {
        (i, j): frozenset({atom})
        for (i, j), atom in atoms.items()
        if i < j
    }
    return oracle_consistent(n_vars, allowed)
