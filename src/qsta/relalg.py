"""RCC8 relation algebra and qualitative constraint networks.

The eight atoms (DC, EC, PO, TPP, NTPP, TPPI, NTPPI, EQ) are jointly
exhaustive and pairwise disjoint, so a relation is just a set of atoms and
is stored as an 8-bit mask.  Converse and composition are table driven; the
composition table is the standard published one for RCC8 (weak composition).
The converse of every mask and the composition of every atom with every mask
are tables built at import.  The composition of a whole mask with every mask
is a 256-byte row, built the first time that mask is composed and kept, so
path consistency does one row index per triangle and importing the package
builds no row.

A ``Qcsp`` holds one relation per ordered pair of variables, kept converse
closed, with missing pairs meaning the full relation.  Constraints between a
variable and itself cannot be stored pairwise, so they are kept in a separate
``selfs`` map: a self constraint is satisfiable exactly when it admits EQ.

The solver closes a network under path consistency, then branches, one
re-closure per branch, until every pair of a given list is atomic.  Path
consistency decides networks over Ĥ8, which holds every atom and the
universal relation (Renz & Nebel, AIJ 108, 1999), so a yes/no decision
(``masks_consistent``, ``is_consistent``) branches only on the declared
pairs, those some constraint narrows.  ``consistent_scenario`` lists every
pair, to fix an atom for each.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ._value import Value, set_field

__all__ = [
    "ATOMS",
    "Relation",
    "Qcsp",
    "QcspBuilder",
    "converse",
    "compose",
    "path_consistency",
    "is_consistent",
    "consistent_scenario",
    "parse_relation",
]

ATOMS: Tuple[str, ...] = ("DC", "EC", "PO", "TPP", "NTPP", "TPPI", "NTPPI", "EQ")

_ATOM_BIT: Dict[str, int] = {name: 1 << i for i, name in enumerate(ATOMS)}
_FULL_MASK = (1 << len(ATOMS)) - 1
_EQ_MASK = _ATOM_BIT["EQ"]

_CONVERSE_ATOM = {
    "DC": "DC",
    "EC": "EC",
    "PO": "PO",
    "TPP": "TPPI",
    "NTPP": "NTPPI",
    "TPPI": "TPP",
    "NTPPI": "NTPP",
    "EQ": "EQ",
}

# Weak composition of base relations: row atom first, column atom second.
_ALL = ATOMS
_COMPOSITION_ATOMS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "DC": {
        "DC": _ALL,
        "EC": ("DC", "EC", "PO", "TPP", "NTPP"),
        "PO": ("DC", "EC", "PO", "TPP", "NTPP"),
        "TPP": ("DC", "EC", "PO", "TPP", "NTPP"),
        "NTPP": ("DC", "EC", "PO", "TPP", "NTPP"),
        "TPPI": ("DC",),
        "NTPPI": ("DC",),
        "EQ": ("DC",),
    },
    "EC": {
        "DC": ("DC", "EC", "PO", "TPPI", "NTPPI"),
        "EC": ("DC", "EC", "PO", "TPP", "TPPI", "EQ"),
        "PO": ("DC", "EC", "PO", "TPP", "NTPP"),
        "TPP": ("EC", "PO", "TPP", "NTPP"),
        "NTPP": ("PO", "TPP", "NTPP"),
        "TPPI": ("DC", "EC"),
        "NTPPI": ("DC",),
        "EQ": ("EC",),
    },
    "PO": {
        "DC": ("DC", "EC", "PO", "TPPI", "NTPPI"),
        "EC": ("DC", "EC", "PO", "TPPI", "NTPPI"),
        "PO": _ALL,
        "TPP": ("PO", "TPP", "NTPP"),
        "NTPP": ("PO", "TPP", "NTPP"),
        "TPPI": ("DC", "EC", "PO", "TPPI", "NTPPI"),
        "NTPPI": ("DC", "EC", "PO", "TPPI", "NTPPI"),
        "EQ": ("PO",),
    },
    "TPP": {
        "DC": ("DC",),
        "EC": ("DC", "EC"),
        "PO": ("DC", "EC", "PO", "TPP", "NTPP"),
        "TPP": ("TPP", "NTPP"),
        "NTPP": ("NTPP",),
        "TPPI": ("DC", "EC", "PO", "TPP", "TPPI", "EQ"),
        "NTPPI": ("DC", "EC", "PO", "TPPI", "NTPPI"),
        "EQ": ("TPP",),
    },
    "NTPP": {
        "DC": ("DC",),
        "EC": ("DC",),
        "PO": ("DC", "EC", "PO", "TPP", "NTPP"),
        "TPP": ("NTPP",),
        "NTPP": ("NTPP",),
        "TPPI": ("DC", "EC", "PO", "TPP", "NTPP"),
        "NTPPI": _ALL,
        "EQ": ("NTPP",),
    },
    "TPPI": {
        "DC": ("DC", "EC", "PO", "TPPI", "NTPPI"),
        "EC": ("EC", "PO", "TPPI", "NTPPI"),
        "PO": ("PO", "TPPI", "NTPPI"),
        "TPP": ("PO", "TPP", "TPPI", "EQ"),
        "NTPP": ("PO", "TPP", "NTPP"),
        "TPPI": ("TPPI", "NTPPI"),
        "NTPPI": ("NTPPI",),
        "EQ": ("TPPI",),
    },
    "NTPPI": {
        "DC": ("DC", "EC", "PO", "TPPI", "NTPPI"),
        "EC": ("PO", "TPPI", "NTPPI"),
        "PO": ("PO", "TPPI", "NTPPI"),
        "TPP": ("PO", "TPPI", "NTPPI"),
        "NTPP": ("PO", "TPP", "NTPP", "TPPI", "NTPPI", "EQ"),
        "TPPI": ("NTPPI",),
        "NTPPI": ("NTPPI",),
        "EQ": ("NTPPI",),
    },
    "EQ": {atom: (atom,) for atom in ATOMS},
}


def _mask_of(atoms: Iterable[str]) -> int:
    mask = 0
    for name in atoms:
        mask |= _ATOM_BIT[name]
    return mask


class Relation(Value):
    """A subset of the eight RCC8 atoms, held as an 8-bit mask."""

    __slots__ = ("mask",)
    mask: int

    def __init__(self, mask: int) -> None:
        set_field(self, "mask", mask)
        if not 0 <= mask <= _FULL_MASK:
            raise ValueError(f"invalid relation mask {mask!r}")

    @staticmethod
    def of(*atoms: str) -> "Relation":
        return Relation(_mask_of(_canon_atom(a) for a in atoms))

    @staticmethod
    def full() -> "Relation":
        return Relation(_FULL_MASK)

    @staticmethod
    def empty() -> "Relation":
        return Relation(0)

    @property
    def atoms(self) -> Tuple[str, ...]:
        return tuple(a for a in ATOMS if _ATOM_BIT[a] & self.mask)

    def is_empty(self) -> bool:
        return self.mask == 0

    def is_atomic(self) -> bool:
        return self.mask != 0 and self.mask & (self.mask - 1) == 0

    def __contains__(self, atom: str) -> bool:
        return bool(_ATOM_BIT[_canon_atom(atom)] & self.mask)

    def __and__(self, other: "Relation") -> "Relation":
        return Relation(self.mask & other.mask)

    def __or__(self, other: "Relation") -> "Relation":
        return Relation(self.mask | other.mask)

    def complement(self) -> "Relation":
        return Relation(self.mask ^ _FULL_MASK)

    def issubset(self, other: "Relation") -> bool:
        return self.mask & ~other.mask == 0

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __iter__(self) -> Iterator[str]:
        return iter(self.atoms)

    def __str__(self) -> str:
        names = self.atoms
        if len(names) == 1:
            return names[0]
        return "{" + ",".join(names) + "}"

    def __repr__(self) -> str:
        return f"Relation.of({', '.join(map(repr, self.atoms))})"


def _canon_atom(name: str) -> str:
    upper = name.upper()
    if upper not in _ATOM_BIT:
        raise ValueError(f"unknown RCC8 atom {name!r}")
    return upper


EQ_RELATION = Relation.of("EQ")


def parse_relation(text: str) -> Relation:
    """Parse ``TPP`` or ``{TPP,NTPP}`` (atom names case insensitive)."""
    text = text.strip()
    if text.startswith("{"):
        if not text.endswith("}"):
            raise ValueError(f"unterminated relation set {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            raise ValueError("relation set must name at least one atom")
        return Relation.of(*(part.strip() for part in inner.split(",")))
    return Relation.of(text)


def _unions(per_atom: List[int]) -> List[int]:
    """For every mask, the union of per_atom's entries over the mask's atoms."""
    table = [0] * (_FULL_MASK + 1)
    for m in range(1, _FULL_MASK + 1):
        table[m] = table[m & (m - 1)] | per_atom[(m & -m).bit_length() - 1]
    return table


# Converse of every mask, and composition of each atom with every mask.
_CONVERSE = _unions([_ATOM_BIT[_CONVERSE_ATOM[a]] for a in ATOMS])
_ATOM_COMPOSE = [_unions([_mask_of(_COMPOSITION_ATOMS[a][b]) for b in ATOMS]) for a in ATOMS]


# _ROWS[first][second] is the weak composition of mask first with mask
# second.  Each row is built on first use: a process that composes few
# masks pays for few rows, and import pays for none.
_ROWS: List[Optional[bytes]] = [None] * (_FULL_MASK + 1)


def _row(first: int) -> bytes:
    """The composition of mask first with every mask: the union of the
    ``_ATOM_COMPOSE`` rows of first's atoms, built once."""
    row = _ROWS[first]
    if row is None:
        union = [0] * (_FULL_MASK + 1)
        for atom, per_mask in enumerate(_ATOM_COMPOSE):
            if first >> atom & 1:
                union = [a | b for a, b in zip(union, per_mask)]
        row = _ROWS[first] = bytes(union)
    return row


def converse(rel: Relation) -> Relation:
    return Relation(_CONVERSE[rel.mask])


def compose(first: Relation, second: Relation) -> Relation:
    """Weak composition: the union of table entries over all atom pairs."""
    return Relation(_row(first.mask)[second.mask])


Variable = Tuple  # any hashable, totally ordered identifier


class Qcsp(Value):
    """A qualitative constraint network over RCC8.

    ``edges`` maps ordered pairs of distinct variables to relations and is
    converse closed; pairs that are absent carry the full relation.  ``selfs``
    holds the intersection of all constraints declared between a variable and
    itself.  Two networks are equal when they have the same variables, in
    any order, and the same relations; a network is unhashable.
    """

    __slots__ = ("variables", "edges", "selfs")
    variables: Tuple[Variable, ...]
    edges: Mapping[Tuple[Variable, Variable], Relation]
    selfs: Mapping[Variable, Relation]

    def __init__(
        self,
        variables: Tuple[Variable, ...],
        edges: Mapping[Tuple[Variable, Variable], Relation],
        selfs: Optional[Mapping[Variable, Relation]] = None,
    ) -> None:
        set_field(self, "variables", variables)
        set_field(self, "edges", edges)
        set_field(self, "selfs", {} if selfs is None else selfs)

    def relation(self, u: Variable, v: Variable) -> Relation:
        if u == v:
            raise ValueError("use self_relation() for a variable against itself")
        return self.edges.get((u, v), Relation.full())

    def self_relation(self, v: Variable) -> Relation:
        return self.selfs.get(v, Relation.full())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Qcsp):
            return NotImplemented
        return (
            set(self.variables) == set(other.variables)
            and dict(self.edges) == dict(other.edges)
            and dict(self.selfs) == dict(other.selfs)
        )


class QcspBuilder:
    """Accumulates constraints, intersecting repeats and closing converses."""

    def __init__(self, variables: Iterable[Variable] = ()) -> None:
        self._variables = set(variables)
        self._edges: Dict[Tuple[Variable, Variable], int] = {}
        self._selfs: Dict[Variable, int] = {}

    def add_variable(self, v: Variable) -> None:
        self._variables.add(v)

    def add(self, u: Variable, v: Variable, rel: Relation) -> None:
        self._variables.add(u)
        self._variables.add(v)
        if u == v:
            self._selfs[u] = self._selfs.get(u, _FULL_MASK) & rel.mask
            return
        self._edges[(u, v)] = self._edges.get((u, v), _FULL_MASK) & rel.mask
        self._edges[(v, u)] = self._edges.get((v, u), _FULL_MASK) & _CONVERSE[rel.mask]

    def build(self) -> Qcsp:
        return Qcsp(
            variables=tuple(sorted(self._variables)),
            edges={pair: Relation(mask) for pair, mask in self._edges.items()},
            selfs={v: Relation(mask) for v, mask in self._selfs.items()},
        )


# The solver works on a dense, converse-closed matrix of masks over the
# network's variables; the diagonal is unused.  A queue is a set of pairs
# i < j: closing the triangles through (i, j) closes those through (j, i).
Matrix = List[List[int]]
Pair = Tuple[int, int]

# The number of atoms in every mask.
_SIZE = bytes(bin(mask).count("1") for mask in range(_FULL_MASK + 1))


def _closed_matrix(
    n: int, constraints: Iterable[Tuple[int, int, int]]
) -> Optional[Tuple[Matrix, List[Pair]]]:
    """Constraints (i, j, mask) over variables 0..n-1 as a path-consistent
    mask matrix, with its declared pairs: the pairs i < j, in row-major
    order, whose mask is not full before closure.  None when a relation
    empties.  Repeated pairs intersect; a pair i == j holds exactly when
    its mask admits EQ."""
    m = [[_FULL_MASK] * n for _ in range(n)]
    for i, j, mask in constraints:
        if i == j:
            if not mask & _EQ_MASK:
                return None
            continue
        mask &= m[i][j]
        if not mask:
            return None
        m[i][j], m[j][i] = mask, _CONVERSE[mask]
    # A full pair cannot tighten a triangle: it composes to the full relation.
    declared = [(i, j) for i in range(n) for j in range(i + 1, n) if m[i][j] != _FULL_MASK]
    return (m, declared) if _close(m, set(declared)) else None


def _masks(network: Qcsp) -> Tuple[int, List[Tuple[int, int, int]]]:
    """The network as ``_closed_matrix`` arguments, variables in their order.
    Raises ValueError when an edge or self constraint names a variable that
    is not among the network's variables."""
    index = {v: i for i, v in enumerate(network.variables)}
    constraints = []
    for v, rel in network.selfs.items():
        if v not in index:
            raise ValueError(f"self constraint on {v!r}, which is not a variable of the network")
        constraints.append((index[v], index[v], rel.mask))
    for (u, v), rel in network.edges.items():
        if u not in index or v not in index:
            raise ValueError(f"edge {(u, v)!r} names a variable that is not in the network")
        constraints.append((index[u], index[v], rel.mask))
    return len(index), constraints


def _close(m: Matrix, queue: Set[Pair]) -> bool:
    """Path consistency in place: C(x,k) &= C(x,y) o C(y,k) for every queued
    pair (x, y), both ways round, until nothing changes; False when a
    relation empties.  The result is the greatest path-consistent
    refinement of m, whatever the queue order.  C(x,y) stays fixed while
    its triangles are revised (k differs from x and y), so its composition
    row is fetched once per pair and direction, and each triangle costs
    one index into it."""
    n = len(m)
    while queue:
        pair = queue.pop()
        for x, y in (pair, pair[::-1]):
            row_x, row_y = m[x], m[y]
            comp = _ROWS[row_x[y]] or _row(row_x[y])
            for k in range(n):
                if k == x or k == y or row_y[k] == _FULL_MASK:
                    continue
                new = row_x[k] & comp[row_y[k]]
                if new != row_x[k]:
                    if not new:
                        return False
                    row_x[k], m[k][x] = new, _CONVERSE[new]
                    queue.add((x, k) if x < k else (k, x))
    return True


def _scenario(m: Matrix, pairs: List[Pair]) -> Optional[Matrix]:
    """A path-consistent refinement of the closed matrix m in which every
    listed pair is atomic, or None when there is none.

    Such a refinement is consistent whenever the listed pairs include every
    pair that is neither atomic nor full before closure: the network of
    those atoms and universal relations lies in Ĥ8, where path consistency
    decides consistency (Renz & Nebel, AIJ 108, 1999).  So
    ``masks_consistent`` lists the declared pairs only, and
    ``consistent_scenario`` every pair i < j, for an atomic matrix.

    Depth first over the atoms, in ``ATOMS`` order, of the first listed
    pair with the fewest atoms, with a stack of (closed matrix, its
    non-atomic listed pairs, pair, atoms left).  A branch copies the closed
    matrix, fixes the pair and re-closes from that pair only; closure only
    refines, so the pairs still to fix are filtered from the parent's."""
    stack: List[Tuple[Matrix, List[Pair], int, int, int]] = []
    closed = True
    while True:
        if closed:
            open_pairs, fewest = [], len(ATOMS) + 1
            for pair in pairs:
                size = _SIZE[m[pair[0]][pair[1]]]
                if size > 1:
                    open_pairs.append(pair)
                    if size < fewest:
                        branch, fewest = pair, size
            if not open_pairs:
                return m
            i, j = branch
            stack.append((m, open_pairs, i, j, m[i][j]))
        if not stack:
            return None
        m, pairs, i, j, left = stack.pop()
        atom = left & -left
        if left != atom:
            stack.append((m, pairs, i, j, left ^ atom))
            m = [row[:] for row in m]
        m[i][j], m[j][i] = atom, _CONVERSE[atom]
        closed = _close(m, {(i, j)})


def _network(network: Qcsp, m: Matrix) -> Qcsp:
    """The matrix as a network like the input, without its full pairs."""
    variables = network.variables
    edges = {
        (u, v): Relation(m[i][j])
        for i, u in enumerate(variables)
        for j, v in enumerate(variables)
        if i != j and m[i][j] != _FULL_MASK
    }
    return Qcsp(variables, edges, dict(network.selfs))


def path_consistency(network: Qcsp) -> Optional[Qcsp]:
    """Close the network under the triangle rule.

    Repeatedly replaces C(i,j) with C(i,j) & compose(C(i,k), C(k,j)) until a
    fixed point.  Returns the refined network, or None when some edge (or an
    EQ-free self constraint) empties; None is the ordinary "inconsistent"
    answer, not an error.
    """
    closed = _closed_matrix(*_masks(network))
    return None if closed is None else _network(network, closed[0])


def masks_consistent(n: int, constraints: Iterable[Tuple[int, int, int]]) -> bool:
    """Decide a network given as masks: constraints (i, j, mask) over
    variables 0..n-1, read as in ``_closed_matrix``.  ``is_consistent``
    and the emptiness search's root check both decide through here.

    Exact by branching on the declared pairs only: once each is atomic, the
    network of those atoms and the universal relation elsewhere lies in Ĥ8,
    where path consistency decides consistency (Renz & Nebel, AIJ 108,
    1999).  Pairs no constraint names are never branched on."""
    closed = _closed_matrix(n, constraints)
    return closed is not None and _scenario(*closed) is not None


def is_consistent(network: Qcsp) -> bool:
    """Decide consistency by refinement search with path-consistency pruning."""
    return masks_consistent(*_masks(network))


def consistent_scenario(network: Qcsp) -> Optional[Qcsp]:
    """Return a consistent atomic refinement, complete over all pairs.

    The result fixes one atom for every ordered pair of variables of the
    input (missing pairs of the input count as full), or None when the
    network is inconsistent.  It branches on every pair i < j, not only
    the declared ones, so it does more work than ``is_consistent``.  No
    verdict path calls it: the search and ``check_witness`` decide through
    ``masks_consistent``, and only ``scene_from_witness`` builds a scenario.
    """
    closed = _closed_matrix(*_masks(network))
    if closed is None:
        return None
    m, _ = closed
    every_pair = [(i, j) for i in range(len(m)) for j in range(i + 1, len(m))]
    scenario = _scenario(m, every_pair)
    return None if scenario is None else _network(network, scenario)
