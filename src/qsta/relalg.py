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

The solver works on a ``MaskMatrix``, which holds EQ on its diagonal: the
relation of a variable to itself, so a self constraint is intersected there
like any other.  It closes the matrix under path consistency, then branches
in place, one re-closure per branch, until every pair of a given list is
done; a failed branch is taken back through the matrix's undo trail, so no
branch copies the matrix.  ``consistent_scenario`` lists every pair, done
at an atom.  A yes/no decision (``masks_consistent``, ``is_consistent``)
lists the declared pairs, those some constraint narrows, done in T: the
closure of the atoms and the universal relation under composition,
converse and intersection (37 relations).  T lies in Ĥ8, where path
consistency decides consistency (Renz & Nebel, AIJ 108, 1999), so stopping
there is exact; ``_scenario`` gives the argument.  A ``MaskMatrix`` is the
one place a constraint is intersected into a matrix.  ``_closed_matrix``
adds a whole list and closes once; the emptiness search adds its
constraints one at a time, closing from each pair as it arrives, and takes
them back through the same undo trail (incremental path consistency,
Gerevini, AIJ 166, 2005).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

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


def _atoms_and_names() -> Tuple[List[Tuple[str, ...]], List[str]]:
    """The atoms of every mask, in ``ATOMS`` order, and its printed name:
    the atom of an atomic mask, ``{A,B,...}`` otherwise.  The masks below
    2**(i+1) are those below 2**i, then the same with atom i added."""
    atoms: List[Tuple[str, ...]] = [()]
    for atom in ATOMS:
        atoms += [below + (atom,) for below in atoms]
    names = ["{" + ",".join(a) + "}" if len(a) != 1 else a[0] for a in atoms]
    return atoms, names


_ATOMS_OF, _NAME = _atoms_and_names()


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
        return _ATOMS_OF[self.mask]

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
        return _NAME[self.mask]

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
    """For every mask, the union of per_atom's entries over the mask's atoms,
    built as ``_atoms_and_names`` builds its atoms."""
    table = [0]
    for entry in per_atom:
        table += [union | entry for union in table]
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
# network's variables, with EQ, the relation of a variable to itself, on
# its diagonal.  A queue is a set of pairs i < j: closing the triangles
# through (i, j) closes those through (j, i).
Matrix = List[List[int]]
Pair = Tuple[int, int]

# The number of atoms in every mask.
_SIZE = bytes(map(len, _ATOMS_OF))

# T, the closure of the eight atoms and the universal relation under
# composition, converse and intersection: 37 non-empty relations, all in
# Ĥ8.  Kept as a literal so that import composes nothing; the tests derive
# it again from an independent transcription of the tables.
_CLOSURE_OF_ATOMS = frozenset((
    0x01, 0x02, 0x03, 0x04, 0x06, 0x07, 0x08, 0x0C, 0x0E, 0x0F, 0x10, 0x18, 0x1C,
    0x1E, 0x1F, 0x20, 0x24, 0x26, 0x27, 0x40, 0x60, 0x64, 0x66, 0x67, 0x80, 0xAC,
    0xAE, 0xAF, 0xBC, 0xBE, 0xBF, 0xEC, 0xEE, 0xEF, 0xFC, 0xFE, 0xFF,
))

# The "done" tables of ``_scenario``, indexed by mask: atomic masks, for a
# scenario, and the masks of T, for a yes/no decision.
_ATOMIC = bytes(size == 1 for size in _SIZE)
_IN_CLOSURE = bytes(mask in _CLOSURE_OF_ATOMS for mask in range(_FULL_MASK + 1))


class MaskMatrix:
    """A converse-closed mask matrix over variables 0..n-1, with EQ on its
    diagonal, that constraints are intersected into one pair at a time.

    ``add`` keeps the matrix path consistent as constraints arrive: it
    intersects one pair, growing the matrix one variable at a time to hold
    it, and closes from that pair.  Every change it makes goes on
    ``trail``: (i, j, old mask) for a pair, None for a variable.
    ``undo(mark)``, with ``mark`` a length of ``trail`` taken earlier,
    pops the trail back to it and restores the matrix of that moment bit
    for bit, also after an ``add`` that emptied a relation part way
    through its closure: the revisions made before the empty one are on
    the trail, and the empty one is never written.  Until that undo, such
    a matrix is not closed and takes no further ``add``.  The emptiness
    search undoes a rejected choice this way, and ``_scenario`` a failed
    branch."""

    __slots__ = ("m", "trail")

    def __init__(self, n: int = 0) -> None:
        self.m: Matrix = [[_FULL_MASK] * n for _ in range(n)]
        for i, row in enumerate(self.m):
            row[i] = _EQ_MASK
        self.trail: List[Optional[Tuple[int, int, int]]] = []

    def intersect(self, i: int, j: int, mask: int, trail: Optional[list] = None) -> bool:
        """Intersect mask into pair (i, j), recording the old mask on
        ``trail`` when one is given and the pair changes; False when the
        relation empties, which is not written.  A pair i == j holds EQ,
        so it holds exactly when its mask admits EQ, and changes nothing."""
        row = self.m[i]
        old = row[j]
        new = old & mask
        if new != old:
            if not new:
                return False
            if trail is not None:
                trail.append((i, j, old))
            row[j], self.m[j][i] = new, _CONVERSE[new]
        return True

    def add(self, i: int, j: int, mask: int) -> bool:
        """``intersect`` on the trail, then close from the pair if it
        changed; False when a relation empties."""
        m, trail = self.m, self.trail
        while len(m) <= i or len(m) <= j:
            for row in m:
                row.append(_FULL_MASK)
            m.append([_FULL_MASK] * len(m) + [_EQ_MASK])
            trail.append(None)
        length = len(trail)
        if not self.intersect(i, j, mask, trail):
            return False
        return len(trail) == length or _close(m, {(i, j) if i < j else (j, i)}, trail)

    def undo(self, mark: int) -> None:
        """Take back every change recorded after ``mark``, latest first."""
        m, trail = self.m, self.trail
        while len(trail) > mark:
            entry = trail.pop()
            if entry is None:
                m.pop()
                for row in m:
                    row.pop()
            else:
                i, j, old = entry
                m[i][j], m[j][i] = old, _CONVERSE[old]

    def consistent(self, constraints: Sequence[Tuple[int, int, int]]) -> bool:
        """Decide the network of ``constraints``, all of them added
        without a relation emptying, as ``masks_consistent`` does:
        ``_scenario`` in place, over the declared pairs ``_closed_matrix``
        would list for them, then ``undo`` to the mark it started from, so
        the matrix is left as it was found.  The matrix is closed, so those
        pairs are read from the constraints, not from it."""
        declared = sorted({
            (i, j) if i < j else (j, i) for i, j, mask in constraints if i != j and mask != _FULL_MASK
        })
        mark = len(self.trail)
        found = _scenario(self, declared, _IN_CLOSURE)
        self.undo(mark)
        return found


def _closed_matrix(
    n: int, constraints: Sequence[Tuple[int, int, int]]
) -> Optional[Tuple[MaskMatrix, List[Pair]]]:
    """Constraints (i, j, mask) over variables 0..n-1 as a path-consistent
    ``MaskMatrix``, with its declared pairs: the pairs i < j, in row-major
    order, whose mask is not full before closure.  None when a relation
    empties.  Repeated pairs intersect; a pair i == j holds exactly when
    its mask admits EQ.  Every constraint is intersected into the matrix
    first, off the trail, then one closure runs over the declared pairs."""
    matrix = MaskMatrix(n)
    for i, j, mask in constraints:
        if not matrix.intersect(i, j, mask):
            return None
    m = matrix.m
    # A full pair cannot tighten a triangle: it composes to the full relation.
    declared = [(i, j) for i in range(n) for j in range(i + 1, n) if m[i][j] != _FULL_MASK]
    return (matrix, declared) if _close(m, set(declared)) else None


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


def _close(m: Matrix, queue: Set[Pair], trail: Optional[list] = None) -> bool:
    """Path consistency in place: C(x,k) &= C(x,y) o C(y,k) for every queued
    pair (x, y), both ways round, until nothing changes; False when a
    relation empties, which is not written.  The result is the greatest
    path-consistent refinement of m, whatever the queue order.  The
    diagonal holds EQ, and for every non-empty r, r o EQ = r and r o r⁻¹
    holds EQ, so the triangles with k = x or k = y change nothing and are
    revised like the others.  C(x,y) stays fixed while its triangles are
    revised, so its composition row is fetched once per pair and
    direction, and each triangle costs one index into it.  Given a
    ``trail``, each revision appends (x, k, old mask) to it before it is
    written."""
    n = len(m)
    while queue:
        pair = queue.pop()
        for x, y in (pair, pair[::-1]):
            row_x, row_y = m[x], m[y]
            comp = _ROWS[row_x[y]] or _row(row_x[y])
            for k in range(n):
                if row_y[k] == _FULL_MASK:
                    continue
                new = row_x[k] & comp[row_y[k]]
                if new != row_x[k]:
                    if not new:
                        return False
                    if trail is not None:
                        trail.append((x, k, row_x[k]))
                    row_x[k], m[k][x] = new, _CONVERSE[new]
                    queue.add((x, k) if x < k else (k, x))
    return True


def _scenario(matrix: MaskMatrix, pairs: List[Pair], done: bytes) -> bool:
    """Search the closed matrix depth first, in place, branching on listed
    pairs until each has been found done (``done[mask]`` is 1) in the
    current matrix or an ancestor: True with the matrix left at that
    point, or False when every branch empties a relation, with the matrix
    left part way through the last one.  ``done`` holds every atom, so the
    search ends.  Callers that keep the matrix undo it to a mark taken
    before the call.

    With ``_ATOMIC`` and every pair i < j listed, the result is an atomic
    scenario: an atom only refines to itself (``consistent_scenario``).
    With ``_IN_CLOSURE`` and the declared pairs listed, it decides the
    input (``masks_consistent``).  False proves it inconsistent, since each
    branch splits a pair into all of its atoms.  True proves it
    consistent: the network N of the masks at which the declared pairs
    were found done, universal elsewhere, lies in T ⊆ Ĥ8, where path
    consistency is exact (Renz & Nebel, AIJ 108, 1999); the result is a
    non-empty path-consistent refinement of N, so N has a solution; and
    each of those masks refines its pair's input relation, so that
    solution satisfies the input.

    The branch is the first listed pair with the fewest atoms among those
    not done, its atoms taken in ``ATOMS`` order, with a stack of (trail
    mark of the closed matrix, its listed pairs not done, pair, atoms
    left).  A branch undoes the matrix to its mark, intersects its atom
    and re-closes from that pair only, all on the trail; the pairs still
    to fix are filtered from the parent's."""
    m, trail = matrix.m, matrix.trail
    stack: List[Tuple[int, List[Pair], int, int, int]] = []
    closed = True
    while True:
        if closed:
            open_pairs, fewest = [], len(ATOMS) + 1
            for pair in pairs:
                mask = m[pair[0]][pair[1]]
                if not done[mask]:
                    open_pairs.append(pair)
                    if _SIZE[mask] < fewest:
                        branch, fewest = pair, _SIZE[mask]
            if not open_pairs:
                return True
            i, j = branch
            stack.append((len(trail), open_pairs, i, j, m[i][j]))
        if not stack:
            return False
        mark, pairs, i, j, left = stack.pop()
        matrix.undo(mark)
        atom = left & -left
        if left != atom:
            stack.append((mark, pairs, i, j, left ^ atom))
        # An atom of a pair not done narrows it, so the intersection holds.
        matrix.intersect(i, j, atom, trail)
        closed = _close(m, {(i, j)}, trail)


def _network(network: Qcsp, m: Matrix) -> Qcsp:
    """The matrix as a network like the input, without its full pairs; a
    declared self constraint reads as the diagonal's EQ."""
    variables = network.variables
    edges = {
        (u, v): Relation(m[i][j])
        for i, u in enumerate(variables)
        for j, v in enumerate(variables)
        if i != j and m[i][j] != _FULL_MASK
    }
    selfs = {v: Relation(m[i][i]) for i, v in enumerate(variables) if v in network.selfs}
    return Qcsp(variables, edges, selfs)


def path_consistency(network: Qcsp) -> Optional[Qcsp]:
    """Close the network under the triangle rule.

    Repeatedly replaces C(i,j) with C(i,j) & compose(C(i,k), C(k,j)) until a
    fixed point.  Returns the refined network, each declared self
    constraint refined to EQ, or None when some edge (or an EQ-free self
    constraint) empties; None is the ordinary "inconsistent" answer, not
    an error.
    """
    closed = _closed_matrix(*_masks(network))
    return None if closed is None else _network(network, closed[0].m)


def masks_consistent(n: int, constraints: Sequence[Tuple[int, int, int]]) -> bool:
    """Decide a network given as masks: constraints (i, j, mask) over
    variables 0..n-1, read as in ``_closed_matrix``.  ``is_consistent`` and
    ``check_witness`` decide through here; the emptiness search keeps its
    own ``MaskMatrix`` closed as it goes and decides through
    ``MaskMatrix.consistent``, which branches the same way.

    Branches only on declared pairs, and only until each lies in T, the
    closure of the atoms and the universal relation: T lies in Ĥ8, where
    path consistency decides consistency (Renz & Nebel, AIJ 108, 1999).
    ``_scenario`` gives the argument.  Pairs no constraint names are never
    branched on."""
    closed = _closed_matrix(n, constraints)
    return closed is not None and _scenario(*closed, _IN_CLOSURE)


def is_consistent(network: Qcsp) -> bool:
    """Decide consistency: path consistency, then branching on the declared
    pairs outside T, as ``masks_consistent`` does."""
    return masks_consistent(*_masks(network))


def consistent_scenario(network: Qcsp) -> Optional[Qcsp]:
    """Return a consistent atomic refinement, complete over all pairs.

    The result fixes one atom for every ordered pair of variables of the
    input (missing pairs of the input count as full), and EQ for each
    declared self constraint, or None when the network is inconsistent.
    It branches on every pair i < j, not only the declared ones, so it
    does more work than ``is_consistent``.  No verdict path calls it:
    ``check_witness`` decides through ``masks_consistent``, the search
    through its ``MaskMatrix``, and only ``scene_from_witness`` builds a
    scenario.
    """
    closed = _closed_matrix(*_masks(network))
    if closed is None:
        return None
    matrix, _ = closed
    n = len(matrix.m)
    every_pair = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return _network(network, matrix.m) if _scenario(matrix, every_pair, _ATOMIC) else None
