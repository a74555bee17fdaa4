"""Geometric RCC8 oracle over grid-cell regions.

A region here is a nonempty set of unit cells of the integer grid, read as
the regular closed union of the corresponding closed unit squares in the
plane.  For this class every RCC8 atom is decidable by set arithmetic
alone: interiors meet iff the cell sets share a cell, closures meet iff
some cells coincide or are 8-adjacent, and a contained region is
tangential iff one of its cells has an 8-neighbour outside the container
(cells beyond any finite window count as outside).

The oracle knows nothing about relation algebra: it grounds atoms in
geometry so table errors elsewhere cannot leak in.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Set, Tuple

Cell = Tuple[int, int]
Region = FrozenSet[Cell]

_NEIGHBOURS = tuple(
    (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)
)


def closures_touch(x: Region, y: Region) -> bool:
    if x & y:
        return True
    return any(
        (cx + dx, cy + dy) in y for (cx, cy) in x for (dx, dy) in _NEIGHBOURS
    )


def tangential_inside(x: Region, y: Region) -> bool:
    """For x a subset of y: does x touch the complement of y?"""
    return any(
        (cx + dx, cy + dy) not in y for (cx, cy) in x for (dx, dy) in _NEIGHBOURS
    )


def atom_of(x: Region, y: Region) -> str:
    """The unique RCC8 atom holding between two cell regions."""
    if x == y:
        return "EQ"
    if not (x & y):
        return "EC" if closures_touch(x, y) else "DC"
    if x < y:
        return "TPP" if tangential_inside(x, y) else "NTPP"
    if y < x:
        return "TPPI" if tangential_inside(y, x) else "NTPPI"
    return "PO"


def rectangle(x1: int, y1: int, x2: int, y2: int) -> Region:
    return frozenset((x, y) for x in range(x1, x2 + 1) for y in range(y1, y2 + 1))


def all_rectangles(size: int) -> List[Region]:
    """Every axis-aligned rectangle inside a size-by-size window."""
    out = []
    for x1 in range(size):
        for x2 in range(x1, size):
            for y1 in range(size):
                for y2 in range(y1, size):
                    out.append(rectangle(x1, y1, x2, y2))
    return out


def random_region(rng: random.Random, size: int, max_rectangles: int = 2) -> Region:
    cells: Set[Cell] = set()
    for _ in range(rng.randint(1, max_rectangles)):
        x1 = rng.randrange(size)
        y1 = rng.randrange(size)
        x2 = rng.randrange(x1, size)
        y2 = rng.randrange(y1, size)
        cells |= rectangle(x1, y1, x2, y2)
    return frozenset(cells)


def rectangle_composition_join(first: str, second: str, size: int) -> Set[str]:
    """Atoms realizable as atom(x, z) over all rectangle triples (x, y, z)
    in a size-by-size window with atom(x, y) = first and atom(y, z) = second."""
    rects = all_rectangles(size)
    observed: Set[str] = set()
    for y in rects:
        ins = [x for x in rects if atom_of(x, y) == first]
        if not ins:
            continue
        outs = [z for z in rects if atom_of(y, z) == second]
        for x in ins:
            for z in outs:
                observed.add(atom_of(x, z))
    return observed


def sampled_composition_join(
    first: str, second: str, rng: random.Random, size: int, trials: int
) -> Set[str]:
    """Like rectangle_composition_join but over random unions of rectangles,
    which also cover disconnected regions."""
    observed: Set[str] = set()
    for _ in range(trials):
        x = random_region(rng, size)
        y = random_region(rng, size)
        z = random_region(rng, size)
        if atom_of(x, y) == first and atom_of(y, z) == second:
            observed.add(atom_of(x, z))
    return observed


def atoms_reachable_after_dc(rng: random.Random, size: int, trials: int) -> Set[str]:
    """Atoms a for which some triple has atom(x, y) = DC and atom(x, z) = a.

    Witnesses that composing DC with the full relation loses nothing: the
    middle region is unconstrained, so any atom between x and z survives as
    long as some y clears x entirely.
    """
    observed: Set[str] = set()
    singles = [frozenset({(cx, cy)}) for cx in range(size) for cy in range(size)]
    for _ in range(trials):
        x = random_region(rng, size)
        z = random_region(rng, size)
        if any(atom_of(x, y) == "DC" for y in singles):
            observed.add(atom_of(x, z))
        if len(observed) == 8:
            break
    return observed


def random_scenario_network(
    rng: random.Random, n_vars: int, size: int
) -> Dict[Tuple[int, int], str]:
    """A consistent-by-construction atomic network: realize n_vars random
    regions and read off their pairwise atoms.  Keys are ordered pairs."""
    regions = [random_region(rng, size) for _ in range(n_vars)]
    atoms: Dict[Tuple[int, int], str] = {}
    for i in range(n_vars):
        for j in range(n_vars):
            if i != j:
                atoms[(i, j)] = atom_of(regions[i], regions[j])
    return atoms
