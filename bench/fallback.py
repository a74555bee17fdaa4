"""Seeded generator that scales up ``corpus/fallback.aut``.

The root ``r`` first tries two alternatives that each carry a spatial
contradiction visible only to the global network check: a DC self pair on
``g`` and a TPP cycle over ``f1 f2 f3`` (the second needs path consistency
to refute).  Both lead into a chain ``s1 .. sn`` down the ``d1`` spine where
every state but the last offers ``c`` transitions, each with a different
EQ-admitting constraint between ``g`` and the ``d1`` child's ``g``.  The
search therefore completes and rejects ``c**(n-1)`` trees per contradictory
alternative, since the only check happens when the root completes.

In the non-empty variant a third root alternative, ``{A}`` with
``EQ(g, d2 g)`` and both children in the accepting sink ``t``, yields a
witness of height 2, so the witness post-check is negligible.  The empty
variant omits it.  Verdicts are known by construction.
"""

from __future__ import annotations

import random
from typing import List, Tuple

ATOMS = ("DC", "EC", "PO", "TPP", "NTPP", "TPPI", "NTPPI", "EQ")

DC_SELF_PAIR = "DC(g, g)"
TPP_CYCLE = "TPP(f1, f2) TPP(f2, f3) TPP(f3, f1)"

# (n, c) shapes that each take about a quarter of a second to decide on the
# baseline machine; instances cycle through them so every run sees the same
# mix.  Their costs are close, so the instance times form one cluster and
# the median does not sit on the edge between two: with (7, 2), which takes
# about 1.5 times as long, in place of (3, 13), resampling measured
# instance costs into 25 s runs spreads the median by 0.05 from seed to
# seed instead of 0.02.
SHAPES: Tuple[Tuple[int, int], ...] = ((5, 3), (4, 5), (3, 13))


def _eq_admitting(rng: random.Random) -> str:
    """EQ plus two other atoms: a fixed size keeps path-consistency work,
    and so instance cost, even across seeds."""
    others = rng.sample(ATOMS[:-1], 2)
    return "{" + ",".join(a for a in ATOMS if a in others or a == "EQ") + "}"


def _chain_choices(rng: random.Random, c: int) -> List[str]:
    relations: List[str] = []
    while len(relations) < c:
        rel = _eq_admitting(rng)
        if rel not in relations:
            relations.append(rel)
    return relations


def fallback_text(rng: random.Random, n: int, c: int, nonempty: bool) -> str:
    """One automaton in the DSL; states r, s1..sn, t; t is the accepting sink."""
    bad = [DC_SELF_PAIR, TPP_CYCLE]
    rng.shuffle(bad)
    root = [f"{{ L={{}}; X={{{x}}}; succ=(s1, t) }}" for x in bad]
    if nonempty:
        root.append("{ L={A}; X={EQ(g, d2 g)}; succ=(t, t) }")
    lines = [
        f"# fallback scaled to n={n}, c={c}: {'not-empty' if nonempty else 'empty'}",
        "nondet {",
        "  directions: d1 d2;",
        "  concepts: A;",
        "  features: g f1 f2 f3;",
        "  states: r " + " ".join(f"s{i}" for i in range(1, n + 1)) + " t;",
        "  initial: r;",
        "  accepting: t;",
        "  delta r -> " + "\n          | ".join(root) + ";",
    ]
    for i in range(1, n + 1):
        nxt = f"s{i + 1}" if i < n else "t"
        choices = _chain_choices(rng, c if i < n else 1)
        alts = [f"{{ L={{}}; X={{{rel}(g, d1 g)}}; succ=({nxt}, t) }}" for rel in choices]
        lines.append(f"  delta s{i} -> " + "\n          | ".join(alts) + ";")
    lines.append("  delta t -> { L={}; X={}; succ=(t, t) };")
    lines.append("}")
    return "\n".join(lines) + "\n"


def fallback_instance(rng: random.Random, index: int) -> Tuple[str, str]:
    """(DSL text, expected verdict) for the index-th instance of a stream."""
    n, c = SHAPES[index % len(SHAPES)]
    nonempty = rng.random() < 0.5
    return fallback_text(rng, n, c, nonempty), "not-empty" if nonempty else "empty"
