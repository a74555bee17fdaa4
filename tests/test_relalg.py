"""Relation algebra and constraint network tests.

The geometric grid oracle grounds the composition table in actual plane
regions; the transcribed table in oracle_networks cross-checks the
package's static data; the scenario searcher gives an independent
consistency verdict.
"""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_grid as og
import oracle_networks as on
from gen_random import network_from_choices, random_atomic_choices, random_mixed_network
from qsta import (
    ATOMS,
    EQ_RELATION,
    Qcsp,
    QcspBuilder,
    Relation,
    compose,
    consistent_scenario,
    converse,
    is_consistent,
    parse_relation,
    path_consistency,
)
from qsta import relalg

relations = st.sets(st.sampled_from(ATOMS)).map(lambda s: Relation.of(*s))

# The scenarios consistent_scenario finds for the mixed networks below.
MIXED_SCENARIOS_SHA256 = "375e9f7c2bf28901a3c8c0276b7498bc98342ad0c7ef2f7f22aef239325161a3"


def atomic(name):
    return Relation.of(name)


# -- relations ----------------------------------------------------------------


def test_atom_universe():
    assert ATOMS == ("DC", "EC", "PO", "TPP", "NTPP", "TPPI", "NTPPI", "EQ")
    assert len(Relation.full()) == 8
    assert Relation.empty().is_empty()
    assert EQ_RELATION == Relation.of("EQ")


def test_relation_set_operations():
    r = Relation.of("TPP", "DC")
    assert "TPP" in r and "NTPP" not in r
    assert sorted(r) == ["DC", "TPP"]
    assert (r & Relation.of("TPP", "EQ")) == Relation.of("TPP")
    assert (r | Relation.of("EQ")) == Relation.of("DC", "TPP", "EQ")
    assert r.complement() | r == Relation.full()
    assert r.issubset(Relation.full())
    assert not Relation.full().issubset(r)
    assert atomic("PO").is_atomic()
    assert not r.is_atomic()


def test_parse_relation_forms():
    assert parse_relation("tpp") == atomic("TPP")
    assert parse_relation("{TPP,NTPP}") == Relation.of("TPP", "NTPP")
    assert parse_relation("{ec, Dc}") == Relation.of("DC", "EC")
    with pytest.raises(ValueError):
        parse_relation("touching")
    with pytest.raises(ValueError):
        parse_relation("{}")


def test_relation_rendering_round_trip():
    """For all 255 non-empty masks, str gives the atoms in ATOMS order,
    braced unless there is one, and parse_relation reads it back."""
    for mask in range(1, 256):
        names = [a for i, a in enumerate(ATOMS) if mask >> i & 1]
        rel = Relation(mask)
        assert rel == Relation.of(*names) and rel.atoms == tuple(names)
        assert str(rel) == (names[0] if len(names) == 1 else "{" + ",".join(names) + "}")
        assert parse_relation(str(rel)) == rel
    assert str(Relation.empty()) == "{}"


# -- converse and composition -------------------------------------------------


def test_converse_spot_values():
    assert converse(atomic("EQ")) == atomic("EQ")
    assert converse(Relation.of("TPP", "DC")) == Relation.of("TPPI", "DC")
    assert converse(atomic("NTPPI")) == atomic("NTPP")


def test_converse_is_involution_on_all_relations():
    for mask in range(256):
        rel = Relation.of(*(a for i, a in enumerate(ATOMS) if mask >> i & 1))
        assert converse(converse(rel)) == rel
        assert set(converse(rel)) == {on.ORACLE_CONVERSE[a] for a in rel}


def test_composition_identity_laws():
    for a in ATOMS:
        assert compose(EQ_RELATION, atomic(a)) == atomic(a)
        assert compose(atomic(a), EQ_RELATION) == atomic(a)


def test_eq_is_a_right_identity_and_lies_in_every_relation_times_its_converse():
    """For every non-empty r, r o EQ = r and r o r⁻¹ holds EQ, by the
    package's tables and by oracle_networks' transcription: a triangle
    through the solver's EQ diagonal never changes a relation."""
    for mask in range(1, 256):
        r = Relation(mask)
        assert compose(r, EQ_RELATION) == r, r
        assert "EQ" in compose(r, converse(r)), r
        right = frozenset().union(*(on.ORACLE_COMPOSITION[(a, "EQ")] for a in r))
        back = frozenset().union(*(on.ORACLE_COMPOSITION[(a, on.ORACLE_CONVERSE[b])] for a in r for b in r))
        assert right == frozenset(r) and "EQ" in back, r


def test_peircean_law_all_atom_pairs():
    for a, b in itertools.product(ATOMS, repeat=2):
        left = converse(compose(atomic(a), atomic(b)))
        right = compose(converse(atomic(b)), converse(atomic(a)))
        assert left == right, (a, b)


def test_composition_matches_independent_transcription():
    for a, b in itertools.product(ATOMS, repeat=2):
        got = frozenset(compose(atomic(a), atomic(b)))
        assert got == on.ORACLE_COMPOSITION[(a, b)], (a, b)


def test_compose_tpp_tpp_frozen():
    assert compose(atomic("TPP"), atomic("TPP")) == Relation.of("TPP", "NTPP")


def test_compose_distributes_over_union():
    """Every pair of relations composes to the union of the independent
    transcription's entries over their atom pairs."""
    rels = [
        Relation.of(*(a for i, a in enumerate(ATOMS) if mask >> i & 1))
        for mask in range(256)
    ]
    for r in rels:
        for s in rels:
            expected = set()
            for a in r:
                for b in s:
                    expected |= on.ORACLE_COMPOSITION[(a, b)]
            assert set(compose(r, s)) == expected, (r, s)


def test_compose_dc_full_is_full():
    assert compose(atomic("DC"), Relation.full()) == Relation.full()


def _oracle_closure_of_atoms():
    """The closure of the atoms and the universal relation under converse,
    intersection and composition, as atom sets, over oracle_networks'
    tables; the empty relation left out."""
    def compose(r, s):
        return frozenset().union(*(on.ORACLE_COMPOSITION[(a, b)] for a in r for b in s))

    members = {frozenset((a,)) for a in on.ATOM_NAMES} | {frozenset(on.ATOM_NAMES)}
    while True:
        found = {frozenset(on.ORACLE_CONVERSE[a] for a in r) for r in members}
        for r, s in itertools.product(members, repeat=2):
            found |= {r & s, compose(r, s)}
        found.discard(frozenset())
        if found <= members:
            return members
        members |= found


CLOSURE_OF_ATOMS = [frozenset(Relation(mask)) for mask in sorted(relalg._CLOSURE_OF_ATOMS)]


def test_closure_of_atoms_is_the_closure():
    """T, where a yes/no decision stops branching, has 37 members, holds
    the atoms and the universal relation, is closed under converse,
    intersection and composition (read from oracle_networks' tables), and
    equals the closure derived from those tables; the done tables match."""
    closure = set(CLOSURE_OF_ATOMS)
    assert len(closure) == len(CLOSURE_OF_ATOMS) == 37
    assert frozenset(on.ATOM_NAMES) in closure
    assert all(frozenset((a,)) in closure for a in on.ATOM_NAMES)
    for r in closure:
        assert frozenset(on.ORACLE_CONVERSE[a] for a in r) in closure, r
    for r, s in itertools.product(closure, repeat=2):
        assert not r & s or r & s in closure, (r, s)
        composed = frozenset().union(*(on.ORACLE_COMPOSITION[(a, b)] for a in r for b in s))
        assert composed in closure, (r, s)
    assert closure == _oracle_closure_of_atoms()
    for mask in range(256):
        assert relalg._IN_CLOSURE[mask] == (frozenset(Relation(mask)) in closure)
        assert relalg._ATOMIC[mask] == Relation(mask).is_atomic()


# -- geometric grounding ------------------------------------------------------


def test_grid_witnesses_tpp_tpp_join():
    """Both table atoms are realizable by actual regions and nothing else
    shows up, exhaustively over rectangles and sampled over cell unions."""
    assert og.rectangle_composition_join("TPP", "TPP", 4) == {"TPP", "NTPP"}
    sampled = og.sampled_composition_join(
        "TPP", "TPP", random.Random(2024), 6, 20_000
    )
    assert sampled == {"TPP", "NTPP"}


def test_grid_witnesses_dc_then_anything():
    observed = og.atoms_reachable_after_dc(random.Random(5), 6, 4_000)
    assert observed == set(ATOMS)


def test_grid_composition_soundness_random_triples():
    """Every observed atom(x, z) lies inside the table entry for the
    observed atom(x, y) and atom(y, z)."""
    rng = random.Random(31)
    for _ in range(2_000):
        x = og.random_region(rng, 6)
        y = og.random_region(rng, 6)
        z = og.random_region(rng, 6)
        entry = compose(atomic(og.atom_of(x, y)), atomic(og.atom_of(y, z)))
        assert og.atom_of(x, z) in entry


def test_grid_converse_soundness_random_pairs():
    rng = random.Random(32)
    for _ in range(2_000):
        x = og.random_region(rng, 6)
        y = og.random_region(rng, 6)
        assert converse(atomic(og.atom_of(x, y))) == atomic(og.atom_of(y, x))


# -- networks -----------------------------------------------------------------


def _network(*edges):
    builder = QcspBuilder()
    for u, v, text in edges:
        builder.add(u, v, parse_relation(text))
    return builder.build()


def test_network_converse_closed_and_total():
    n = _network(("a", "b", "TPP"))
    assert n.relation("a", "b") == atomic("TPP")
    assert n.relation("b", "a") == atomic("TPPI")
    with pytest.raises(ValueError):
        n.relation("a", "a")
    # repeated pairs intersect, a reversed pair through its converse
    n = _network(
        ("a", "b", "{TPP,EQ}"),
        ("b", "a", "{TPPI,DC}"),
        ("a", "a", "{EQ,DC}"),
        ("a", "a", "{EQ,PO}"),
    )
    assert n.relation("a", "b") == atomic("TPP")
    assert n.relation("b", "a") == atomic("TPPI")
    assert n.self_relation("a") == atomic("EQ")


def test_network_self_edges_require_eq():
    builder = QcspBuilder()
    builder.add("a", "a", parse_relation("{EQ,DC}"))
    n = builder.build()
    assert n.self_relation("a") == Relation.of("DC", "EQ")
    assert is_consistent(n)
    builder2 = QcspBuilder()
    builder2.add("a", "a", parse_relation("DC"))
    assert not is_consistent(builder2.build())


def _eq_diagonal(matrix):
    return all(row[i] == EQ_RELATION.mask for i, row in enumerate(matrix.m))


def _added_one_at_a_time(constraints):
    """A MaskMatrix's verdict on the constraints, added in order and closed
    after each, and whether the add that refuted them, if one did, revised
    the matrix before a relation emptied.  Undoing the matrix to each
    earlier mark in turn must restore the matrix of that mark bit for
    bit.  Every diagonal entry is EQ after every add and every undo, and
    consistent() leaves the matrix and its trail as it found them."""
    incremental = relalg.MaskMatrix()
    marks = []
    verdict = emptied_mid_closure = False
    for i, j, mask in constraints:
        marks.append((len(incremental.trail), [row[:] for row in incremental.m]))
        added = incremental.add(i, j, mask)
        assert _eq_diagonal(incremental)
        if not added:
            revised = [entry for entry in incremental.trail[marks[-1][0]:] if entry is not None]
            emptied_mid_closure = len(revised) > 1
            break
    else:
        before = [row[:] for row in incremental.m], incremental.trail[:]
        verdict = incremental.consistent(constraints)
        assert (incremental.m, incremental.trail) == before
    for mark, matrix in reversed(marks):
        incremental.undo(mark)
        assert incremental.m == matrix and _eq_diagonal(incremental)
    return verdict, emptied_mid_closure


def test_self_pairs_anywhere_in_the_constraint_list_agree_with_oracle():
    """Self pairs, with and without EQ, at random positions of a random
    network's constraint list: a self pair without EQ refutes the network
    wherever it sits, and one with EQ changes nothing.  masks_consistent
    and path_consistency agree with the brute-force oracle, and so does a
    MaskMatrix that adds the constraints in list order, closing after
    each.  Undoing it to each earlier mark in turn restores the matrix of
    that mark bit for bit, also after an add that emptied a relation part
    way through its closure."""
    rng = random.Random(5150)
    eq_free = [mask for mask in range(1, 256) if not mask & EQ_RELATION.mask]
    eq_admitting = [mask for mask in range(1, 256) if mask & EQ_RELATION.mask]
    verdicts = {"eq_free": set(), "eq_admitting": set()}
    for _ in range(300):
        n_vars = rng.randint(2, 6)
        network, allowed = random_mixed_network(rng, n_vars)
        constraints = [(i, j, Relation.of(*atoms).mask) for (i, j), atoms in allowed.items()]
        kind = rng.choice(("eq_free", "eq_admitting"))
        selfs = {}
        for count in range(rng.randint(1, 3)):
            v = rng.randrange(n_vars)
            mask = rng.choice(eq_free if kind == "eq_free" and count == 0 else eq_admitting)
            constraints.insert(rng.randint(0, len(constraints)), (v, v, mask))
            selfs[v] = selfs.get(v, frozenset(ATOMS)) & frozenset(Relation(mask))
        want = on.oracle_consistent(n_vars, allowed, selfs=selfs)
        got = relalg.masks_consistent(n_vars, constraints)
        assert got == want, (allowed, constraints)
        verdicts[kind].add(got)
        assert _added_one_at_a_time(constraints)[0] == want, (allowed, constraints)
        builder = QcspBuilder(range(n_vars))
        for i, j, mask in constraints:
            builder.add(i, j, Relation(mask))
        closed = path_consistency(builder.build())
        if kind == "eq_free":
            assert closed is None and not want
        else:
            assert (closed is None) == (path_consistency(network) is None)
            assert closed is not None or not want
    assert verdicts == {"eq_free": {False}, "eq_admitting": {True, False}}
    # Closing a closed matrix from one narrowed pair never empties a
    # relation at the first revision, so the networks above refute at a
    # self pair or as a pair is intersected.  Here the last add revises
    # the matrix and then empties a relation.
    allowed = {
        (1, 4): "{EC,TPPI}", (2, 4): "{EC,TPP}", (0, 2): "{NTPP,NTPPI}",
        (0, 1): "{DC,EC,NTPP,EQ}", (0, 4): "{PO,TPP,NTPP,NTPPI,EQ}", (1, 2): "{NTPP,EQ}",
    }
    constraints = [(i, j, parse_relation(text).mask) for (i, j), text in allowed.items()]
    assert _added_one_at_a_time(constraints) == (False, True)
    assert not on.oracle_consistent(5, {pair: frozenset(parse_relation(text)) for pair, text in allowed.items()})


@pytest.mark.parametrize("solve", [consistent_scenario, path_consistency])
def test_scenario_and_closure_read_self_constraints_as_eq(solve):
    """A self constraint that admits EQ holds only as EQ, so the scenario,
    whose relations are all atomic, and the closure report it as EQ, not
    as the declared relation; one without EQ refutes the network."""
    network = _network(("a", "a", "{DC,EQ}"), ("a", "b", "{TPP,EQ}"), ("b", "b", "{PO,EQ,NTPP}"))
    solved = solve(network)
    assert solved is not None
    assert dict(solved.selfs) == {"a": EQ_RELATION, "b": EQ_RELATION}
    assert solved.relation("a", "b").issubset(Relation.of("TPP", "EQ"))
    assert solve(_network(("a", "a", "{DC,PO}"), ("a", "b", "TPP"))) is None


def test_path_consistency_empty_edge():
    builder = QcspBuilder()
    builder.add("a", "b", atomic("DC") & atomic("NTPP"))
    assert path_consistency(builder.build()) is None


def test_path_consistency_eq_chain_dc_clash():
    n = _network(("a", "b", "EQ"), ("b", "c", "EQ"), ("a", "c", "DC"))
    assert path_consistency(n) is None
    assert not is_consistent(n)


def test_path_consistency_all_full_is_fixpoint():
    builder = QcspBuilder()
    for v in "abcd":
        builder.add_variable(v)
    n = builder.build()
    out = path_consistency(n)
    assert out is not None
    for u, v in itertools.permutations("abcd", 2):
        assert out.relation(u, v) == Relation.full()


def test_path_consistency_tightens_triangle():
    n = _network(("a", "b", "TPP"), ("b", "c", "TPP"))
    out = path_consistency(n)
    assert out is not None
    assert out.relation("a", "c") == Relation.of("TPP", "NTPP")


def test_is_consistent_examples():
    assert is_consistent(_network(("a", "b", "{TPP,EQ}"), ("b", "c", "{DC,EC}")))
    atomic_pc = _network(("a", "b", "TPP"), ("b", "c", "NTPP"), ("a", "c", "NTPP"))
    assert is_consistent(atomic_pc)


def test_consistent_scenario_refines_and_stays_consistent():
    n = _network(("a", "b", "{TPP,EQ}"), ("b", "c", "{DC,EC}"))
    scenario = consistent_scenario(n)
    assert scenario is not None
    for (u, v), rel in scenario.edges.items():
        assert rel.issubset(n.relation(u, v))
        assert rel.is_atomic()
    assert is_consistent(scenario)
    assert consistent_scenario(_network(("a", "b", "EQ"), ("b", "c", "EQ"), ("a", "c", "DC"))) is None


def test_is_consistent_agrees_with_oracle_on_atomic_networks():
    rng = random.Random(1234)
    for i in range(120):
        n_vars = rng.randint(2, 6)
        if i % 3 == 0:
            scenario = og.random_scenario_network(rng, n_vars, 6)
            choices = {(a, b): atom for (a, b), atom in scenario.items() if a < b}
        else:
            choices = random_atomic_choices(rng, n_vars)
        got = is_consistent(network_from_choices(choices))
        want = on.oracle_consistent(
            n_vars, {p: frozenset({a}) for p, a in choices.items()}
        )
        assert got == want, choices


def test_grid_scenarios_are_always_consistent():
    rng = random.Random(55)
    for _ in range(40):
        scenario = og.random_scenario_network(rng, rng.randint(2, 5), 6)
        choices = {(a, b): atom for (a, b), atom in scenario.items() if a < b}
        assert is_consistent(network_from_choices(choices))


@settings(max_examples=60, deadline=None)
@given(relations, relations)
def test_peircean_law_lifts_to_unions(r, s):
    assert converse(compose(r, s)) == compose(converse(s), converse(r))


@settings(max_examples=60, deadline=None)
@given(relations)
def test_relation_complement_is_involution(r):
    assert r.complement().complement() == r


def test_mixed_networks_agree_with_oracle():
    """Non-atomic, partially constrained networks: the verdict matches the
    brute-force oracle, every scenario is an atomic, allowed, consistent
    refinement, and the scenarios found are pinned by hash."""
    rng = random.Random(4321)
    rendered = []
    for _ in range(200):
        n_vars = rng.randint(2, 6)
        network, allowed = random_mixed_network(rng, n_vars)
        want = on.oracle_consistent(n_vars, allowed)
        assert is_consistent(network) == want, allowed
        scenario = consistent_scenario(network)
        assert (scenario is not None) == want, allowed
        if scenario is None:
            rendered.append("-")
            continue
        atoms = {}
        for i, j in itertools.combinations(range(n_vars), 2):
            rel = scenario.relation(i, j)
            assert rel.is_atomic() and rel.issubset(network.relation(i, j))
            atoms[(i, j)] = str(rel)
        assert on.oracle_consistent_atoms(n_vars, atoms), allowed
        rendered.append(" ".join(atoms.values()))
    digest = hashlib.sha256("\n".join(rendered).encode()).hexdigest()
    assert digest == MIXED_SCENARIOS_SHA256


def test_sparse_networks_agree_with_oracle():
    """is_consistent branches only on declared pairs and leaves the others
    to path consistency; on networks with half their pairs undeclared it
    still matches the brute-force oracle."""
    rng = random.Random(2024)
    inconsistent = 0
    for _ in range(400):
        n_vars = rng.randint(3, 5)
        builder = QcspBuilder(range(n_vars))
        allowed = {}
        for pair in itertools.combinations(range(n_vars), 2):
            if rng.random() < 0.5:
                rel = Relation.of(*rng.sample(ATOMS, rng.randint(1, 3)))
                builder.add(*pair, rel)
                allowed[pair] = frozenset(rel)
        want = on.oracle_consistent(n_vars, allowed)
        assert is_consistent(builder.build()) == want, allowed
        inconsistent += not want
    assert inconsistent >= 20


def test_branching_refutes_a_path_consistent_network():
    """Path consistency leaves this inconsistent network non-empty, so
    is_consistent must branch on its declared pairs to refute it (pair
    (1, 2) is undeclared).  Found by random search: about one dense
    network of 4-5 variables in 90 000 is like it."""
    allowed = {
        (0, 1): ("EC", "PO", "TPP", "TPPI"),
        (0, 2): ("DC", "EQ", "NTPPI"),
        (0, 3): ("EC", "NTPPI"),
        (0, 4): ("EQ", "NTPP", "NTPPI", "TPP"),
        (1, 3): ("EC", "EQ", "TPP"),
        (1, 4): ("EC", "EQ", "NTPP"),
        (2, 3): ("NTPPI", "PO"),
        (2, 4): ("DC", "EQ", "NTPPI", "TPPI"),
        (3, 4): ("NTPP", "NTPPI"),
    }
    builder = QcspBuilder(range(5))
    for pair, atoms in allowed.items():
        builder.add(*pair, Relation.of(*atoms))
    network = builder.build()
    assert not on.oracle_consistent(5, {p: frozenset(a) for p, a in allowed.items()})
    assert path_consistency(network) is not None
    assert not is_consistent(network)
    assert consistent_scenario(network) is None


def test_is_consistent_closes_once_per_declared_pair(monkeypatch):
    """{DC,EC} between consecutive variables of a chain of 12: is_consistent
    never branches on the 55 undeclared pairs (nor, as {DC,EC} lies in T,
    on the 11 declared ones), while consistent_scenario fixes all 66."""
    builder = QcspBuilder()
    for u in range(11):
        builder.add(u, u + 1, Relation.of("DC", "EC"))
    network = builder.build()
    calls = []
    close = relalg._close

    def counted_close(m, queue, trail=None):
        calls.append(queue)
        return close(m, queue, trail)

    monkeypatch.setattr(relalg, "_close", counted_close)
    assert is_consistent(network)
    assert len(calls) <= 11 + 1
    calls.clear()
    assert consistent_scenario(network) is not None
    assert len(calls) == 66 + 1


def test_is_consistent_agrees_with_oracle_inside_and_outside_the_closure(monkeypatch):
    """Networks whose declared relations all lie in T are decided by path
    consistency alone, with no branch; networks over relations of at most
    three atoms outside T still branch.  Both kinds match the brute-force
    oracle, with both verdicts."""
    rng = random.Random(2718)
    outside = [
        frozenset(Relation(mask))
        for mask in range(1, 256)
        if mask not in relalg._CLOSURE_OF_ATOMS and len(Relation(mask)) <= 3
    ]
    close = relalg._close
    closes = []

    def counted_close(m, queue, trail=None):
        closes.append(queue)
        return close(m, queue, trail)

    monkeypatch.setattr(relalg, "_close", counted_close)
    verdicts = {"inside": set(), "outside": set()}
    branched = 0
    for kind, pool in (("inside", CLOSURE_OF_ATOMS), ("outside", outside)):
        for _ in range(300):
            n_vars = rng.randint(3, 7)
            builder = QcspBuilder(range(n_vars))
            allowed = {}
            for pair in itertools.combinations(range(n_vars), 2):
                if rng.random() < 0.8:
                    atoms = rng.choice(pool)
                    builder.add(*pair, Relation.of(*atoms))
                    allowed[pair] = atoms
            closes.clear()
            got = is_consistent(builder.build())
            assert got == on.oracle_consistent(n_vars, allowed), allowed
            verdicts[kind].add(got)
            if kind == "inside":
                assert len(closes) <= 1, allowed
            else:
                branched += len(closes) > 1
    assert verdicts == {"inside": {True, False}, "outside": {True, False}}
    assert branched >= 100


def _oracle_closure(n_vars, allowed):
    """The greatest path-consistent refinement, by sweeping every triangle
    until nothing changes, over oracle_networks' tables: a dict of
    ordered pairs to atom sets, or None when a relation empties."""
    memo = {}

    def compose(r, s):
        if (r, s) not in memo:
            memo[(r, s)] = frozenset().union(
                *(on.ORACLE_COMPOSITION[(a, b)] for a in r for b in s)
            )
        return memo[(r, s)]

    def converse(r):
        return frozenset(on.ORACLE_CONVERSE[a] for a in r)

    rel = dict.fromkeys(itertools.permutations(range(n_vars), 2), frozenset(on.ATOM_NAMES))
    for (i, j), atoms in allowed.items():
        rel[(i, j)], rel[(j, i)] = atoms, converse(atoms)
    changed = True
    while changed:
        changed = False
        for i, k, j in itertools.permutations(range(n_vars), 3):
            new = rel[(i, j)] & compose(rel[(i, k)], rel[(k, j)])
            if new != rel[(i, j)]:
                if not new:
                    return None
                rel[(i, j)], rel[(j, i)] = new, converse(new)
                changed = True
    return rel


def _planted_network(rng, n_vars):
    """Grid regions' scenario with 30% of the pairs dropped and the rest
    widened by two atoms: consistent, with closures to compute."""
    atoms = og.random_scenario_network(rng, n_vars, 6)
    pairs = list(itertools.combinations(range(n_vars), 2))
    dropped = set(rng.sample(pairs, round(0.3 * len(pairs))))
    builder = QcspBuilder(range(n_vars))
    allowed = {}
    for pair in pairs:
        if pair in dropped:
            continue
        atom = atoms[pair]
        rel = Relation.of(atom, *rng.sample([a for a in ATOMS if a != atom], 2))
        builder.add(*pair, rel)
        allowed[pair] = frozenset(rel)
    return builder.build(), allowed


def test_path_consistency_matches_triangle_fixpoint():
    """path_consistency equals a naive fixpoint over the transcribed
    tables on random mixed networks and on planted ones of 8-12 variables."""
    rng = random.Random(4321)
    cases = []
    for _ in range(200):
        n_vars = rng.randint(2, 6)
        cases.append((n_vars, *random_mixed_network(rng, n_vars)))
    planted_rng = random.Random(8)
    for n_vars in (8, 10, 12) * 5:
        cases.append((n_vars, *_planted_network(planted_rng, n_vars)))
    closed = 0
    for n_vars, network, allowed in cases:
        want = _oracle_closure(n_vars, allowed)
        got = path_consistency(network)
        assert (got is None) == (want is None), allowed
        if got is None:
            continue
        closed += 1
        for i, j in itertools.permutations(range(n_vars), 2):
            assert frozenset(got.relation(i, j)) == want[(i, j)], (allowed, i, j)
    assert closed >= 15


@pytest.mark.parametrize("solve", [is_consistent, consistent_scenario, path_consistency])
@pytest.mark.parametrize(
    "edges, selfs, named",
    [
        ({(0, 1): Relation.of("DC"), (1, 0): Relation.of("DC")}, {}, r"edge \(0, 1\)"),
        ({}, {2: EQ_RELATION}, "self constraint on 2"),
    ],
    ids=["edge", "self"],
)
def test_network_naming_unknown_variables_is_rejected(solve, edges, selfs, named):
    with pytest.raises(ValueError, match=named):
        solve(Qcsp((0,), edges, selfs))


def test_search_deeper_than_the_recursion_limit():
    """{DC,EC} on every pair of 46 variables: consistent_scenario branches
    on all 1 035 pairs, one level each, past Python's default recursion
    limit of 1 000 (is_consistent needs no branch, as {DC,EC} lies in T)."""
    builder = QcspBuilder()
    for u, v in itertools.combinations(range(46), 2):
        builder.add(u, v, Relation.of("DC", "EC"))
    network = builder.build()
    assert is_consistent(network)
    scenario = consistent_scenario(network)
    assert scenario is not None
    for u, v in itertools.permutations(range(46), 2):
        assert scenario.relation(u, v).is_atomic()


def test_monotonicity_of_consistency():
    """Loosening edges never destroys consistency."""
    rng = random.Random(88)
    for _ in range(40):
        n_vars = rng.randint(2, 5)
        choices = random_atomic_choices(rng, n_vars)
        tight = network_from_choices(choices)
        if not is_consistent(tight):
            continue
        builder = QcspBuilder()
        for (i, j), atom in choices.items():
            widened = Relation.of(atom, rng.choice(ATOMS))
            builder.add(i, j, widened)
        assert is_consistent(builder.build())
