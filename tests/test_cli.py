"""Command line behavior: subcommands, exit codes, files and env caps."""

import errno
import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from gen_random import direct_reading, random_nondet_shaped
from qsta import AlternatingAutomaton, decide, load_automaton, simulate
from qsta import emptiness as emp
from qsta.cli import _witness_text, main

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

NONEMPTY = [
    "self_loop",
    "eq_loop",
    "constraints4",
    "fallback",
    "alt_univ",
    "alt_choice",
    "alt_spatial",
    "chain3",
]
EMPTY = ["contradictory", "no_accept", "part_cycle", "nonancestor_cycle"]

# sha256 of the witness JSON and of the DOT that `emptiness --witness --dot`
# writes for each non-empty corpus file; refactors must keep these bytes.
GOLDEN_WITNESS_SHA256 = {
    "alt_choice": (
        "2293a880342e46ade7b11c18bccc5ba93dfd01b2ed31b6a955d9364759973713",
        "92ebff4f80daf6d0f75f1e9631cd830d7ec776e101c4429f4a9be823b7b09487",
    ),
    "alt_spatial": (
        "cead64f0d0b539042f3d5dbc7fd8bd012b6635ed4f74ccbd4157494f3db76023",
        "c79632a6975e77a2f9644e854b30eefdc5bef42af5bf59087f7acb6dd6cdd2ca",
    ),
    "alt_univ": (
        "29e3610cfb023af2d9adbc0871ee9a3029137fb235aaf94bb6ffe35d61d9d6d5",
        "c79632a6975e77a2f9644e854b30eefdc5bef42af5bf59087f7acb6dd6cdd2ca",
    ),
    "chain3": (
        "22dddeb487ddfc0eff78daeaf8a722e94d9da368771a9918a36fdef3ce0097f2",
        "dfd06cb021cb861ad53e36ad741c2d3091410a6c14d306cf439785c58dbc9905",
    ),
    "constraints4": (
        "2a9c6cba8f2970e0cf975c9fd63850f7847d52884fc6feefd75c72b37cbdc66b",
        "c56c24bf3e927de6df6db85f5b56c9a194aeb79d860dccbfddb5686f4c327bf9",
    ),
    "eq_loop": (
        "b6551f8ecd6c6d54d563c8eb7af80532f4b80ce7ddd5ae3c76dc73059e92d3f1",
        "3b812d6f727fdc529fdf0404113bd477ff3bcef37fe7cb317c94acbc5db97937",
    ),
    "fallback": (
        "a9d1c9958c8b04ffb8ffbcf3712704ae61ff3b19971da100c291faf95cd91e58",
        "67283f6252f57c15df761298463efd3e1394e7ead3e31b6417a8c61154160d42",
    ),
    "self_loop": (
        "0079055ab444c6c7b28e4e92c0e6a515e4511692c02eaede336100df47ac157a",
        "9f9f24433281e2f3d3821f1a4429a243a7534fd2c0c366a5fbe6ab13576561f8",
    ),
}


def corpus(name):
    return str(CORPUS / f"{name}.aut")


def fail_writes_to(path, monkeypatch):
    """Make ``qsta.cli``'s write to ``path`` fail part way, as on a full
    disk: the file opens and gets its first ten characters."""
    real_open = open

    class Full:
        def __init__(self, file):
            self.file = file

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

        def write(self, text):
            self.file.write(text[:10])
            self.file.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def full_open(name, *args, **kwargs):
        file = real_open(name, *args, **kwargs)
        return Full(file) if name == str(path) else file

    monkeypatch.setattr("qsta.cli.open", full_open, raising=False)


# ---------------------------------------------------------------------------
# validate


def test_validate_clean_file_exits_zero(capsys):
    assert main(["validate", corpus("self_loop")]) == 0
    assert capsys.readouterr().out == ""


def test_validate_reports_defects_and_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.aut"
    bad.write_text(
        "nondet {\n  directions: d1;\n  concepts: ;\n  features: g;\n"
        "  states: q0;\n  initial: q9;\n  accepting: q0;\n"
        "  delta q0 -> { L={}; X={}; succ=(q0) };\n}\n"
    )
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "initial: unknown state 'q9'" in out


def test_validate_syntax_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.aut"
    bad.write_text("nondet { directions d1; }")
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_two(capsys):
    assert main(["validate", "/nonexistent/x.aut"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_output_and_reports_bound(tmp_path, capsys):
    out_file = tmp_path / "product.aut"
    assert main(["simulate", corpus("alt_univ"), "-o", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "states:" in out and "bound:" in out
    # one live state from one accepting alternating state: bound 2^1*3^0+1
    assert "bound: 3" in out
    text = out_file.read_text()
    assert text.startswith("nondet {")
    assert main(["validate", str(out_file)]) == 0


def test_simulate_reports_an_ill_formed_automaton(tmp_path, capsys):
    bad = tmp_path / "bad.aut"
    bad.write_text(
        "alternating {\n  directions: d1;\n  concepts: ;\n  features: g;\n"
        "  states: q0;\n  initial: q0;\n  accepting: q0;\n"
        "  delta q0 -> <d1:q9>;\n}\n"
    )
    out_file = tmp_path / "product.aut"
    assert main(["simulate", str(bad), "-o", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) >= 2
    assert lines[0].startswith(f"{bad}: ") and "q9" in lines[0]
    assert lines[-1] == f"error: {bad}: automaton is not well formed"
    assert not out_file.exists()


def test_simulate_removes_its_output_when_the_write_fails(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "product.aut"
    fail_writes_to(out_file, monkeypatch)
    assert main(["simulate", corpus("alt_univ"), "-o", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 28] No space left on device\n"
    assert not out_file.exists()


def test_simulate_rejects_nondet_input(capsys):
    assert main(["simulate", corpus("self_loop"), "-o", "/dev/null"]) == 2
    assert "alternating" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# emptiness


def test_emptiness_nonempty_prints_exact_verdict(capsys):
    assert main(["emptiness", corpus("self_loop")]) == 0
    assert capsys.readouterr().out == "not-empty\n"


def test_emptiness_empty_prints_exact_verdict(capsys):
    assert main(["emptiness", corpus("contradictory")]) == 1
    assert capsys.readouterr().out == "empty\n"


def test_emptiness_verdicts_across_corpus(capsys):
    for name in NONEMPTY:
        assert main(["emptiness", corpus(name)]) == 0, name
        assert capsys.readouterr().out == "not-empty\n"
    for name in EMPTY:
        assert main(["emptiness", corpus(name)]) == 1, name
        assert capsys.readouterr().out == "empty\n"


def test_emptiness_accepts_alternating_input(capsys):
    assert main(["emptiness", corpus("alt_spatial")]) == 0
    assert capsys.readouterr().out == "not-empty\n"


def test_emptiness_writes_witness_and_dot(tmp_path, capsys):
    w = tmp_path / "w.json"
    d = tmp_path / "w.dot"
    assert main(
        ["emptiness", corpus("eq_loop"), "--witness", str(w), "--dot", str(d)]
    ) == 0
    capsys.readouterr()
    payload = json.loads(w.read_text())
    assert payload["format"] == "finite-tree-model"
    assert payload["directions"] == ["d1", "d2"]
    assert d.read_text().startswith("digraph")


def test_emptiness_witness_and_dot_bytes_are_pinned(tmp_path, capsys):
    assert sorted(GOLDEN_WITNESS_SHA256) == sorted(NONEMPTY)
    for name, pinned in GOLDEN_WITNESS_SHA256.items():
        w = tmp_path / f"{name}.json"
        d = tmp_path / f"{name}.dot"
        assert main(["emptiness", corpus(name), "--witness", str(w), "--dot", str(d)]) == 0
        capsys.readouterr()
        got = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in (w, d))
        assert got == pinned, name


def test_emptiness_crash_exits_two(tmp_path, capsys):
    # nesting past the parser's fixed limit is a syntax error with a position
    deep = tmp_path / "deep.aut"
    deep.write_text(
        "alternating {\n  directions: d1;\n  concepts: A;\n  features: g;\n"
        "  states: q0;\n  initial: q0;\n  accepting: q0;\n"
        "  delta q0 -> " + "(" * 3000 + "A" + ")" * 3000 + ";\n}\n"
    )
    assert main(["emptiness", str(deep)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 8, column 115: formula nested deeper than 100 levels\n"
    )


@pytest.mark.parametrize("unwritable", ["--witness", "--dot"])
def test_emptiness_prints_no_verdict_when_a_file_cannot_be_written(unwritable, tmp_path, capsys):
    # the verdict is printed only once both files are written; a failed
    # write exits 2 with nothing on stdout and leaves neither file behind
    paths = {"--witness": tmp_path / "w.json", "--dot": tmp_path / "w.dot"}
    paths[unwritable] = tmp_path / "missing" / "out"
    argv = ["emptiness", corpus("chain3")]
    for flag, path in paths.items():
        argv += [flag, str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not any(path.exists() for path in paths.values())


@pytest.mark.parametrize("failing", ["--witness", "--dot"])
def test_emptiness_removes_a_file_whose_write_fails(failing, tmp_path, capsys, monkeypatch):
    # the file opens but its write fails part way: that file and the one
    # written before it are both removed
    paths = {"--witness": tmp_path / "w.json", "--dot": tmp_path / "w.dot"}
    fail_writes_to(paths[failing], monkeypatch)
    argv = ["emptiness", corpus("chain3")]
    for flag, path in paths.items():
        argv += [flag, str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 28] No space left on device\n"
    assert not any(path.exists() for path in paths.values())


def test_emptiness_leaves_alone_a_path_it_cannot_open(tmp_path, capsys):
    # --dot names a directory: the witness written before it is removed,
    # the directory is not touched
    w, d = tmp_path / "w.json", tmp_path / "d"
    d.mkdir()
    (d / "keep").write_text("kept")
    assert main(["emptiness", corpus("chain3"), "--witness", str(w), "--dot", str(d)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not w.exists()
    assert (d / "keep").read_text() == "kept"


def test_emptiness_writes_no_witness_when_empty(tmp_path, capsys):
    w = tmp_path / "w.json"
    assert main(["emptiness", corpus("no_accept"), "--witness", str(w)]) == 1
    capsys.readouterr()
    assert not w.exists()


def test_emptiness_respects_max_nodes_flag(capsys):
    assert main(["emptiness", corpus("eq_loop"), "--max-nodes", "2"]) == 2
    assert "error:" in capsys.readouterr().err
    for value in ("0", "-3"):
        assert main(["emptiness", corpus("eq_loop"), "--max-nodes", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --max-nodes must be positive, got {value}\n"


def test_emptiness_skips_a_dead_branch_larger_than_max_nodes(capsys):
    # the first root transition leads into a subtree with no classical run
    # that outgrows five live nodes; the five-node witness behind the second
    # is found, where the search used to exhaust the limit and exit 2
    path = str(FIXTURES / "dead_first_branch.aut")
    assert main(["emptiness", path, "--max-nodes", "5"]) == 0
    assert capsys.readouterr().out == "not-empty\n"
    assert main(["emptiness", path, "--max-nodes", "4"]) == 2
    assert "error: search tree exceeded 4 nodes" in capsys.readouterr().err


def test_emptiness_notes_a_search_past_the_witness_bound(monkeypatch, capsys):
    assert main(["emptiness", corpus("eq_loop")]) == 0
    assert capsys.readouterr().err == ""
    # with bounds of one node each, eq_loop's witness outgrows them: the
    # search notes it and check_witness reports the violated bounds
    monkeypatch.setattr(emp, "_witness_bound", lambda size_q, met, k: (1, 1))
    assert main(["emptiness", corpus("eq_loop"), "--max-nodes", "1000"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "not-empty\n"
    assert captured.err.splitlines() == [
        "note: search tree grew past the theoretical witness bound",
        "warning: node bounds violated (internal 2/1, leaves 3/1)",
    ]


def test_emptiness_rejects_malformed_automaton(tmp_path, capsys):
    bad = tmp_path / "bad.aut"
    bad.write_text(
        "nondet {\n  directions: d1;\n  concepts: ;\n  features: g;\n"
        "  states: q0;\n  initial: q0;\n  accepting: q0;\n"
        "  delta q0 -> { L={}; X={}; succ=(q7) };\n}\n"
    )
    assert main(["emptiness", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "unknown state 'q7'" in err


# ---------------------------------------------------------------------------
# check-witness and the write-then-check invariant


def test_emptiness_witnesses_pass_check_witness(tmp_path, capsys):
    for name in NONEMPTY:
        w = tmp_path / f"{name}.json"
        assert main(["emptiness", corpus(name), "--witness", str(w)]) == 0, name
        capsys.readouterr()
        assert main(["check-witness", corpus(name), str(w)]) == 0, name
        assert capsys.readouterr().out.strip().splitlines()[-1] == "ok"


# "a:0,b" is one state.  Unescaped, the simulation state {a:0, b:1}, dead
# because a is contradictory, and the live {"a:0,b":1} would share a name.
COMMA_COLON_NAMES = """alternating {
  directions: d1;
  concepts: A;
  features: g;
  states: s a b "a:0,b";
  initial: s;
  accepting: b "a:0,b";
  delta s -> (<d1:a> & <d1:b>) | <d1:"a:0,b">;
  delta a -> A & !A;
  delta b -> <d1:b>;
  delta "a:0,b" -> <d1:"a:0,b">;
}
"""


def test_emptiness_tells_apart_states_named_with_commas_and_colons(tmp_path, capsys):
    path = tmp_path / "names.aut"
    path.write_text(COMMA_COLON_NAMES)
    w = tmp_path / "w.json"
    assert main(["emptiness", str(path), "--witness", str(w)]) == 0
    assert capsys.readouterr().out == "not-empty\n"
    assert main(["check-witness", str(path), str(w)]) == 0
    assert capsys.readouterr().out == "ok\n"


# Names that the witness format cannot carry: (directions, concepts, L, X,
# succ) of a one-state automaton, and the defect validate reports.  Each
# would decide not-empty and write a witness its own check-witness rejects,
# or, for a direction named as the root's DOT id, a DOT that declares that
# id twice and draws an edge from it to itself.
UNWRITABLE_NAMES = {
    "comma": ('"d,1"', "", "", 'EQ("d,1" g, g)', "q", "direction 'd,1'"),
    "space": ('"d 1"', "", "", "", "q", "direction 'd 1'"),
    "empty": ('"" d2', "", "", "", "q, q", "direction ''"),
    "negation": ("d1", '"!A"', '"!A"', "", "q", "concept '!A'"),
    "root-id": ('"ε" d2', "", "", "", "q, q", "direction 'ε'"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_NAMES))
def test_names_a_witness_cannot_carry_are_defects(case, tmp_path, capsys):
    directions, concepts, literals, constraints, succ, name = UNWRITABLE_NAMES[case]
    path = tmp_path / f"{case}.aut"
    path.write_text(
        f"nondet {{\n  directions: {directions};\n  concepts: {concepts};\n"
        "  features: g;\n  states: q;\n  initial: q;\n  accepting: q;\n"
        f"  delta q -> {{ L={{{literals}}}; X={{{constraints}}}; succ=({succ}) }};\n}}\n"
    )
    defect = f"signature: {name} cannot be written in a witness"
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == defect + "\n"
    dot = tmp_path / f"{case}.dot"
    assert main(["emptiness", str(path), "--dot", str(dot)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{path}: {defect}\nerror: {path}: automaton is not well formed\n"
    )
    assert not dot.exists()


def _self_loop_witness(tmp_path, capsys):
    w = tmp_path / "w.json"
    assert main(["emptiness", corpus("self_loop"), "--witness", str(w)]) == 0
    capsys.readouterr()
    return w, json.loads(w.read_text())


def test_check_witness_reports_pending_triples_at_the_root(tmp_path, capsys):
    w, payload = _self_loop_witness(tmp_path, capsys)
    payload["nodes"][""]["ptpge"] = [
        {"constraint": "EQ(d1 g, g)", "argIndex": 1, "remainingChain": "g"}
    ]
    w.write_text(json.dumps(payload))
    assert main(["check-witness", corpus("self_loop"), str(w)]) == 1
    assert capsys.readouterr().out == (
        "root has pending triples\n"
        "node 'd1': backnode signature differs\n"
        "node 'd2': backnode signature differs\n"
    )


def test_check_witness_reports_a_shared_signature_within_the_bounds(tmp_path, capsys):
    # Leaf d1 becomes an internal copy of the root whose children fold back
    # to it: 2 internal nodes and 3 leaves, within the bounds 2 and 4.
    w, payload = _self_loop_witness(tmp_path, capsys)
    nodes = payload["nodes"]
    nodes["d1"] = dict(nodes[""], children=["d1 d1", "d1 d2"])
    nodes["d1 d1"] = nodes["d1 d2"] = nodes["d2"]
    payload["height"] = 2
    w.write_text(json.dumps(payload))
    assert main(["check-witness", corpus("self_loop"), str(w)]) == 1
    assert capsys.readouterr().out == "internal nodes '' and 'd1' share a signature\n"


def test_check_witness_flags_tampering(tmp_path, capsys):
    w = tmp_path / "w.json"
    main(["emptiness", corpus("eq_loop"), "--witness", str(w)])
    capsys.readouterr()
    payload = json.loads(w.read_text())
    payload["nodes"][""]["state"] = "q9"
    w.write_text(json.dumps(payload))
    assert main(["check-witness", corpus("eq_loop"), str(w)]) == 1
    out = capsys.readouterr().out
    assert "is not the initial state" in out


def test_check_witness_rejects_non_witness_json(tmp_path, capsys):
    w = tmp_path / "w.json"
    w.write_text('{"format": "other"}')
    assert main(["check-witness", corpus("eq_loop"), str(w)]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_witness_rejects_a_cycle_without_accepting_state(capsys):
    w = pathlib.Path(__file__).resolve().parent / "fixtures" / "nonancestor_cycle.witness.json"
    assert main(["check-witness", corpus("nonancestor_cycle"), str(w)]) == 1
    assert "without an accepting state" in capsys.readouterr().out


def test_check_witness_crash_exits_two(tmp_path, capsys):
    w = tmp_path / "w.json"
    w.write_text(
        '{"format": "finite-tree-model", "version": 1, "directions": ["d1","d2"],'
        ' "height": 0, "nodes": []}'
    )
    assert main(["check-witness", corpus("eq_loop"), str(w)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed witness document:")
    assert captured.err.count("\n") == 1


def test_check_witness_rejects_a_wrong_height(tmp_path, capsys):
    w = tmp_path / "w.json"
    main(["emptiness", corpus("eq_loop"), "--witness", str(w)])
    capsys.readouterr()
    payload = json.loads(w.read_text())
    assert payload["height"] == 2
    payload["height"] = 7
    w.write_text(json.dumps(payload))
    assert main(["check-witness", corpus("eq_loop"), str(w)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: malformed witness document: 'height' is 7, the tree's height is 2\n"
    )


def test_check_witness_rejects_text_not_written_canonically(tmp_path, capsys):
    w = tmp_path / "w.json"
    main(["emptiness", corpus("eq_loop"), "--witness", str(w)])
    capsys.readouterr()
    written = json.loads(w.read_text())
    for edit, message in (
        (
            lambda p: p["nodes"][""].update(constraints=["EQ(g,d1 g)"]),
            "'constraints' entry 'EQ(g,d1 g)' is not written as 'EQ(g, d1 g)'",
        ),
        (
            lambda p: p["nodes"]["d1"].update(children=["d1  d1", "d1 d2"]),
            "'children' entry 'd1  d1' is not written as 'd1 d1'",
        ),
    ):
        payload = json.loads(json.dumps(written))
        edit(payload)
        w.write_text(json.dumps(payload))
        assert main(["check-witness", corpus("eq_loop"), str(w)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed witness document: {message}\n"


def test_check_witness_reports_an_empty_tree(tmp_path, capsys):
    w = tmp_path / "w.json"
    w.write_text(
        '{"format": "finite-tree-model", "version": 1, "directions": ["d1","d2"],'
        ' "height": 0, "nodes": {}}'
    )
    assert main(["check-witness", corpus("eq_loop"), str(w)]) == 1
    assert "witness has no root" in capsys.readouterr().out


def test_check_witness_rejects_broken_json(tmp_path, capsys):
    w = tmp_path / "w.json"
    w.write_text("{not json")
    assert main(["check-witness", corpus("eq_loop"), str(w)]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism of emitted files


def test_witness_files_are_byte_identical_across_runs(tmp_path, capsys):
    for name in ("eq_loop", "constraints4"):
        a = tmp_path / f"{name}_a.json"
        b = tmp_path / f"{name}_b.json"
        assert main(["emptiness", corpus(name), "--witness", str(a)]) == 0
        assert main(["emptiness", corpus(name), "--witness", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes(), name


# ---------------------------------------------------------------------------
# the witness writer and DOT strings

# A backslash and non-ASCII letters in every kind of name: states, a
# direction, a concept and a feature, so they reach every string of the
# witness JSON (ptpge entries included) and of the DOT.
ESCAPED_NAMES = (
    "nondet {\n"
    '  directions: "δ\\" d2;\n'
    '  concepts: "Ä\\";\n'
    '  features: "ƒ";\n'
    '  states: "q\\é" r;\n'
    '  initial: "q\\é";\n'
    '  accepting: "q\\é" r;\n'
    '  delta "q\\é" -> { L={"Ä\\"}; X={TPP("δ\\" "ƒ", "ƒ")}; succ=(r, r) };\n'
    "  delta r -> { L={}; X={}; succ=(r, r) };\n"
    "}\n"
)


def _witnesses():
    """Witnesses of the corpus, of criterion 5's two readings and of the
    automata above, whose names JSON escapes."""
    automata = [load_automaton((CORPUS / f"{name}.aut").read_text()) for name in NONEMPTY]
    automata += [load_automaton(ESCAPED_NAMES), load_automaton(COMMA_COLON_NAMES)]
    rng = random.Random(31337)
    for _ in range(50):
        shaped = random_nondet_shaped(rng)
        automata += [shaped, direct_reading(shaped)]
    for automaton in automata:
        if isinstance(automaton, AlternatingAutomaton):
            automaton = simulate(automaton)
        decision = decide(automaton)
        if decision.nonempty:
            yield decision.witness


def test_witness_writer_writes_what_json_dumps_writes():
    count = 0
    for model in _witnesses():
        payload = emp.witness_to_json(model)
        assert _witness_text(payload) == json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
        count += 1
    assert count > len(NONEMPTY) + 2  # criterion 5 gives witnesses too


def test_escaped_names_round_trip_through_the_witness(tmp_path, capsys):
    path, w = tmp_path / "escaped.aut", tmp_path / "w.json"
    path.write_text(ESCAPED_NAMES, encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert main(["emptiness", str(path), "--witness", str(w)]) == 0
    assert main(["check-witness", str(path), str(w)]) == 0
    assert capsys.readouterr().out == "not-empty\nok\n"
    assert '"state": "q\\\\é"' in w.read_text(encoding="utf-8")


# Backslashes in state and direction names, nothing else to escape.
BACKSLASH_NAMES = (
    'nondet {\n  directions: "d\\" d2;\n  concepts: ;\n  features: g;\n'
    '  states: "q\\";\n  initial: "q\\";\n  accepting: "q\\";\n'
    '  delta "q\\" -> { L={}; X={}; succ=("q\\", "q\\") };\n}\n'
)


def test_dot_strings_close_on_their_own_line(tmp_path, capsys):
    path, d = tmp_path / "backslash.aut", tmp_path / "w.dot"
    path.write_text(BACKSLASH_NAMES)
    assert main(["validate", str(path)]) == 0
    assert main(["emptiness", str(path), "--dot", str(d)]) == 0
    capsys.readouterr()
    quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
    lines = d.read_text(encoding="utf-8").splitlines()
    for line in lines:
        assert '"' not in quoted.sub("", line), line
    assert '  "ε" [label="ε\\nq\\\\", shape=box, style=solid];' in lines
    assert '  "ε" -> "d\\\\" [label="d\\\\"];' in lines


# ---------------------------------------------------------------------------
# environment caps


def test_env_cap_on_search_nodes(monkeypatch, capsys):
    monkeypatch.setenv("QSTA_MAX_SEARCH_NODES", "2")
    assert main(["emptiness", corpus("eq_loop")]) == 2
    assert "error:" in capsys.readouterr().err


def _simulating_argv(command, tmp_path):
    """A command line that simulates corpus/alt_choice.aut."""
    argv = [command, corpus("alt_choice")]
    return argv + ["-o", str(tmp_path / "o.aut")] if command == "simulate" else argv


@pytest.mark.parametrize("command", ["simulate", "emptiness"])
def test_env_cap_on_simulation_states(command, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("QSTA_MAX_SIM_STATES", "1")
    assert main(_simulating_argv(command, tmp_path)) == 2
    assert capsys.readouterr().err == "error: more than 1 simulation states\n"


@pytest.mark.parametrize("command", ["simulate", "emptiness"])
def test_env_cap_on_disjuncts(command, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("QSTA_MAX_DISJUNCTS", "1")
    assert main(_simulating_argv(command, tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error: DNF exceeds 1 disjuncts; ")


def test_env_cap_must_be_a_positive_integer(monkeypatch, capsys):
    monkeypatch.setenv("QSTA_MAX_SEARCH_NODES", "zero")
    assert main(["emptiness", corpus("self_loop")]) == 2
    assert "must be an integer" in capsys.readouterr().err
    monkeypatch.setenv("QSTA_MAX_SEARCH_NODES", "-3")
    assert main(["emptiness", corpus("self_loop")]) == 2
    assert "must be positive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# installed entry point


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_module_entry_point_roundtrip(tmp_path):
    # the child imports the working tree's qsta, as the tests do
    src = str(CORPUS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "qsta.cli", "emptiness", corpus("self_loop")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout == "not-empty\n"


def test_witness_bytes_do_not_depend_on_hash_seed(tmp_path):
    # set iteration order follows the hash seed; the witness bytes must not
    script = (
        "import sys\n"
        "from qsta.cli import main\n"
        "corpus, out = sys.argv[1], sys.argv[2]\n"
        "for name in sys.argv[3:]:\n"
        "    assert main(['emptiness', f'{corpus}/{name}.aut', '--witness',\n"
        "                 f'{out}/{name}.json', '--dot', f'{out}/{name}.dot']) == 0, name\n"
    )
    src = str(CORPUS.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for seed in ("0", "1"):
        out = tmp_path / seed
        out.mkdir()
        result = subprocess.run(
            [sys.executable, "-c", script, str(CORPUS), str(out), *GOLDEN_WITNESS_SHA256],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
        )
        assert result.returncode == 0, result.stderr
        for name, pinned in GOLDEN_WITNESS_SHA256.items():
            got = tuple(
                hashlib.sha256((out / f"{name}.{ext}").read_bytes()).hexdigest()
                for ext in ("json", "dot")
            )
            assert got == pinned, (seed, name)
