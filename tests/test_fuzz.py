"""Seeded fuzzing of the CLI exit-code contract on hostile input.

Corpus texts are mutated and run through ``qsta validate``, corpus
witnesses are mutated as JSON values, and by spaces in their strings and
keys, and run through ``qsta check-witness``, each in process.  Every run
must exit 0, 1 or 2 without a traceback; exit 1 must come with defect lines
on stdout and exit 2 with exactly one ``error:`` line on stderr.  A witness
that ``check-witness`` accepts must be valid under
``schemas/witness.schema.json``, and one that is valid but rejected must
break one of the reader's rules the schema cannot state.

Those mutants rarely get past the reader and the per-node checks, so
readable mutants, built to pass both, reach the checks over the whole run:
a backnode retargeted, a relation redrawn in the automaton and the witness
alike, and an accepting state dropped.  Each must print exactly the defect
lines its mutation implies.
"""

import hashlib
import json
import pathlib
import random
import re

import pytest

from qsta import globalcsp, is_consistent, witness_from_json
from qsta.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
SCHEMA = ROOT / "schemas" / "witness.schema.json"

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

# The non-empty corpus files that are nondeterministic: an accepting state
# dropped from one changes no state name its witness holds.
NONDET = ["self_loop", "eq_loop", "constraints4", "fallback", "chain3"]

TEXT_CASES = 900
WITNESS_CASES = 900

# sha256 over the JSON list of (case, exit code, stdout) of the witness
# mutants: every defect line ``check-witness`` prints, in its order.
CHECK_WITNESS_OUTPUTS_SHA256 = "db45b82a2e40d4ca4f24aebfa21f2da0bf995e63e0e3c164b2c46c5d1852684d"

# sha256 over the JSON list of (case, stderr) of the same mutants: every
# error line ``check-witness`` prints, in its order.
CHECK_WITNESS_ERRORS_SHA256 = "b4879a9e60e2f6dd5382445daa6522947b45fea51548cd4ef7967eb48370c32f"

# Pieces a text mutation inserts: the DSL's punctuation, names and keywords,
# and characters it does not know.
SNIPPETS = list("{}()<>:;,|&!=-\"#$ \n\t") + [
    "->", "q0", "q9", "d1", "d3", "g", "A", '"x-1"', '"', "delta", "states",
    "acceptall", "accepting", "TPP", "{EQ,DC}", "L={}", "X={}", "succ=(q0)",
    "<d1:q0>", "!A", "!", "{q0:1}", "nondet", "alternating", "((", "))",
]

# The witness reader's rules beyond the schema: the only errors a
# schema-valid witness may exit 2 with.
SEMANTIC_REJECTIONS = [
    r"node key '.*' names a direction not in 'directions'",
    r"'height' is \d+, the tree's height is \d+",
    r"malformed literal: '.*'",
    r"'remainingChain' is not a strict suffix of argument [12]",
    r"unknown RCC8 atom '.*'",
    r"('constraints' entry|'constraint') '.*' is not written as '.*'",
]

# Values a witness mutation puts in place of another.
JSON_VALUES = [
    None, True, False, 0, 1, 2, -1, 7, 1.5, "", "x", "d1", "d1 d2", "!", "!A",
    "g", "EQ(g, g)", "EQ", "TPP(d1 g, g)", [], ["x"], [5], {}, {"a": 1},
]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err, argv
    assert code in (0, 1, 2), argv
    return code, captured.out, captured.err


def error_line(err):
    """The one ``error:`` line of an exit-2 run."""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    return errors[0]


def mutate_text(rng, text):
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        length = rng.randint(1, 8)
        operation = rng.randrange(4)
        if operation == 0:  # delete a span
            text = text[:at] + text[at + length :]
        elif operation == 1:  # insert a snippet
            text = text[:at] + rng.choice(SNIPPETS) + text[at:]
        elif operation == 2:  # duplicate a span
            text = text[:at] + text[at : at + length] + text[at:]
        else:  # swap two lines
            lines = text.split("\n")
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


def containers(value):
    """Every dict and list inside ``value``, ``value`` included."""
    found = []
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, (dict, list)):
            found.append(item)
            stack.extend(item.values() if isinstance(item, dict) else item)
    return found


def respace(rng, text):
    """Insert a space, or drop the space after a comma."""
    if ", " in text and rng.random() < 0.5:
        return text.replace(", ", ",", 1)
    at = rng.randint(0, len(text))
    return text[:at] + " " + text[at:]


def mutate_witness(rng, document):
    for _ in range(rng.randint(1, 2)):
        where = rng.choice(containers(document))
        keys = list(where) if isinstance(where, dict) else list(range(len(where)))
        operation = rng.randrange(6)
        if not keys or operation == 0:  # add an entry
            value = json.loads(json.dumps(rng.choice(JSON_VALUES)))
            if isinstance(where, dict):
                where[rng.choice(["x", "d1", "d3", "", "state", "backnode"])] = value
            else:
                where.insert(rng.randint(0, len(where)), value)
            continue
        key = rng.choice(keys)
        if operation == 1:  # drop it
            del where[key]
        elif operation == 2:  # replace it by another value
            where[key] = json.loads(json.dumps(rng.choice(JSON_VALUES)))
        elif operation == 3:  # retype it
            old = where[key]
            where[key] = rng.choice([[old], str(old), {"v": old}])
        elif operation == 4:  # replace it by a value from elsewhere in the document
            source = rng.choice(containers(document))
            values = list(source.values()) if isinstance(source, dict) else source
            if values:
                where[key] = json.loads(json.dumps(rng.choice(values)))
        elif isinstance(where, dict) and rng.random() < 0.5:  # respace the key
            where[respace(rng, key)] = where.pop(key)
        elif isinstance(where[key], str):  # respace the value
            where[key] = respace(rng, where[key])
    return document


def test_mutated_texts_keep_the_validate_contract(tmp_path, capsys):
    rng = random.Random(12)
    texts = [path.read_text() for path in sorted(CORPUS.glob("*.aut"))]
    target = tmp_path / "mutant.aut"
    codes = {0: 0, 1: 0, 2: 0}
    for case in range(TEXT_CASES):
        target.write_text(mutate_text(rng, rng.choice(texts)), encoding="utf-8")
        code, out, err = run(["validate", str(target)], capsys)
        codes[code] += 1
        if code == 0:
            assert out == "" and err == "", case
        elif code == 1:
            assert out and err == "", case
        else:
            assert out == "", case
            assert re.match(r"error: line \d+, column \d+: ", error_line(err)), err
    # the mutations reach all three outcomes
    assert all(codes.values()), codes


@pytest.fixture(scope="module")
def witnesses(tmp_path_factory):
    folder = tmp_path_factory.mktemp("witnesses")
    documents = []
    for name in NONEMPTY:
        path = folder / f"{name}.json"
        assert main(["emptiness", str(CORPUS / f"{name}.aut"), "--witness", str(path)]) == 0
        documents.append((name, path.read_text()))
    return documents


def test_mutated_witnesses_keep_the_check_witness_contract(witnesses, tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
    rng = random.Random(34)
    target = tmp_path / "mutant.json"
    codes = {0: 0, 1: 0, 2: 0}
    outputs = []
    errors = []
    for case in range(WITNESS_CASES):
        name, text = rng.choice(witnesses)
        document = mutate_witness(rng, json.loads(text))
        target.write_text(json.dumps(document), encoding="utf-8")
        code, out, err = run(["check-witness", str(CORPUS / f"{name}.aut"), str(target)], capsys)
        codes[code] += 1
        outputs.append((case, code, out))
        errors.append((case, err))
        if code == 0:
            assert out == "ok\n" and err == "", case
            assert schema.is_valid(document), case
        elif code == 1:
            assert out and "ok" not in out.splitlines() and err == "", case
        else:
            assert out == "", case
            line = error_line(err)
            assert line.startswith(
                ("error: malformed witness document:", "error: not a finite-tree-model document")
            ), (case, line)
            if schema.is_valid(document):
                reason = line[len("error: malformed witness document: ") :]
                assert any(re.fullmatch(rule, reason) for rule in SEMANTIC_REJECTIONS), (
                    case,
                    line,
                )
    assert all(codes.values()), codes
    digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
    assert digest == CHECK_WITNESS_OUTPUTS_SHA256
    digest = hashlib.sha256(json.dumps(errors).encode()).hexdigest()
    assert digest == CHECK_WITNESS_ERRORS_SHA256


def check_mutant(aut_text, document, tmp_path, capsys):
    """Exit code and stdout of ``check-witness`` on an automaton text and a
    witness document."""
    automaton, witness = tmp_path / "mutant.aut", tmp_path / "mutant.json"
    automaton.write_text(aut_text, encoding="utf-8")
    witness.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run(["check-witness", str(automaton), str(witness)], capsys)
    assert err == ""
    return code, out


def printed(defects):
    """The exit code and stdout of ``check-witness`` that finds ``defects``."""
    return (1, "".join(line + "\n" for line in defects)) if defects else (0, "ok\n")


def test_retargeted_backnodes_report_the_fold(witnesses, tmp_path, capsys):
    # internal nodes of a sound witness have distinct signatures, so a leaf
    # folded onto another internal node differs from it in signature
    cases = 0
    for name, text in witnesses:
        aut_text = (CORPUS / f"{name}.aut").read_text()
        document = json.loads(text)
        directions = document["directions"]
        nodes = document["nodes"]
        internal = [key for key, node in nodes.items() if node["backnode"] is None]
        leaves = [(key, node) for key, node in nodes.items() if node["backnode"] is not None]
        for leaf, node in leaves:
            for target in internal:
                if target == node["backnode"]:
                    continue
                mutant = json.loads(text)
                mutant["nodes"][leaf]["backnode"] = target
                defects = [f"node '{leaf}': backnode signature differs"]
                rank = [directions.index(d) for d in target.split()]
                if rank >= [directions.index(d) for d in leaf.split()]:
                    defects.insert(0, f"node '{leaf}': backnode is not lexicographically smaller")
                got = check_mutant(aut_text, mutant, tmp_path, capsys)
                assert got == printed(defects), (name, leaf, target)
                cases += 1
    assert cases > 0


def test_redrawn_relations_reach_the_global_network(witnesses, tmp_path, capsys):
    # the relation changes in the automaton and in the witness alike, so every
    # label still matches a transition and only the network can reject it;
    # the network is decided as globalcsp builds it, by is_consistent
    verdicts = set()
    for name, text in witnesses:
        aut_text = (CORPUS / f"{name}.aut").read_text()
        nodes = json.loads(text)["nodes"]
        for constraint in sorted({c for node in nodes.values() for c in node["constraints"]}):
            assert aut_text.count(constraint) == 1, (name, constraint)
            relation, args = constraint.split("(", 1)
            for atom in ("DC", "EC", "PO", "TPP", "NTPP", "TPPI", "NTPPI", "EQ"):
                if atom == relation:
                    continue
                redrawn = f"{atom}({args}"
                mutant = json.loads(text.replace(json.dumps(constraint), json.dumps(redrawn)))
                consistent = is_consistent(globalcsp(witness_from_json(mutant).nodes))
                defects = [] if consistent else ["global constraint network is inconsistent"]
                got = check_mutant(aut_text.replace(constraint, redrawn), mutant, tmp_path, capsys)
                assert got == printed(defects), (name, redrawn)
                verdicts.add(consistent)
    assert verdicts == {True, False}


def rejecting_folds(nodes, accepting):
    """The leaves whose fold closes a cycle without an accepting state: the
    backnode reaches the leaf's parent through non-accepting nodes only, an
    internal node stepping to its children and a leaf to its backnode."""
    folds = []
    for leaf, node in nodes.items():
        if node["backnode"] is None:
            continue
        parent = " ".join(leaf.split()[:-1])
        seen, stack = set(), [node["backnode"]]
        while stack:
            key = stack.pop()
            if key in seen or nodes[key]["state"] in accepting:
                continue
            if key == parent:
                folds.append(leaf)
                break
            seen.add(key)
            backnode = nodes[key]["backnode"]
            stack.extend(nodes[key]["children"] if backnode is None else [backnode])
    return folds


def test_dropped_accepting_states_reach_the_buchi_rule(witnesses, tmp_path, capsys):
    # every label still matches a transition, so only the folds can reject
    hits = 0
    for name, text in witnesses:
        if name not in NONDET:
            continue
        aut_text = (CORPUS / f"{name}.aut").read_text()
        line = re.search(r"accepting:([^;]*);", aut_text)
        accepting = line.group(1).split()
        document = json.loads(text)
        for dropped in accepting:
            kept = [state for state in accepting if state != dropped]
            mutant_text = aut_text.replace(line.group(0), f"accepting: {' '.join(kept)};")
            defects = [
                f"node '{leaf}': fold closes a cycle without an accepting state"
                for leaf in rejecting_folds(document["nodes"], kept)
            ]
            got = check_mutant(mutant_text, document, tmp_path, capsys)
            assert got == printed(defects), (name, dropped)
            hits += bool(defects)
    assert hits > 0
