"""Seeded fuzzing of the CLI exit-code contract on hostile input.

Corpus texts are mutated and run through ``qsta validate``, corpus
witnesses are mutated as JSON values, and by spaces in their strings and
keys, and run through ``qsta check-witness``, each in process.  Every run
must exit 0, 1 or 2 without a traceback; exit 1 must come with defect lines
on stdout and exit 2 with exactly one ``error:`` line on stderr.  A witness
that ``check-witness`` accepts must be valid under
``schemas/witness.schema.json``, and one that is valid but rejected must
break one of the reader's rules the schema cannot state.
"""

import hashlib
import json
import pathlib
import random
import re

import pytest

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

TEXT_CASES = 900
WITNESS_CASES = 900

# sha256 over the JSON list of (case, exit code, stdout) of the witness
# mutants: every defect line ``check-witness`` prints, in its order.
CHECK_WITNESS_OUTPUTS_SHA256 = "db45b82a2e40d4ca4f24aebfa21f2da0bf995e63e0e3c164b2c46c5d1852684d"

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
    for case in range(WITNESS_CASES):
        name, text = rng.choice(witnesses)
        document = mutate_witness(rng, json.loads(text))
        target.write_text(json.dumps(document), encoding="utf-8")
        code, out, err = run(["check-witness", str(CORPUS / f"{name}.aut"), str(target)], capsys)
        codes[code] += 1
        outputs.append((case, code, out))
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
