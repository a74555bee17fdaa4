"""Every exported name resolves, and so does every layer the benchmark
traces; every name a package or test module imports is used; importing
builds no composition row and imports none of ``dataclasses``, ``inspect``
and ``pathlib``."""

import ast
import importlib
import importlib.util
import os
import pathlib
import pkgutil
import subprocess
import sys

import qsta

BENCH_SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_package_exports_resolve():
    missing = [name for name in qsta.__all__ if not hasattr(qsta, name)]
    assert missing == []


def test_module_exports_resolve():
    missing = []
    for info in pkgutil.iter_modules(qsta.__path__):
        module = importlib.import_module(f"qsta.{info.name}")
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                missing.append(f"qsta.{info.name}.{name}")
    assert missing == []


def test_traced_layers_exist():
    # bench/spans.py wraps these functions by name; a missing one would
    # break tracing without failing any other test.
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, functions in spans.LAYERS.items():
        module = importlib.import_module(module_name)
        missing.extend(
            f"{module_name}.{name}"
            for name in functions
            if not callable(getattr(module, name, None))
        )
    assert missing == []


def _unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_unused_imports():
    package = pathlib.Path(qsta.__file__).parent
    tests = pathlib.Path(__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")) + sorted(tests.glob("*.py")):
        unused.extend(
            f"{path.parent.name}/{path.name}: {name}"
            for name in _unused_imports(path.read_text())
        )
    assert unused == []


def test_import_builds_no_composition_row():
    # every CLI call pays the import (the benchmark's setup_s), so the
    # composition rows are built on first use, never at import
    script = (
        "import qsta, qsta.cli\n"
        "from qsta import relalg\n"
        "print(sum(row is not None for row in relalg._ROWS))\n"
    )
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"


def test_import_loads_neither_dataclasses_nor_inspect():
    # every CLI call pays the import (the benchmark's setup_s); the value
    # types are slotted classes, so importing the package generates no code,
    # and the CLI reads and writes files with open(), since pathlib pulls in
    # urllib.parse and ipaddress
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qsta, qsta.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'pathlib'} & (set(sys.modules) - before)))\n"
    )
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
