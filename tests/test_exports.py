"""Every exported name resolves, and so does every layer the benchmark traces."""

import importlib
import importlib.util
import pathlib
import pkgutil

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
