"""The benchmark's tracer (perfbench/spans.py) patches program functions
by (module, attribute); every name it lists must exist, or each traced
benchmark run fails at start-up. Every name the benchmark imports from
kgdg must exist too, or its output checks fail."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("module_name,attr", sorted({(s[0], s[1]) for s in _spans()}))
def test_traced_name_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def _kgdg_imports():
    """(module, name) for every ``from kgdg... import name`` in perfbench/,
    and (module, None) for every ``import kgdg...``."""
    found = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kgdg":
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "kgdg")
    return sorted(found, key=str)


BENCHMARK_IMPORTS = _kgdg_imports()


def test_benchmark_imports_found():
    assert ("kgdg.harness", "split_indices") in BENCHMARK_IMPORTS


@pytest.mark.parametrize("module_name,name", BENCHMARK_IMPORTS)
def test_benchmark_import_resolves(module_name, name):
    module = importlib.import_module(module_name)
    if name is not None and not hasattr(module, name):
        importlib.import_module(f"{module_name}.{name}")  # a submodule
