"""The benchmark's tracer (perfbench/spans.py) patches program functions
by (module, attribute); every name it lists must exist, or each traced
benchmark run fails at start-up. Every name the benchmark imports from
kgdg must exist too, or its output checks fail."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src"
SHIM_COMMENT = "the benchmark's tracer patches"
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


def _shim_imports():
    """(module, name) for every name a ``src/`` import keeps only for the
    tracer: an imported name whose source line carries SHIM_COMMENT."""
    found = set()
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        lines = text.splitlines()
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                found.update((module, alias.asname or alias.name) for alias in node.names
                             if SHIM_COMMENT in lines[alias.lineno - 1])
    return sorted(found)


def test_every_shim_import_is_traced():
    """A name kept only so the tracer can patch it must be one the tracer
    patches, so a shim a deletion leaves behind fails here."""
    shims = _shim_imports()
    assert ("kgdg.harness", "fused_probability") in shims
    assert set(shims) <= {(s[0], s[1]) for s in _spans()}


# Runs in a fresh interpreter, so that the tracer's patches never reach the
# test process: argv is perfbench/, src/ and a work directory.
TRACED_CALLS = """
import json, pathlib, sys
sys.path[:0] = sys.argv[1:3]
from spans import Tracer
from kgdg.cli import main
from kgdg.synth import shift_profile, write_dataset

work = pathlib.Path(sys.argv[3])
write_dataset(shift_profile("mild", seed=0, n_samples=40), work)
config = work / "experiment.json"
config.write_text(json.dumps({"domains": {"manifest": str(work / "manifest.json"), "source": "clinic_a"},
                              "seeds": [0], "symbolic": {"n_trees": 2}}))
probs = str(work / "clinic_a_probs.csv")
calls = {"fuse": ["fuse", "--strategy", "max", "--dl", probs, "--kd", probs],
         "grade": ["grade", "--detections", str(work / "clinic_a_detections.json")],
         "eval": ["eval", "--config", str(config)]}
tracer = Tracer()
tracer.install()
spans = {}
for name, argv in calls.items():
    tracer.active = True
    code = main(argv + ["--out", str(work / "out"), "--quiet"])
    tracer.active = False
    spans[name] = {"exit": code, **tracer.take()}
print(json.dumps(spans))
"""


def test_commands_reach_the_traced_names(tmp_path):
    """The fusion, rule and featurize spans see the kernels that fuse, grade
    --detections and eval run, so a refactor that calls around a traced
    name fails here."""
    done = subprocess.run([sys.executable, "-c", TRACED_CALLS, str(PERFBENCH), str(SRC), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    spans = json.loads(done.stdout.splitlines()[-1])
    assert all(s["exit"] == 0 for s in spans.values()), spans
    assert spans["fuse"].get("fusion.calls", 0) > 0
    assert spans["grade"].get("rules.calls", 0) > 0
    assert spans["eval"].get("fusion.calls", 0) > 0
    assert spans["eval"].get("learn.featurize_calls", 0) > 0
