"""Static checks on the names ``src/`` binds and exports, in place of a
linter: no module keeps an import it never uses, no private module-level
name goes unread in ``src/``, no config field goes unread outside its own
checks, each learner's fit reads exactly the TrainConfig fields listed for
it, no CLI flag goes unread outside the parser that defines it, and every
public name list resolves without repeats. A deletion that leaves an
import, a helper, a config field, a flag or an export behind fails here."""

import ast
import importlib

import pytest
from test_spans import SHIM_COMMENT, SRC

from kgdg.learn.config import LEARNER_FIELDS

MODULES = sorted(path for path in SRC.rglob("*.py") if path.name != "__init__.py")


def unused_imports(text):
    """Names a module-level import binds that the module never reads; a
    line carrying SHIM_COMMENT keeps its names for the tracer."""
    tree = ast.parse(text)
    lines = text.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and SHIM_COMMENT not in lines[alias.lineno - 1]:
                    unused.append(name)
    return unused


def test_modules_found():
    assert SRC / "kgdg" / "learn" / "baselines.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_no_unused_module_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detected():
    text = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from .core import A, B as C\n"
        f"from .io import D  # noqa: F401  unused here; {SHIM_COMMENT} it\n"
        "def f() -> A:\n"
        "    return os.path.join('x')\n"
    )
    assert unused_imports(text) == ["math", "C"]


def private_definitions(tree):
    """The private functions, classes and constants a module binds at its
    top level (one leading underscore; dunders such as ``__all__`` are not
    private)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(target.id for target in targets if isinstance(target, ast.Name))
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def names_read(tree):
    """Every name a module reads, bare or as an attribute."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def unread_private_names(trees):
    """``module: name`` for each private top-level name no module reads."""
    read = set().union(*map(names_read, trees.values()))
    return [f"{module}: {name}" for module, tree in trees.items() for name in private_definitions(tree)
            if name not in read]


def test_no_unread_private_module_name():
    trees = {str(path.relative_to(SRC)): ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    assert unread_private_names(trees) == []


def test_unread_private_name_detected():
    defining = ast.parse(
        "_A = 1\n_B: int = 2\n__all__ = []\n"
        "def _f():\n    return _A\n"
        "class _C:\n    pass\n"
        "def _g():\n    pass\n"
    )
    reading = ast.parse("from . import m\nm._B\nm._g()\n")
    assert unread_private_names({"m": defining, "n": reading}) == ["m: _f", "m: _C"]


def config_fields(tree):
    """``Class.field`` for each field of each config dataclass a module
    defines: a class whose ``__post_init__`` calls ``check_field_types``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            isinstance(item, ast.FunctionDef) and item.name == "__post_init__" and any(
                isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "check_field_types"
                for call in ast.walk(item))
            for item in node.body
        ):
            out.extend(f"{node.name}.{item.target.id}" for item in node.body
                       if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                       and "ClassVar" not in ast.unparse(item.annotation))
    return out


def attributes_read(tree):
    """Every attribute name a module reads, outside any ``__post_init__``."""
    read, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return read


def unread_config_fields(trees):
    """``module: Class.field`` for each config field no module reads as an
    attribute, its class's own checks aside."""
    read = set().union(*map(attributes_read, trees.values()))
    return [f"{module}: {name}" for module, tree in trees.items() for name in config_fields(tree)
            if name.split(".")[1] not in read]


def test_no_unread_config_field():
    trees = {str(path.relative_to(SRC)): ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    assert unread_config_fields(trees) == []


def test_unread_config_field_detected():
    defining = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Cfg:\n"
        "    KIND: ClassVar[str] = 'c'\n"
        "    used: int = 1\n"
        "    checked_only: int = 2\n"
        "    unread: int = 3\n"
        "    def __post_init__(self):\n"
        "        check_field_types(self)\n"
        "        assert self.checked_only >= 0\n"
        "@dataclass\n"
        "class Plain:\n"
        "    never_read: int = 0\n"
    )
    reading = ast.parse("def f(cfg):\n    return cfg.used\n")
    assert unread_config_fields({"m": defining, "n": reading}) == ["m: Cfg.checked_only", "m: Cfg.unread"]


def learner_reads(trees):
    """{kind: sorted fields} each ``fit_<kind>_arrays`` reads off its
    ``cfg``; a fit that hands ``cfg`` to a call other than
    ``train_fingerprint`` reads ``"<cfg passed on>"``, as the AST cannot
    follow it there."""
    reads = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("fit_") and node.name.endswith("_arrays"):
                fields = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                          and isinstance(n.value, ast.Name) and n.value.id == "cfg"}
                if any(isinstance(call, ast.Call) and ast.unparse(call.func) != "train_fingerprint"
                       and any(isinstance(arg, ast.Name) and arg.id == "cfg" for arg in call.args)
                       for call in ast.walk(node)):
                    fields.add("<cfg passed on>")
                reads[node.name.removeprefix("fit_").removesuffix("_arrays")] = sorted(fields)
    return reads


def test_each_fit_reads_exactly_its_listed_fields():
    trees = [ast.parse(path.read_text()) for path in sorted((SRC / "kgdg" / "learn").glob("*.py"))]
    assert learner_reads(trees) == {kind: sorted(fields) for kind, fields in LEARNER_FIELDS.items()}


def test_unlisted_or_unread_learner_field_detected():
    tree = ast.parse(
        "def fit_a_arrays(x, y, schema, cfg):\n"
        "    return cfg.listed, cfg.unlisted, train_fingerprint(cfg, schema, x, y)\n"
        "def fit_b_arrays(x, y, schema, cfg):\n"
        "    return helper(x, cfg)\n"
        "def fit_model(cfg):\n"
        "    return cfg.model_kind\n"
    )
    assert learner_reads([tree]) == {"a": ["listed", "unlisted"], "b": ["<cfg passed on>"]}


def unread_flags(tree):
    """The ``dest`` of each ``add_argument`` call in ``build_parser`` that
    the module never reads as ``args.<dest>`` outside ``build_parser``."""
    dests, read = [], set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "build_parser":
            for call in ast.walk(node):
                if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "add_argument"):
                    continue
                options = [arg.value for arg in call.args]
                option = next((o for o in options if o.startswith("--")), options[0])
                dests.append(next((kw.value.value for kw in call.keywords if kw.arg == "dest"),
                                  option.lstrip("-").replace("-", "_")))
        else:
            read |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                     and isinstance(n.value, ast.Name) and n.value.id == "args"}
    return [dest for dest in dests if dest not in read]


def test_no_unread_flag():
    assert unread_flags(ast.parse((SRC / "kgdg" / "cli.py").read_text())) == []


def test_unread_flag_detected():
    tree = ast.parse(
        "def _cmd(args):\n    return args.used, args.renamed, other.unread\n"
        "def build_parser():\n"
        "    p.add_argument('--used')\n"
        "    p.add_argument('-r', '--was-renamed', dest='renamed')\n"
        "    p.add_argument('--unread')\n"
        "    p.add_argument('-s', '--short-too')\n"
        "    args.unread\n"
    )
    assert unread_flags(tree) == ["unread", "short_too"]


@pytest.mark.parametrize("module_name", ["kgdg", "kgdg.learn"])
def test_public_names_resolve_once(module_name):
    module = importlib.import_module(module_name)
    names = module.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(module, name)] == []
