"""Source hygiene that no installed linter checks."""

import ast
import copy
import pickle
import re
import types
from collections import Counter
from pathlib import Path

import pytest

import grass
from grass import _leafmaps
from grass.derivation import mk_arrowI, mk_var
from grass.presets import system
from grass.syntax import TERMS, TBase, Var

MODULES = sorted(p for p in Path(grass.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names if alias.name != "annotations"}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(name for name in imported if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_imported_from_another_module(path):
    tree = ast.parse(path.read_text())
    private = sorted(f"{node.module}.{alias.name}"
                     for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                     and (node.level or (node.module or "").split(".")[0] == "grass")
                     for alias in node.names if alias.name.startswith("_"))
    assert not private, f"{path.name}: imports private names {private}"


ROOT = Path(__file__).resolve().parent.parent
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _definitions(path):
    """(name, line) of each module-level function and class of a module,
    and of each method of its classes other than dunder methods."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, item.lineno


def test_every_definition_is_named_elsewhere():
    words = Counter(word for folder in ("src", "tests", "perfbench")
                    for path in (ROOT / folder).rglob("*.py")
                    for word in WORD.findall(path.read_text()))
    unnamed = []
    for path in sorted((ROOT / "src" / "grass").glob("*.py")):
        lines = path.read_text().splitlines()
        for name, lineno in _definitions(path):
            if words[name] <= WORD.findall(lines[lineno - 1]).count(name):
                unnamed.append(f"{path.name}:{lineno} {name}")
    assert not unnamed, f"defined but named nowhere else: {unnamed}"


def test_every_parameter_is_read():
    # dunder methods are exempt, for their protocols fix their signatures, and
    # lambdas, which the s-expression readers give one signature on purpose; so
    # is a parameter named with a leading underscore, unread on purpose, as in
    # the step `check_derivation` hands `fold`, which needs no premise values
    unread = []
    for path in sorted((ROOT / "src" / "grass").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or node.name.startswith("__") and node.name.endswith("__")):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unread += [f"{path.name}:{node.lineno} {node.name}({p.arg})" for p in params
                       if p.arg not in read and not p.arg.startswith("_")]
    assert not unread, f"parameters never read: {unread}"


def test_positions_are_read_only_through_the_checked_accessor():
    # ModelBackend.positions checks a structure map's Positions before any
    # reader sees them; a `*_positions` method called anywhere else would skip it
    accessors, calls = 0, []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        inside = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "ModelBackend":
                for item in cls.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "positions":
                        accessors += 1
                        inside |= {id(n) for n in ast.walk(item)}
        calls += [f"{path.name}:{n.lineno} {n.func.attr}" for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr.endswith("_positions") and id(n) not in inside]
    assert accessors == 1 and not calls, calls


def test_the_coherence_validator_builds_no_element_level_value_and_asks_no_element_limit():
    # the validator's one size rule is the cap on the leaves of the objects a
    # square builds, and its witnesses are decoded from the shapes' elements
    banned = {"Rel", "FinSetObj", "_decode", "_guard", "ELEMENT_LIMIT", "SizeLimitError"}
    validator = {"_Coherence", "coherence_report"}
    tree = ast.parse((ROOT / "src" / "grass" / "semantics.py").read_text())
    scanned, used = set(), []
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in validator:
            scanned.add(node.name)
            used += [f"{node.name}:{n.lineno} {n.id}" for n in ast.walk(node)
                     if isinstance(n, ast.Name) and n.id in banned]
    assert scanned == validator and not used, used


def test_leaf_maps_keep_no_module_level_cache_or_container():
    # an identity is a fresh range, so repeated validator calls share nothing
    # through grass._leafmaps: no memo, interning table or mutable default
    tree = ast.parse(Path(_leafmaps.__file__).read_text())
    docstring = tree.body[0]
    kept = [f"{node.lineno} {type(node).__name__}" for node in tree.body[1:]
            if not isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef))
            or isinstance(node, ast.FunctionDef) and node.decorator_list]
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant) and not kept, kept
    for name, value in vars(_leafmaps).items():
        if name.startswith("__") or name == "annotations":
            continue
        assert isinstance(value, (types.ModuleType, types.FunctionType, type)), name
        if isinstance(value, types.FunctionType):
            defaults = [*(value.__defaults__ or ()), *(value.__kwdefaults__ or {}).values()]
            assert all(isinstance(d, (int, str, type(None))) for d in defaults), name


def _slotted_values():
    """One instance of each slotted value class of the kernel: a derivation,
    its judgment, a grade, and every term former."""
    space = system("LU")[0]
    d = mk_arrowI(space, mk_var(space, "x", TBase("P", "L")))
    fill = {"name": "x", "grade": 1, "mode": "L"}
    terms = [Var("x")] + [former(*(fill.get(kind, Var("y")) for kind in kinds))
                          for former, kinds in TERMS.items()]
    return [d, d.conclusion, d.conclusion.ty.grade, *terms]


@pytest.mark.parametrize("value", _slotted_values(), ids=lambda v: type(v).__name__)
def test_kernel_values_are_slotted_and_copy_and_pickle_round_trip(value):
    # slots keep the memory of a tree of these small
    assert not hasattr(value, "__dict__")
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
