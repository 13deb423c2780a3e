"""Source hygiene that no installed linter checks."""

import ast
from pathlib import Path

import pytest

import grass

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
