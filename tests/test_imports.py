"""Every package module, test file and demo uses each name it imports.
There is no linter in the toolchain, so this stdlib-ast check stands in for
one; the package's __init__.py is left out because its imports are the
package's re-exports."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dvmbeam"
MODULES = sorted(
    [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py"))
)


def unused_imports(source: str) -> list:
    """Names bound by import statements anywhere in source and never read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations ("NetworkConfig") read names too
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("module", MODULES, ids=lambda p: str(p.relative_to(
    SRC if p.parent == SRC else ROOT)))
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_check_sees_unused_names():
    src = ("from __future__ import annotations\n"
           "import os, sys as system\n"
           "from x import a, b as c, d\n"
           "def f(v: 'a') -> int:\n"
           "    import json\n"
           "    return os.sep + d\n")
    assert unused_imports(src) == ["c (line 3)", "json (line 5)", "system (line 2)"]
