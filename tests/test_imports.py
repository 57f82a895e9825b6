"""Every name a library module imports is used in that module.

No linter ships with the toolchain, so this scans the syntax tree: a name
bound by ``import`` or ``from ... import`` counts as used when it appears
as a name anywhere else in the module.  ``__init__.py`` re-exports by
design and is exempt, as is ``from __future__ import annotations``.
"""

import ast
from pathlib import Path

import pytest

import crosscurv

PACKAGE = Path(crosscurv.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_scanner_flags_an_unused_name():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "b (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_library_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
