"""Every name a library module imports is used in that module, and every
public name of ``tensors`` is imported by another library module.

No linter ships with the toolchain, so this scans the syntax tree: a name
bound by ``import`` or ``from ... import`` counts as used when it appears
as a name anywhere else in the module.  ``__init__.py`` re-exports by
design and is exempt, as is ``from __future__ import annotations``.
"""

import ast
from pathlib import Path

import pytest

import crosscurv
from crosscurv import tensors

PACKAGE = Path(crosscurv.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imports(tree) -> list:
    """(module, alias, line) of each name an import binds; ``module`` is
    None for a plain ``import``, and ``__future__`` is left out."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None)
            out += [(module, alias, node.lineno) for alias in node.names]
    return out


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.split(".")[0]: line
             for _, alias, line in imports(tree)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_scanner_flags_an_unused_name():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "b (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_library_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_public_tensors_name_is_imported_by_the_library():
    # a public name no other library module imports is a dense helper that
    # only the tests call, and belongs in their oracle
    imported = {alias.name for path in MODULES if path.stem != "tensors"
                for module, alias, _ in imports(ast.parse(
                    path.read_text(encoding="utf-8")))
                if module == "crosscurv.tensors"}
    assert sorted(set(tensors.__all__) - imported) == []
