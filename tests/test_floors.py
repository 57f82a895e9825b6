"""No library tolerance has an absolute floor.

A floor such as ``max(1.0, |x|)`` makes a tolerance absolute below |x| = 1,
so at small curvature scales it bounds a quantity that scales with c by a
fixed number, and verdicts start to depend on c.  This scans the syntax tree
of every library module for ``max`` calls with a literal 1.0 among their
arguments (an integer 1 floors a count, such as the number of trials).
The random operators the catalog draws are normalised to unit norm, not
floored.  The one floor allowed is the catalog's residual, which compares
the sides of an identity at c = sign(c), where no quantity scales with c.
"""

import ast
from pathlib import Path

import pytest

import crosscurv

PACKAGE = Path(crosscurv.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))

#: module -> functions allowed to floor at 1: c-free normalisations only
ALLOWED: dict = {"ledger": {"_residual"}}


def unit_floors(source: str) -> list:
    """Names of the functions holding a ``max(..., 1.0, ...)`` call, once
    per call; module-level calls are listed as '<module>'."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "max"
                and any(isinstance(a, ast.Constant) and a.value == 1.0
                        and isinstance(a.value, float) for a in node.args)):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_scanner_flags_a_floor():
    src = ("x = max(1.0, y)\n"
           "def f(a):\n    return a / max(1.0, abs(a))\n"
           "def g(a, s):\n    return max(s, a) + max(1, a) + max(a, 2.0)\n")
    assert unit_floors(src) == ["<module>", "f"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_library_module_has_no_absolute_floor(path):
    floors = unit_floors(path.read_text(encoding="utf-8"))
    allowed = ALLOWED.get(path.stem, set())
    assert [f for f in floors if f not in allowed] == []
    assert len(floors) == len(set(floors))  # one floor per allowed function
