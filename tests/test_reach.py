"""Every function in ``src/crosscurv`` is reached by a command or a demo,
or is named in ``UNREACHED`` with the reason it stays.

The scan runs every subcommand on a small grid of models (``MODELS``),
in every output format on the two smallest, then ``ledger`` in every
format, ``certify --p 4``, one ``report`` whose options come from a
``--config`` file, and each demo.  All of it runs in one fresh interpreter
under ``sys.setprofile``, which records the code of every Python frame it
sees.  A fresh interpreter counts the calls made while the package is
imported and the first call behind each ``functools.lru_cache`` as a cold
command makes them, whatever other tests ran before in this process.

A function is a ``def`` in a module of the package, decorated and nested
ones included; its code starts at its first decorator.  Each is named
``module.qualname`` from the module's syntax tree (``co_qualname`` is new
in Python 3.11), so the names read the same on every supported Python.

The test compares sets: a function that nothing reaches and the list does
not name fails it, and so does a listed function that a command reaches
or that is gone.  Code that only tests read belongs with the tests, in
``tests/dense_oracle.py``.
"""

import ast
import contextlib
import functools
import importlib.util
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# located without importing it, so that the scan sees its import
PACKAGE = Path(importlib.util.find_spec("crosscurv").origin).resolve().parent

#: the first six stay while the benchmark reads the dense tensor and the
#: dense form; ROADMAP item 4a retires both reads
BENCH = "bench/run.py reads model.R.entries and qf.matrix"
#: module.qualname -> why the function stays though nothing in the scan
#: calls it
UNREACHED = {
    "models.CurvatureModel.R": f"the dense tensor; {BENCH}",
    "tensors.CurvTensor4.__post_init__":
        f"the check of the dense tensor CurvatureModel.R makes; {BENCH}",
    "hessian.QuadForm.places":
        f"the basis rows of each block, for QuadForm.unit; {BENCH}",
    "hessian.QuadForm.places.<locals>.copies":
        f"the occurrences of one component, for QuadForm.places; {BENCH}",
    "hessian.QuadForm.unit":
        f"the dense form at c = sign(c), for QuadForm.matrix; {BENCH}",
    "hessian.QuadForm.matrix": f"the dense form; {BENCH}",
    "laurent.Laurent._sympy_":
        "the hook sympy.sympify calls: the tests' sympy oracle converts "
        "every ledger coefficient through it",
    "laurent.Laurent.__rtruediv__":
        "number / Laurent, whose result and TypeError test_laurent pins",
}

FORMATS = ("json", "csv", "text")
#: the grid, both signs of each: the sphere (no structure operator), one,
#: two and three lines, tau = 1, 3 and 7.  The first two run every command
#: in every format; the rest, whose certificates cost the most, in json
MODELS = (("sphere", "--n", "5"), ("hp", "--m", "1"), ("cp", "--m", "3"),
          ("hp", "--m", "2"), ("op", "--m", "2"))
CONFIG = "space=hp\nm=2\nsign=noncompact\ntrials=2\nformat=csv\n"


def commands(config_path: str) -> list:
    """The argument lists of the scan's command runs."""
    runs = [["ledger", "--format", fmt] for fmt in FORMATS]
    for k, (space, flag, size) in enumerate(MODELS):
        for sign in ("compact", "noncompact"):
            for command in ("model", "verify", "certify", "report"):
                for fmt in FORMATS if k < 2 else FORMATS[:1]:
                    runs.append([command, "--space", space, flag, size,
                                 "--sign", sign, "--trials", "2",
                                 "--format", fmt])
    runs.append(["certify", "--space", "hp", "--m", "2", "--p", "4"])
    runs.append(["report", "--config", config_path])
    return runs


def defined_functions() -> dict:
    """(file, first line) -> ``module.qualname`` of every ``def`` in the
    package's modules.  The first line is that of the first decorator,
    where the function's code starts."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                found[str(path), first] = f"{path.stem}.{name}"
                visit(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def scan() -> dict:
    """(file, first line) -> ``co_qualname`` (None before Python 3.11) of
    the code of every Python frame that the command runs and the demos
    enter.  The previous profile function is restored however the scan
    ends."""
    seen = set()

    def profile(frame, event, arg):
        seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        from crosscurv.cli import main
        with tempfile.TemporaryDirectory() as folder:
            config = os.path.join(folder, "run.cfg")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(CONFIG)
            for argv in commands(config):
                with contextlib.redirect_stdout(io.StringIO()):
                    main(argv)
        for demo in sorted((ROOT / "demos").glob("*.py")):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno):
            getattr(code, "co_qualname", None) for code in seen}


@functools.lru_cache(maxsize=None)
def scanned() -> dict:
    """``scan`` run in a fresh interpreter on the package found here."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, __file__], env=env, cwd=ROOT,
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return {(path, line): name for path, line, name in json.loads(proc.stdout)}


def test_every_function_is_reached_or_listed_with_its_reason():
    called = scanned()
    unreached = {name for key, name in defined_functions().items()
                 if key not in called}
    assert unreached == set(UNREACHED)


def test_each_function_is_named_as_its_code_names_itself():
    # from Python 3.11 the code carries its qualified name
    reached = {key: f"{Path(key[0]).stem}.{name}"
               for key, name in scanned().items() if name is not None}
    for key, name in defined_functions().items():
        assert reached.get(key, name) == name


if __name__ == "__main__":
    print(json.dumps([[*key, name] for key, name in sorted(scan().items())]))
