"""No command loads sympy or a thread pool.

Each case runs in a fresh interpreter.  ``import crosscurv`` and every
command, the symbolic ones (ledger, report) included, must leave sympy
unloaded: the ledger computes on its own exact Laurent polynomials, and
sympy is only the tests' oracle.  So must every ledger chain variant and
check called from the API.  ``concurrent.futures`` must stay unloaded after
the import and after every command: the certificate runs serially, and the
module would cost a cold start a few milliseconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import crosscurv

SRC = str(Path(crosscurv.__file__).resolve().parents[1])

SCRIPT = """
import contextlib, io, sys
import crosscurv
import crosscurv.cli
print("sympy" in sys.modules, "concurrent.futures" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = crosscurv.cli.main(sys.argv[1:])
print(code, "sympy" in sys.modules, "concurrent.futures" in sys.modules)
"""

CHAINS = """
import sys
from crosscurv.ledger import (a4_variants, expand_theorem_conformal,
                              expand_theorem_tt, noncompact_chain,
                              quadratic_completion_checks)
for variant in ("printed", "doubled_rr"):
    for a4 in ("printed", "composed"):
        str(expand_theorem_tt(variant, a4).comparisons)
for assembly in ("corrected", "printed"):
    str(expand_theorem_conformal(assembly).polynomial())
str(noncompact_chain().inequality_log)
str(a4_variants())
str(quadratic_completion_checks())
print("sympy" in sys.modules)
"""

HP2 = ["--space", "hp", "--m", "2", "--trials", "2", "--format", "json"]


def _run(*args) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", *args], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


@pytest.mark.parametrize("argv,exit_code", [
    (["model", *HP2], 0),
    (["verify", *HP2], 4),
    (["certify", *HP2], 0),
    (["ledger", "--format", "json"], 0),
    (["report", *HP2], 0),
], ids=["model", "verify", "certify", "ledger", "report"])
def test_no_command_loads_sympy(argv, exit_code):
    after_import, after_command = _run(SCRIPT, *argv)
    assert after_import == "False False"
    assert after_command == f"{exit_code} False False"


def test_ledger_chains_and_checks_do_not_load_sympy():
    assert _run(CHAINS) == ["False"]
