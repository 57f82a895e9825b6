"""sympy loads only on paths that do symbolic work, and no command loads a
thread pool.

Each case runs in a fresh interpreter: ``import crosscurv`` and the
numeric commands (model, verify, certify) must leave sympy unloaded; the
symbolic ones (ledger, report) must load it.  ``concurrent.futures`` must
stay unloaded after the import and after every command: the certificate
runs serially, and the module would cost a cold start a few milliseconds.
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

HP2 = ["--space", "hp", "--m", "2", "--trials", "2", "--format", "json"]


@pytest.mark.parametrize("argv,exit_code,loaded", [
    (["model", *HP2], 0, False),
    (["verify", *HP2], 4, False),
    (["certify", *HP2], 0, False),
    (["ledger", "--format", "json"], 0, True),
    (["report", *HP2], 0, True),
], ids=["model", "verify", "certify", "ledger", "report"])
def test_sympy_loads_only_for_symbolic_commands(argv, exit_code, loaded):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *argv], env=env,
                          capture_output=True, text=True, check=True)
    after_import, after_command = proc.stdout.splitlines()
    assert after_import == "False False"
    assert after_command == f"{exit_code} {loaded} False"
