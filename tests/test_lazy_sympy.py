"""No command loads sympy or a thread pool; every command freezes the
collector at exit.

Each case runs in a fresh interpreter.  ``import crosscurv`` and every
command, the symbolic ones (ledger, report) included, must leave sympy
unloaded: the ledger computes on its own exact Laurent polynomials, and
sympy is only the tests' oracle.  So must every ledger chain variant and
check called from the API.  ``concurrent.futures`` must stay unloaded after
the import and after every command: the certificate runs serially, and the
module would cost a cold start a few milliseconds.

A command registers ``gc.freeze`` to run at exit, so finalization skips the
collections over what numpy and crosscurv hold.  Each script registers its
own exit handler first; atexit runs handlers last in, first out, so that
handler reads the freeze count after crosscurv's.  Importing the library
registers nothing.  The documents a cold command writes, to stdout or to
``--out``, are the pinned ones.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import crosscurv

SRC = str(Path(crosscurv.__file__).resolve().parents[1])

FROZEN_AT_EXIT = """
import atexit, gc
atexit.register(lambda: print(gc.get_freeze_count() > 0))
"""

SCRIPT = FROZEN_AT_EXIT + """
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

IMPORT_ONLY = FROZEN_AT_EXIT + """
import crosscurv
import crosscurv.cli
"""

#: what the installed ``crosscurv`` script runs
ENTRY_POINT = "import sys; from crosscurv.cli import main; sys.exit(main())"

HP2 = ["--space", "hp", "--m", "2", "--trials", "2", "--format", "json"]
OP2 = ["--space", "op", "--m", "2", "--seed", "3", "--format", "json"]
GOLDEN = Path(__file__).resolve().parent / "golden"


def _python(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", *args], env=env,
                          capture_output=True)


def _run(*args) -> list:
    proc = _python(*args)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode().splitlines()


@pytest.mark.parametrize("argv,exit_code", [
    (["model", *HP2], 0),
    (["verify", *HP2], 4),
    (["certify", *HP2], 0),
    (["ledger", "--format", "json"], 0),
    (["report", *HP2], 0),
], ids=["model", "verify", "certify", "ledger", "report"])
def test_no_command_loads_sympy(argv, exit_code):
    after_import, after_command, frozen_at_exit = _run(SCRIPT, *argv)
    assert after_import == "False False"
    assert after_command == f"{exit_code} False False"
    assert frozen_at_exit == "True"


def test_importing_the_library_registers_no_exit_hook():
    assert _run(IMPORT_ONLY) == ["False"]


def test_cold_report_writes_the_pinned_document(tmp_path):
    out = tmp_path / "report_op2.json"
    proc = _python(ENTRY_POINT, "report", *OP2, "--out", str(out))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b""
    assert out.read_bytes() == (GOLDEN / "report_op2.json").read_bytes()


def test_cold_verify_prints_the_pinned_document():
    proc = _python(ENTRY_POINT, "verify", *OP2)
    # verify exits 4 on every model: the required tier holds false displays
    assert proc.returncode == 4, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / "verify_op2.json").read_bytes()


def test_ledger_chains_and_checks_do_not_load_sympy():
    assert _run(CHAINS) == ["False"]
