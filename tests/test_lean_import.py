"""``import crosscurv`` leaves the thread pool unloaded.

``concurrent.futures`` costs a few milliseconds of a cold start and only
the Rayleigh sampling of ``hessian.min_eigen_tt`` runs a pool, so it is
imported there.  The check runs in a fresh interpreter, beside the sympy
check of test_lazy_sympy.py.
"""

import os
import subprocess
import sys
from pathlib import Path

import crosscurv

SRC = str(Path(crosscurv.__file__).resolve().parents[1])


def test_import_does_not_load_the_thread_pool():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, crosscurv; print('concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
