"""Each demo prints exactly the recorded output.

The demos run in fresh interpreters and their stdout is compared byte for
byte with ``tests/golden/demos``.  Demo 04 prints every ledger row and the
non-compact inequality log, so a change to a rewrite shows up here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import crosscurv

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(crosscurv.__file__).resolve().parents[1])
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_output():
    assert [d.stem for d in DEMOS] == sorted(
        g.stem for g in (ROOT / "tests" / "golden" / "demos").glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_pinned(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, check=True)
    golden = ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt"
    assert proc.stdout == golden.read_bytes()
