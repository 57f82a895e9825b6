"""The identity catalog's contractions against their dense twins.

The catalog reads a model only through the nonzeros of R and the (pi, s)
of the structure operators.  Each of its contractions is pinned here to
1e-13 relative against its dense copy in the tests' oracle
(``dense_oracle``), on the dense R at c = sign(c), which the catalog
reads whatever |c|, and the dense structure operators, at c = +-1 and at
c = 1e3.  The catalog reads the entry lists the trace-free form is
assembled from: its curvature action and structure
average are the form's maps L and G, and the K_PAIR and RR_KN pairings
sum their own lists, so a fault in those lists cannot hide in both the
form and the catalog; a planted one fails curvature-action-affine.  No
``model``, ``verify``, ``certify`` or ``report`` process makes the dense
R, and the library has no dense structure operators to make.
"""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import crosscurv
from crosscurv import ledger, tensors
from crosscurv.models import build_model
from crosscurv.tensors import random_symtensor
from dense_oracle import (
    compose_and_ricci,
    dense_operators,
    from_lambda2,
    k_pairing,
    lambda2_pushforward,
    pair_vector,
    r_ring,
    ricci,
    rr_kn_pairing,
    tilde,
    to_lambda2,
)

MODELS = {"sphere5": ("sphere", 0, 5), "cp2": ("complex", 2, None),
          "cp3": ("complex", 3, None), "hp1": ("quaternionic", 1, None),
          "hp2": ("quaternionic", 2, None), "op2": ("octonionic", 2, None),
          "hp4": ("quaternionic", 4, None)}

TOL = 1e-13


@lru_cache(maxsize=None)
def _model(key: str, c: float):
    family, m, n = MODELS[key]
    return build_model(family, m, c, n=n)


def _close(got, want) -> bool:
    """max |got - want| within TOL of max(1, max |want|)."""
    gap = float(np.max(np.abs(np.subtract(got, want))))
    return gap <= TOL * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.parametrize("c", [1.0, -1.0, 1e3])
@pytest.mark.parametrize("key", sorted(MODELS))
def test_sparse_contractions_equal_the_dense_ones(key, c):
    model = _model(key, c)
    n, R = model.n, _model(key, np.sign(c)).R.entries
    arrays = ledger._CatalogArrays(model)
    rng = np.random.default_rng(17)
    h = random_symtensor(n, rng)
    h /= np.linalg.norm(h)
    P1 = ledger._unit_curvature(arrays, rng)
    X = rng.standard_normal((P1.shape[0], 3))

    assert _close(ledger._apply(arrays, "IP_RRING_H", h), r_ring(R, h))
    assert _close(ledger._pairing(arrays, "K_PAIR", h), k_pairing(R, h))
    assert _close(ledger._pairing(arrays, "RR_KN", h), rr_kn_pairing(R, h))
    P = to_lambda2(R)
    assert np.array_equal(arrays.P, P)
    assert _close(ledger._apply(arrays, "IP_H_HTILDE", h), tilde(h, model.J))
    push, omega = arrays.structure
    for J, (src, sign), om in zip(dense_operators(model.J), push, omega.T):
        assert np.array_equal(sign[:, None] * X[src],
                              lambda2_pushforward(J) @ X)
        assert np.array_equal(om, pair_vector(J.T))

    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    R1 = from_lambda2(n, P1)
    _, composed = compose_and_ricci(R, R1)
    sum1 = sum2 = 0.0
    for J in dense_operators(model.J):
        y = J @ x
        sum1 += np.einsum("i,k,la,iakl->", x, y, J, R1)
        sum2 += np.einsum("i,j,la,ijal->", x, y, J, R1)
    want = (x @ composed @ x, x @ ricci(R1) @ x, sum1, sum2)
    got = ledger._ricci_trace_terms(model, arrays, P1, x)
    for g, w in zip(got, want):
        assert _close(g, w)


def test_the_catalog_releases_its_arrays():
    # a direct call and the whole catalog each return holding nothing of
    # the model's size (hp10, n = 40: the catalog's arrays and the draw's
    # 4-subset index arrays come to 17 MiB), so that report's certificate
    # does not run beside them, and nothing is kept between calls.
    # A run on hp1 first makes the one-time imports, and the model's own
    # nonzero list, cached on the model, is read before the baseline.  The
    # findings are those of one call per identity
    import gc
    import tracemalloc

    ledger.verify_catalog(_model("hp1", 1.0), trials=1)
    model = build_model("quaternionic", 10, 1.0)
    model.R_keys
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        one = ledger.verify_identity_numeric("compose-structure", model,
                                             trials=2, seed=5)
        gc.collect()
        after_one = tracemalloc.get_traced_memory()[0] - base
        found = ledger.verify_catalog(model, trials=2, seed=5)
        gc.collect()
        after_all = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert after_one <= 2**19 and after_all <= 2**19
    names = list(ledger.identity_catalog())
    want = [ledger.verify_identity_numeric(name, model, trials=2, seed=5)
            for name in names]
    assert found == want and one == want[names.index("compose-structure")]


@pytest.mark.parametrize("dropped", ["IP_H_HTILDE", "IP_RRING_H"])
def test_the_catalog_checks_the_forms_own_maps(monkeypatch, dropped):
    # curvature-action-affine applies the structure average G and the
    # curvature action L from the entry lists the form is assembled from,
    # so one entry lost from either list fails it
    model = _model("hp2", 1.0)
    entries = ledger._term_entries

    def lossy(model, key, nz):
        rows, cols, v = entries(model, key, nz)
        if key == dropped:
            return rows[1:], cols[1:], v[1:]
        return rows, cols, v

    def outcome():
        return ledger.verify_identity_numeric(
            "curvature-action-affine", model, trials=4, seed=5)["outcome"]

    assert outcome() == "PASS"
    monkeypatch.setattr(ledger, "_term_entries", lossy)
    assert outcome() == "FAIL"


SRC = str(Path(crosscurv.__file__).resolve().parents[1])

#: run one command in a fresh interpreter in which the dense R raises and
#: the structure operators have no dense form
NO_DENSE = """
import contextlib, io, sys
from crosscurv import cli, models

def dense(self):
    raise AssertionError("dense tensor made")

assert not hasattr(models.JStructure, "operators")
models.CurvatureModel.R = property(dense)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code)
"""


@pytest.mark.parametrize("command,code", [("model", 0), ("verify", 4),
                                          ("certify", 0), ("report", 0)])
@pytest.mark.parametrize("space", ["hp", "op"])
def test_no_command_makes_the_dense_tensor(command, code, space):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", NO_DENSE, command, "--space", space,
         "--m", "2", "--trials", "2", "--format", "json"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(code)]
