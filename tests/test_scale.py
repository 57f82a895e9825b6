"""Verdicts do not depend on the curvature scale.

The model at scale c is c times a tensor of small integers, the one at
c = sign(c), and that is what the model holds.  The construction gates,
the identity catalog and the trace-free form all read it: the gates are
exact equalities on integer sums, and each catalog residual is taken on
the sides of its identity there.  So every gate decision, catalog outcome
and catalog residual at c is its value at c = sign(c), and |c|^k is
applied only to the values a document prints.  The one exception is the
literal k-pairing residual, which pairs a degree-2 side with a degree-0
one.  The form is certified at unit scale beside the factor c^2, so its
certificate is c^2 times the one at c = sign(c).
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crosscurv.models as models
from crosscurv.hessian import assemble_tt_remainder, min_eigen_tt
from crosscurv.ledger import identity_catalog, verify_identity_numeric
from crosscurv.models import ModelValidationError, build_model
from crosscurv.tensors import flat_index, sum_by_key

MODELS = {"hp2": ("quaternionic", 2), "cp2": ("complex", 2),
          "op2": ("octonionic", 2)}

#: the literal k-pairing display pairs a degree-2 side with a degree-0 one:
#: its residual moves with c, so its outcome and the rescaled residual of
#: the trial whose details are kept are compared; every other residual is
#: the one at c = sign(c), bit for bit
LITERAL = "k-pairing-closed-form"


def _plant(monkeypatch, defect: float) -> None:
    """Make the builder add defect * sign(c) times the round tensor to the
    nonzeros of R at c = sign(c)."""
    build = models._curvature_nonzeros

    def planted(J, sign, near):
        keys, vals = build(J, sign, near)
        rk, rv = models._aform_entries(J.n, np.arange(J.n), np.ones(J.n),
                                       near)
        return sum_by_key(np.concatenate([keys, rk]),
                          np.concatenate([vals, defect * sign * rv]))

    monkeypatch.setattr(models, "_curvature_nonzeros", planted)


def _gate_decision(family: str, m: int, c: float) -> str:
    """'admitted', or the refusing gate's message up to its residual."""
    try:
        build_model(family, m, c)
    except ModelValidationError as exc:
        return str(exc).split(":")[0]
    return "admitted"


def _findings(key: str, c: float) -> list:
    model = build_model(*MODELS[key], c)
    return [verify_identity_numeric(name, model, trials=2, seed=3)
            for name in identity_catalog()]


@lru_cache(maxsize=None)
def _unit_findings(key: str, sign: float) -> tuple:
    return tuple(_findings(key, sign))


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(sorted(MODELS)),
       exponent=st.floats(-6.0, 6.0),
       sign=st.sampled_from([1.0, -1.0]))
def test_catalog_is_the_same_at_every_scale(key, exponent, sign):
    c = sign * 10.0**exponent
    for got, ref in zip(_findings(key, c), _unit_findings(key, sign)):
        assert got["outcome"] == ref["outcome"], (got["id"], c)
        if got["id"] == LITERAL:
            pairs = [(got["details"]["residual_rescaled"],
                      ref["details"]["residual_rescaled"])]
        else:
            pairs = [(got["residual"], ref["residual"])]
        if "residual_corrected" in ref.get("details", {}):
            pairs.append((got["details"]["residual_corrected"],
                          ref["details"]["residual_corrected"]))
        for g, r in pairs:
            assert g == r, (got["id"], c)


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(sorted(MODELS)),
       exponent=st.floats(-6.0, 6.0),
       sign=st.sampled_from([1.0, -1.0]),
       defect=st.sampled_from([0.0, 1e-14, 1e-9]),
       audit=st.booleans())
def test_gate_decisions_are_the_same_at_every_scale(key, exponent, sign,
                                                    defect, audit):
    # the gates are exact, so any planted defect is refused, 1e-14 of the
    # model's size too; without the frame audit it reaches the Einstein
    # gate
    if defect == 0:
        want = "admitted"
    else:
        want = "frame audit failed" if audit else "Einstein identity fails"
    with pytest.MonkeyPatch.context() as mp:
        _plant(mp, defect)
        if not audit:
            mp.setattr(models.FrameAudit, "passed", lambda self: True)
        for c in (sign * 10.0**exponent, sign):
            assert _gate_decision(*MODELS[key], c) == want, c


@pytest.mark.parametrize("c", [1.0, -1.0, 1e-6, -1e-6])
def test_relative_defect_is_refused_at_small_scale(monkeypatch, c):
    # 1e-9 of the model's own size fails the frame audit at every scale;
    # an absolute 1e-12 gate let it through at |c| = 1e-6
    _plant(monkeypatch, 1e-9)
    with pytest.raises(ModelValidationError, match="frame audit failed"):
        build_model("quaternionic", 2, c)


#: the gates of the build in their order, each as the head of its message
GATES = ("curvature rules fail", "frame audit failed",
         "Einstein identity fails", "criticality identity fails",
         "norm consistency fails")


@pytest.mark.parametrize("step", [1, -1])
@pytest.mark.parametrize("c", [1.0, -1.0, 1e-6, -1e6])
def test_one_flipped_entry_is_refused_by_every_gate(monkeypatch, c, step):
    # R(e_0, e_1, e_0, e_1) of hp2 at c = sign(c) moved by +-1, with every
    # gate before the one under test waved through: each gate refuses it
    # on its own, at every scale.  The Einstein and criticality gates are
    # waved through by handing them the contractions they ask for (n = 8,
    # so |R|_1^2 / n is exact)
    build, contract = models._curvature_nonzeros, models._contractions
    waved: list = []

    def flipped(J, sign, near):
        keys, vals = build(J, sign, near)
        vals = vals.copy()
        vals[np.searchsorted(keys, flat_index(J.n, (0, 1, 0, 1)))] += step
        return keys, vals

    def contractions(model):
        near, ric, chk, trace = contract(model)
        eye = np.eye(near.size)
        if GATES[2] in waved:
            ric = models.einstein_constant(model.n, model.tau,
                                           model.sign) * eye
        if GATES[3] in waved:
            chk = model.nz.unit_norm2() / model.n * eye
        return near, ric, chk, trace

    monkeypatch.setattr(models, "_curvature_nonzeros", flipped)
    monkeypatch.setattr(models, "_contractions", contractions)
    for gate in GATES:
        assert _gate_decision("quaternionic", 2, c) == gate, waved
        waved.append(gate)
        if gate == GATES[0]:
            monkeypatch.setattr(models, "check_curvature_rules",
                                lambda *args: None)
        if gate == GATES[1]:
            monkeypatch.setattr(models.FrameAudit, "passed", lambda self: True)


#: the certified forms; on hp3 and cp3 Jacobi on the rounded c^2 M made a
#: scale-dependent number of rotations (hp3: 140 to 183)
FORMS = {**MODELS, "hp3": ("quaternionic", 3), "cp3": ("complex", 3)}


@lru_cache(maxsize=None)
def _unit_form(key: str, sign: float) -> tuple:
    qf = assemble_tt_remainder(build_model(*FORMS[key], sign))
    return qf.unit, min_eigen_tt(qf, samples=1_000, seed=0)


@settings(max_examples=40, deadline=None)
@given(key=st.sampled_from(sorted(FORMS)),
       exponent=st.floats(-6.0, 6.0),
       sign=st.sampled_from([1.0, -1.0]))
def test_form_is_c_squared_times_the_unit_form(key, exponent, sign):
    # the unit form is the one at c = sign(c), bit for bit, so its nonzero
    # pattern is too; the certificate runs on it, so it makes the same
    # rotations and its values are c^2 times those at c = sign(c)
    c = sign * 10.0**exponent
    unit, base = _unit_form(key, sign)
    qf = assemble_tt_remainder(build_model(*FORMS[key], c))
    assert qf.scale == c * c
    assert np.array_equal(qf.unit, unit)
    assert np.array_equal(qf.matrix != 0, unit != 0)
    cert = min_eigen_tt(qf, samples=1_000, seed=0)
    assert cert.rotations == base.rotations
    assert cert.consistent == base.consistent
    for name in ("eig_min", "eig_max", "rayleigh_min", "residual_bound"):
        assert getattr(cert, name) == c * c * getattr(base, name), name
