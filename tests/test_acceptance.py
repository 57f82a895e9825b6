"""Acceptance gate: one verdict line per criterion.

Each criterion has an honest test that prints
``ACCEPTANCE C<k>: PASS|FAIL -- detail`` and asserts the outcome the
implemented mathematics actually supports.  Where a criterion's reference
constants are internally inconsistent, a companion test asserts the literal
criterion at its stated tolerance and is marked strict-xfail: it documents
exactly what was asked, fails for the recorded reason, and trips the suite
if the underlying discrepancy ever disappears.  The analysis behind every
red criterion lives in the project decisions log.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from crosscurv.hessian import (
    assemble_quadform,
    assemble_tt_remainder,
    compact_tt_coefficients,
    conformal_value,
    hp_scale,
    min_eigen_tt,
    stability_verdict,
)
from crosscurv.ledger import (
    expand_theorem_conformal,
    expand_theorem_tt,
    identity_catalog,
    verify_identity_numeric,
)
from crosscurv.models import (
    build_model,
    frame_rule_audit,
    norm2_closed_claimed,
    reference_constants,
)

# sympy checks the ledger's exact values (converted with sp.sympify)
c, n, tau, lam, mu, R2 = sp.symbols("c n tau lam mu R2")

# every supported model with m <= 4 at unit scale
ALL_SPECS = ([("sphere", 0, nn) for nn in (4, 5, 8, 16)]
             + [("complex", m, None) for m in (2, 3, 4)]
             + [("quaternionic", m, None) for m in (1, 2, 3, 4)]
             + [("octonionic", 2, None)])

AUDIT_KEYS = ("cp2", "cp3", "hp1", "hp2", "op2")
COMPACT_KEYS = ("sphere5", "cp2", "cp3", "hp2", "op2")

_CACHE = {}


def _model(key):
    if key not in _CACHE:
        family, m, nkw = {
            "sphere5": ("sphere", 0, 5),
            "cp2": ("complex", 2, None),
            "cp3": ("complex", 3, None),
            "hp1": ("quaternionic", 1, None),
            "hp2": ("quaternionic", 2, None),
            "op2": ("octonionic", 2, None),
        }[key]
        _CACHE[key] = build_model(family, m, 1.0, n=nkw)
    return _CACHE[key]


def _label(family, m, nn):
    return {"sphere": f"sphere{nn}", "complex": f"cp{m}",
            "quaternionic": f"hp{m}", "octonionic": f"op{m}"}[family]


# ---------------------------------------------------------------- C1


def _c1_data():
    if "c1" not in _CACHE:
        t0 = time.monotonic()
        rows = []
        for family, m, nn in ALL_SPECS:
            model = build_model(family, m, 1.0, n=nn)
            claimed = norm2_closed_claimed(model.n, model.tau, model.c)
            rel = abs(model.R_norm2 - claimed) / abs(claimed)
            rows.append((_label(family, m, nn), model, claimed, rel))
        _CACHE["c1"] = (rows, time.monotonic() - t0)
    return _CACHE["c1"]


def test_c1_constants_and_norm_closed_form(verdict):
    rows, elapsed = _c1_data()
    for label, model, claimed, rel in rows:
        assert model.lam == model.c * (3 * model.tau + model.n - 1)
        assert model.s == model.n * model.lam
        assert model.lam == int(model.lam) and model.s == int(model.s)
    bad = [label for label, model, claimed, rel in rows if rel > 1e-10]
    assert bad == ["hp1", "hp2", "hp3", "hp4", "op2"]
    for label, model, claimed, rel in rows:
        # the gap between the displayed closed form and the contraction
        # is exactly 16 c^2 n tau (tau - 1)
        gap = claimed - model.R_norm2
        assert gap == 16.0 * model.n * model.tau * (model.tau - 1)
    assert elapsed < 5.0
    verdict("ACCEPTANCE C1: FAIL -- lambda and s exact on all 12 models, "
            "but the displayed squared-norm closed form exceeds the direct "
            "contraction by 16 c^2 n tau (tau-1) on hp1-hp4 and op2")


@pytest.mark.xfail(strict=True, reason="displayed closed form differs from "
                   "the contraction by 16 c^2 n tau (tau-1) when tau >= 3")
def test_c1_literal_norm_matches_closed_form_everywhere():
    rows, _ = _c1_data()
    for label, model, claimed, rel in rows:
        assert rel <= 1e-10, label


# ---------------------------------------------------------------- C2


def test_c2_ratio_table(verdict):
    for m in (1, 2, 3, 4):
        ref = reference_constants("quaternionic", m)
        assert ref["ratio_table"] == Fraction(4 * m * (5 * m + 7),
                                              (m + 2) ** 2)
        # the printed quaternionic rows reproduce the displayed closed
        # form, not the direct contraction
        assert ref["ratio_closed_form"] == ref["ratio_table"]
        assert ref["ratio_derived"] != ref["ratio_table"]
    ref = reference_constants("octonionic", 2)
    assert ref["ratio_table"] == Fraction(416, 27)
    assert ref["ratio_derived"] == Fraction(64, 9)
    for m in (2, 3, 4):
        ref = reference_constants("complex", m)
        assert ref["ratio_derived"] == Fraction(8 * m, m + 1)
        assert ref["ratio_table"] == Fraction(m, m + 1)
        assert ref["table_flag"]
    verdict("ACCEPTANCE C2: FAIL -- table rows reproduced exactly and the "
            "complex discrepancy flag raised, but the direct-contraction "
            "ratio differs from the table for every quaternionic row and "
            "for op2 (e.g. hp1 8/3 vs 16/3, op2 64/9 vs 416/27)")


@pytest.mark.xfail(strict=True, reason="direct-contraction ratios disagree "
                   "with the printed table for tau >= 3 families")
def test_c2_literal_direct_ratio_matches_table():
    for m in (1, 2, 3, 4):
        ref = reference_constants("quaternionic", m)
        assert ref["ratio_derived"] == ref["ratio_table"], ("hp", m)
    ref = reference_constants("octonionic", 2)
    assert ref["ratio_derived"] == ref["ratio_table"]


# ---------------------------------------------------------------- C3


def _c3_audits():
    if "c3" not in _CACHE:
        t0 = time.monotonic()
        audits = {key: frame_rule_audit(_model(key)) for key in AUDIT_KEYS}
        _CACHE["c3"] = (audits, time.monotonic() - t0)
    return _CACHE["c3"]


def test_c3_frame_rules(verdict):
    audits, elapsed = _c3_audits()
    violations = {}
    for key, audit in audits.items():
        for rule in audit.gated:
            assert audit.residuals[rule] <= 1e-12, (key, rule)
        bad = {rule: audit.residuals[rule] for rule in audit.reported
               if audit.residuals[rule] > 1e-12}
        if bad:
            violations[key] = bad
    assert set(violations) == {"hp1", "hp2", "op2"}
    for key in ("hp1", "hp2"):
        assert violations[key] == {"two_slot_invariance": 4.0}
    assert violations["op2"] == {"two_slot_invariance": 4.0,
                                 "two_slot_defect_pairform": 4.0}
    assert elapsed < 30.0
    verdict("ACCEPTANCE C3: FAIL -- coordinate rules and four-slot "
            "invariance hold at 1e-12 on all five models, but two-slot "
            "J-invariance fails with residual exactly 4|c| on hp1, hp2, "
            "op2 (the exact two-slot defect identity holds everywhere)")


@pytest.mark.xfail(strict=True, reason="two-slot J-invariance fails with "
                   "residual 4|c| whenever tau >= 3")
def test_c3_literal_every_rule_passes():
    audits, _ = _c3_audits()
    for key, audit in audits.items():
        for rule, residual in audit.residuals.items():
            assert residual <= 1e-12, (key, rule)


# ---------------------------------------------------------------- C4


REQUIRED_IDS = ("curvature-action-affine", "compose-structure",
                "compose-self-structure", "norm-closed-form",
                "kn-pairing-reduction", "compose-ricci-trace")
REPORT_IDS = ("k-pairing-closed-form", "tilde-norm-relation")

EXPECTED_REQUIRED_FAILURES = {
    "compose-self-structure": {"hp1", "hp2", "op2"},
    "norm-closed-form": {"hp1", "hp2", "op2"},
    "kn-pairing-reduction": {"sphere5", "cp2", "cp3", "hp2", "op2"},
    "compose-ricci-trace": {"cp2", "cp3", "hp1", "hp2", "op2"},
}


def _c4_results():
    if "c4" not in _CACHE:
        cat = identity_catalog()
        assert sorted(k for k, v in cat.items()
                      if v.tier == "required") == sorted(REQUIRED_IDS)
        out = {}
        for lemma in (*REQUIRED_IDS, *REPORT_IDS):
            for key in ("sphere5", "cp2", "cp3", "hp1", "hp2", "op2"):
                out[lemma, key] = verify_identity_numeric(
                    lemma, _model(key), trials=100, seed=0)
        _CACHE["c4"] = out
    return _CACHE["c4"]


def test_c4_required_lemma_harness(verdict):
    results = _c4_results()
    failures = {}
    for (lemma, key), res in results.items():
        if lemma in REQUIRED_IDS and res["outcome"] == "FAIL":
            failures.setdefault(lemma, set()).add(key)
        assert res["trials"] in (1, 100)
    assert failures == EXPECTED_REQUIRED_FAILURES
    # report-tier items finish deterministically on every model
    for lemma in REPORT_IDS:
        for key in ("sphere5", "cp2", "cp3", "hp1", "hp2", "op2"):
            again = verify_identity_numeric(lemma, _model(key),
                                            trials=100, seed=0)
            assert again["residual"] == results[lemma, key]["residual"]
    verdict("ACCEPTANCE C4: FAIL -- affine-action and compose-structure "
            "identities pass at 1e-10 over 100 trials everywhere, but four "
            "of the six required displays fail off their valid range "
            "(self-compose and norm closed form on tau >= 3, the pairing "
            "reduction everywhere except hp1, the composition trace with "
            "its printed inner weight off the sphere)")


@pytest.mark.xfail(strict=True, reason="four required displays are "
                   "numerically false on part of the model list")
def test_c4_literal_required_tier_all_pass():
    results = _c4_results()
    for (lemma, key), res in results.items():
        if lemma in REQUIRED_IDS:
            assert res["residual"] <= 1e-10, (lemma, key)


# ---------------------------------------------------------------- C5


def test_c5_symbolic_ledger(verdict):
    tt = expand_theorem_tt(variant="printed", a4="printed")
    rows = {r["term"]: r for r in tt.comparisons}
    assert rows["NORM_DH"]["match"]
    assert sp.simplify(sp.sympify(rows["NORM_DH"]["computed"])
                       - 2 * c * (n + 3 * tau - 3)) == 0
    assert rows["NORM_RRING"]["match"]
    assert sp.simplify(sp.sympify(rows["NORM_RRING"]["computed"])
                       + sp.Rational(1, 2)) == 0
    ce = expand_theorem_conformal(assembly="corrected")
    poly = sp.expand(sp.sympify(ce.polynomial()))
    assert sp.simplify(poly.coeff(mu, 2) - (2 * n - 2)) == 0
    assert sp.simplify(poly.coeff(mu, 1) + 8 * lam) == 0
    assert sp.simplify(poly.coeff(mu, 0) - (4 - n) * R2) == 0
    # every other coefficient comparison is an exact-arithmetic finding
    for chain in (tt, ce):
        for r in chain.comparisons:
            assert isinstance(r["match"], bool)
            assert sp.simplify(sp.sympify(r["claimed"])
                               - sp.sympify(r["computed"])) == 0 or \
                not r["match"]
    verdict("ACCEPTANCE C5: PASS -- derivative-term and curvature-action "
            "coefficients reproduced exactly, conformal polynomial "
            "coefficients reproduced exactly, remaining comparisons "
            "emitted as exact MATCH/MISMATCH findings")


# ---------------------------------------------------------------- C6


def test_c6_conformal_certificates(verdict):
    expected = {"sphere5": 0, "cp2": 288, "hp2": -3712, "op2": -184320}
    for key, want in expected.items():
        got = conformal_value(_model(key))
        assert got == want, key
        if want:
            assert abs(got - want) / abs(want) <= 1e-9
    # sign pattern: neutral sphere, stable cp2, unstable hp2 and op2
    assert conformal_value(_model("sphere5")) == 0
    assert conformal_value(_model("cp2")) > 0
    assert conformal_value(_model("hp2")) < 0
    assert conformal_value(_model("op2")) < 0
    verdict("ACCEPTANCE C6: PASS -- conformal polynomial values at the "
            "first Laplace eigenvalue: sphere 0, cp2 288, hp2 -3712, "
            "op2 -184320, signs matching the stated stability thresholds")


# ---------------------------------------------------------------- C7


def test_c7_tt_eigen_certificates(verdict):
    pinned = {"sphere5": 25.5, "cp2": -4.0, "cp3": 20.0,
              "hp2": 288.0, "op2": -464.0}
    t_op2 = None
    for key in COMPACT_KEYS:
        qf = assemble_tt_remainder(_model(key))
        t0 = time.monotonic()
        cert = min_eigen_tt(qf, samples=100_000, seed=0)
        dt = time.monotonic() - t0
        if key == "op2":
            t_op2 = dt
            assert qf.dim == 135
        assert abs(cert.rayleigh_min - cert.eig_min) <= 1e-6, key
        assert cert.consistent
        assert abs(cert.eig_min - pinned[key]) < 1e-8
        again = min_eigen_tt(qf, samples=100_000, seed=0)
        assert again.rayleigh_min == cert.rayleigh_min
        assert again.eig_min == cert.eig_min
    assert t_op2 < 60.0
    verdict("ACCEPTANCE C7: PASS -- eigenvalue and 1e5-sample Rayleigh "
            "certificates agree within 1e-6 and rerun bit-identically on "
            "all five compact models; the op2 form is 135-dimensional "
            "(n(n+1)/2 - 1 at n = 16)")


# ---------------------------------------------------------------- C8


def test_c8_exponent_scaling(verdict):
    for key in ("sphere5", "cp3", "hp2"):
        model = _model(key)
        s2 = stability_verdict(model, p=2, samples=2_000)
        s4 = stability_verdict(model, p=4, samples=2_000)
        factor = hp_scale(4, model.R_norm2)
        assert abs(s4.epsilon - factor * s2.epsilon) <= \
            1e-12 * abs(factor * s2.epsilon), key
        assert s4.tt_min_eig == s2.tt_min_eig
    # scaling the coefficient set scales the assembled form exactly,
    # so the minimizing direction set is unchanged
    model = _model("cp2")
    coeffs = compact_tt_coefficients(model.n, model.tau, model.c,
                                     model.R_norm2)
    factor = hp_scale(4, model.R_norm2)
    base = assemble_quadform(model, coeffs)
    scaled = assemble_quadform(model,
                               {k: factor * v for k, v in coeffs.items()})
    assert np.allclose(scaled.matrix, factor * base.matrix,
                       rtol=1e-13, atol=0)
    verdict("ACCEPTANCE C8: PASS -- p = 4 certificates equal p = 2 "
            "certificates times (p/2)|R|^(p-2) to 1e-12 relative with the "
            "minimizing direction unchanged")


# ---------------------------------------------------------------- C9


def test_c9_reproducibility(verdict):
    import contextlib
    import io
    from crosscurv.cli import main
    from crosscurv.report import render_json

    def run(args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(args))
        return code, buf.getvalue()

    verify_args = ["verify", "--space", "hp", "--m", "2", "--trials", "5",
                   "--seed", "1", "--format", "json"]
    certify_args = ["certify", "--space", "cp", "--m", "2", "--trials", "5",
                    "--seed", "1", "--format", "json"]
    for args in (verify_args, certify_args):
        code1, out1 = run(args)
        code2, out2 = run(args)
        assert code1 == code2
        assert out1 == out2
        doc = json.loads(out1)
        assert render_json(doc) == out1
    verdict("ACCEPTANCE C9: PASS -- verify and certify reruns are "
            "byte-identical at fixed seed and the JSON documents "
            "round-trip losslessly")
