"""Curvature model construction: exact constants, frame rules, invariances.

The expected numbers here were fixed by independent derivation before the
model code was written; where a tabulated formula disagrees with direct
contraction the tests pin both values and the flag that reports the
conflict.
"""

from fractions import Fraction

import numpy as np
import pytest

from crosscurv.models import (
    CurvatureModel,
    ModelValidationError,
    build_j_structure,
    build_model,
    frame_rule_audit,
    model_constants,
    norm2_closed_claimed,
    norm2_closed_derived,
    reference_constants,
    reference_mu_over_lambda,
)
from crosscurv.tensors import check_tensor, ricci

# family, m, n kw, n, tau, lambda, s, |R|^2, claimed closed form
CONSTANTS = [
    ("sphere", 0, 5, 5, 0, 4, 20, 40, 40),
    ("sphere", 0, 7, 7, 0, 6, 42, 84, 84),
    ("complex", 2, None, 4, 1, 6, 24, 192, 192),
    ("complex", 3, None, 6, 1, 8, 48, 384, 384),
    ("quaternionic", 1, None, 4, 3, 12, 48, 384, 768),
    ("quaternionic", 2, None, 8, 3, 16, 128, 1408, 2176),
    ("octonionic", 2, None, 16, 7, 36, 576, 9216, 19968),
]


@pytest.mark.parametrize("family,m,nkw,n,tau,lam,s,norm2,claimed", CONSTANTS)
def test_exact_constants(family, m, nkw, n, tau, lam, s, norm2, claimed):
    mod = build_model(family, m, 1.0, n=nkw)
    assert mod.n == n and mod.tau == tau
    assert mod.lam == lam and mod.s == s
    assert abs(mod.R_norm2 - norm2) < 1e-9
    assert norm2_closed_claimed(n, tau) == claimed
    assert norm2_closed_derived(n, tau) == norm2
    # closed forms differ exactly when tau > 1, by 16 c^2 n tau (tau - 1)
    assert claimed - norm2 == 16 * n * tau * (tau - 1)


@pytest.mark.parametrize("family,m,nkw", [
    ("sphere", 0, 5), ("complex", 2, None), ("complex", 3, None),
    ("quaternionic", 1, None), ("quaternionic", 2, None),
    ("octonionic", 2, None),
])
def test_einstein_and_critical(family, m, nkw):
    mod = build_model(family, m, 1.0, n=nkw)
    r = ricci(mod.R).entries
    assert np.max(np.abs(r - mod.lam * np.eye(mod.n))) < 1e-10
    chk = check_tensor(mod.R).entries
    assert np.max(np.abs(chk - (mod.R_norm2 / mod.n) * np.eye(mod.n))) < 1e-9


def test_structure_operator_invariants():
    for family, m in (("complex", 3), ("quaternionic", 2), ("octonionic", 2)):
        J = build_j_structure(family, m)
        assert J.max_structure_residual() < 1e-12
        eye = np.eye(J.n)
        for a, Ja in enumerate(J.operators):
            assert np.allclose(Ja @ Ja, -eye, atol=1e-12)
            assert np.allclose(Ja.T, -Ja, atol=1e-12)
            for Jb in J.operators[a + 1:]:
                assert np.allclose(Ja @ Jb + Jb @ Ja, 0.0, atol=1e-12)


GATED = ("zero_three_coordinates", "single_line_round", "same_coordinate_4c",
         "cross_line_sectional_c", "paired_plane_2c", "cross_quad_c",
         "four_slot_invariance", "two_slot_defect")


@pytest.mark.parametrize("family,m", [
    ("complex", 2), ("complex", 3), ("quaternionic", 1),
    ("quaternionic", 2), ("octonionic", 2),
])
def test_frame_rule_audit_gated(family, m):
    mod = build_model(family, m, 1.0)
    audit = frame_rule_audit(mod)
    assert audit.gated == GATED
    for rule in GATED:
        assert audit.residuals[rule] <= 1e-12, rule
    assert audit.passed()


@pytest.mark.parametrize("family,m,nkw", [
    ("sphere", 0, 5), ("complex", 3, None), ("quaternionic", 3, None),
])
def test_zero_three_coordinates_matches_dense_mask(family, m, nkw):
    # plant entries at random positions, some touching three or more
    # coordinate lines, and compare with the mask over all n^4 components
    mod = build_model(family, m, 1.0, n=nkw)
    R, n = mod.R.entries, mod.n
    rng = np.random.default_rng(5)
    for _ in range(6):
        R[tuple(rng.integers(0, n, size=4))] = rng.uniform(0.1, 9.0)
    coord = (np.arange(n) if mod.tau == 0
             else np.tile(np.arange(n // (mod.tau + 1)), mod.tau + 1))
    labels = coord[np.indices((n,) * 4)]
    distinct = sum(np.all([labels[a] != labels[b] for b in range(a)], axis=0)
                   for a in range(4))
    want = np.max(np.abs(R[distinct >= 3]), initial=0.0)
    assert want > 0
    assert frame_rule_audit(mod).residuals["zero_three_coordinates"] == want


def test_build_model_keeps_its_audit():
    mod = build_model("quaternionic", 2, 1.0)
    assert mod.audit.residuals == frame_rule_audit(mod).residuals
    assert "audit" not in repr(mod)


def test_two_slot_pullback_by_family():
    # exact invariance for tau <= 1, exact defect formula always;
    # the pair-form reduction of the defect holds only with closure
    sphere = frame_rule_audit(build_model("sphere", 0, 1.0, n=5))
    assert sphere.residuals["two_slot_invariance"] <= 1e-12
    cp = frame_rule_audit(build_model("complex", 2, 1.0))
    assert cp.residuals["two_slot_invariance"] <= 1e-12
    hp = frame_rule_audit(build_model("quaternionic", 2, 1.0))
    assert hp.residuals["two_slot_invariance"] > 1.0
    assert hp.residuals["two_slot_defect"] <= 1e-12
    assert hp.residuals["two_slot_defect_pairform"] <= 1e-12
    op = frame_rule_audit(build_model("octonionic", 2, 1.0))
    assert op.residuals["two_slot_invariance"] > 1.0
    assert op.residuals["two_slot_defect"] <= 1e-12
    # left multiplications do not close under composition: the reduced
    # form misses the octonionic defect by exactly 4|c|
    assert abs(op.residuals["two_slot_defect_pairform"] - 4.0) < 1e-9
    assert "two_slot_defect_pairform" in op.notes


def test_four_slot_invariance_everywhere():
    for family, m in (("complex", 2), ("quaternionic", 2), ("octonionic", 2)):
        audit = frame_rule_audit(build_model(family, m, 1.0))
        assert audit.residuals["four_slot_invariance"] <= 1e-12


def test_noncompact_duality():
    dual = build_model("quaternionic", 2, -1.0)
    assert not dual.compact
    assert dual.label == "hp2-dual"
    assert dual.lam == -16 and dual.s == -128
    assert abs(dual.R_norm2 - 1408) < 1e-9
    k = model_constants(dual)
    assert k["mu"] is None and k["mu_over_lambda"] is None
    assert "spectral reference" in k["mu_note"]


RATIO_TABLE = [
    # family, m, n kw, closed form, published table, direct contraction
    ("sphere", 0, 5, Fraction(5, 2), Fraction(5, 2), Fraction(5, 2)),
    ("complex", 2, None, Fraction(16, 3), Fraction(2, 3), Fraction(16, 3)),
    ("complex", 3, None, Fraction(6), Fraction(3, 4), Fraction(6)),
    ("complex", 4, None, Fraction(32, 5), Fraction(4, 5), Fraction(32, 5)),
    ("quaternionic", 1, None, Fraction(16, 3), Fraction(16, 3), Fraction(8, 3)),
    ("quaternionic", 2, None, Fraction(17, 2), Fraction(17, 2), Fraction(11, 2)),
    ("quaternionic", 3, None, Fraction(264, 25), Fraction(264, 25), Fraction(192, 25)),
    ("quaternionic", 4, None, Fraction(12), Fraction(12), Fraction(28, 3)),
    ("octonionic", 2, None, Fraction(416, 27), Fraction(416, 27), Fraction(64, 9)),
]


@pytest.mark.parametrize("family,m,nkw,closed,table,derived", RATIO_TABLE)
def test_reference_ratios(family, m, nkw, closed, table, derived):
    ref = reference_constants(family, m, n=nkw)
    assert ref["ratio_closed_form"] == closed
    assert ref["ratio_table"] == table
    assert ref["ratio_derived"] == derived
    # published quaternionic rows follow 4m(5m+7)/(m+2)^2
    if family == "quaternionic":
        assert table == Fraction(4 * m * (5 * m + 7), (m + 2) ** 2)
    # the complex table row m/(m+1) conflicts with the closed form
    if family == "complex":
        assert table == Fraction(m, m + 1)
        assert ref["table_flag"]
    # direct contraction conflicts with the closed form iff tau > 1
    assert bool(ref["computed_flag"]) == (family in ("quaternionic", "octonionic"))


def test_model_constants_block():
    k = model_constants(build_model("complex", 2, 1.0))
    assert k["ratio"] == Fraction(16, 3)
    assert abs(k["ratio_computed"] - 16 / 3) < 1e-12
    assert k["mu_over_lambda"] == 2 and k["mu"] == 12.0
    assert k["table_flag"] and not k["computed_flag"]
    assert k["claimed_matches_direct"]

    k = model_constants(build_model("octonionic", 2, 1.0))
    assert k["ratio"] == Fraction(416, 27)
    assert abs(k["ratio_computed"] - 64 / 9) < 1e-12
    assert not k["claimed_matches_direct"]
    assert k["computed_flag"]


def test_mu_over_lambda_references():
    assert reference_mu_over_lambda("sphere", 0, n=5) == Fraction(5, 4)
    assert reference_mu_over_lambda("complex", 3) == 2
    assert reference_mu_over_lambda("quaternionic", 2) == Fraction(3, 2)
    assert reference_mu_over_lambda("octonionic", 2) == Fraction(4, 3)


def test_validation_errors():
    with pytest.raises(ValueError):
        build_j_structure("complex", 1)
    with pytest.raises(ValueError):
        build_j_structure("octonionic", 3)
    with pytest.raises(ValueError):
        build_j_structure("sphere", 0)  # needs n
    with pytest.raises(ValueError):
        build_model("sphere", 0, 1.0, n=2)
    with pytest.raises(ValueError):
        build_model("complex", 2, 0.0)
    with pytest.raises(ValueError):
        build_model("nonsense", 2, 1.0)


@pytest.mark.parametrize("c", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_scale_is_refused(c):
    with pytest.raises(ValueError):
        build_model("quaternionic", 1, c)


def test_overflowing_norm_is_refused():
    # R itself is finite at c = 1e200; its squared norm is not
    with pytest.raises(ModelValidationError):
        build_model("quaternionic", 1, 1e200)


def test_scale_covariance():
    a = build_model("complex", 2, 1.0)
    b = build_model("complex", 2, 0.5)
    assert np.allclose(b.R.entries, 0.5 * a.R.entries, atol=1e-12)
    assert b.lam == 3.0
    assert abs(b.R_norm2 - 0.25 * a.R_norm2) < 1e-9
