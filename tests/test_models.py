"""Curvature model construction: exact constants, frame rules, invariances.

The expected numbers here were fixed by independent derivation before the
model code was written; where a tabulated formula disagrees with direct
contraction the tests pin both values and the flag that reports the
conflict.
"""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

import crosscurv.models as models
from crosscurv.division_algebras import quaternion_table
from crosscurv.models import (
    CurvatureModel,
    ModelValidationError,
    build_j_structure,
    build_model,
    family_dimension,
    frame_rule_audit,
    model_constants,
    norm2_closed_claimed,
    norm2_closed_derived,
    reference_constants,
    reference_mu_over_lambda,
)
from crosscurv.tensors import sum_by_key, sum_entries
import dense_oracle
from dense_oracle import check_tensor, dense_operators, kn_product, ricci

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
    r = ricci(mod.R.entries)
    assert np.max(np.abs(r - mod.lam * np.eye(mod.n))) < 1e-10
    chk = check_tensor(mod.R.entries)
    assert np.max(np.abs(chk - (mod.R_norm2 / mod.n) * np.eye(mod.n))) < 1e-9


def test_structure_operator_invariants():
    for family, m in (("complex", 3), ("quaternionic", 2), ("octonionic", 2)):
        J = build_j_structure(family, m)
        assert J.max_structure_residual() < 1e-12
        eye = np.eye(J.n)
        ops = dense_operators(J)
        for a, Ja in enumerate(ops):
            assert np.allclose(Ja @ Ja, -eye, atol=1e-12)
            assert np.allclose(Ja.T, -Ja, atol=1e-12)
            for Jb in ops[a + 1:]:
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
        assert audit.residuals[rule] == 0, rule
    assert audit.passed()


@pytest.mark.parametrize("fill", ["random", "orbit"])
@pytest.mark.parametrize("family,m,nkw", [
    ("sphere", 0, 5), ("complex", 3, None), ("quaternionic", 3, None),
    ("sphere", 0, 9), ("complex", 6, None), ("quaternionic", 5, None),
])
def test_zero_three_coordinates_matches_dense_mask(family, m, nkw, fill,
                                                  monkeypatch):
    # plant entries at random positions, some touching three or more
    # coordinate lines, and compare with the mask over all n^4 components;
    # orbit: each entry also on every image under the permutations of the
    # lines, so that R stays line-symmetric and lines 0..min(m, 4) - 1 are
    # held; else every line is
    mod = build_model(family, m, 1.0, n=nkw)
    R, n = mod.R.entries.copy(), mod.n
    rng = np.random.default_rng(5)
    for _ in range(6):
        key = rng.integers(0, n, size=4)
        at = _line_orbit(key, n, mod.tau) if fill == "orbit" else tuple(key)
        R[at] = rng.uniform(0.1, 9.0)
    symmetric = _load(mod, R)
    want = _zero_three_by_mask(R, n, mod.tau)
    assert want > 0
    assert frame_rule_audit(mod).residuals["zero_three_coordinates"] == want
    assert symmetric == (fill == "orbit")


def _zero_three_by_mask(R, n, tau):
    """zero_three_coordinates from the mask over all n^4 components."""
    coord = np.arange(n) if tau == 0 else np.tile(np.arange(n // (tau + 1)),
                                                  tau + 1)
    labels = coord[np.indices((n,) * 4)]
    distinct = sum(np.all([labels[a] != labels[b] for b in range(a)], axis=0)
                   for a in range(4))
    return np.max(np.abs(R[distinct >= 3]), initial=0.0)


def _line_orbit(key, n, tau):
    """Every image of a four-slot key under the permutations of the
    coordinate lines, as four index arrays: coordinate (alpha, i) ->
    alpha m + i goes to alpha m + sigma(i)."""
    m = n // (tau + 1)
    alpha, line = np.divmod(np.asarray(key), m)
    touched = np.unique(line)
    onto = np.array(list(permutations(range(m), touched.size)))
    images = onto[:, np.searchsorted(touched, line)]
    return tuple((alpha * m + images).T)


def _rule_components(n, tau, i, j):
    """One component of each entry rule, on the coordinate lines i != j:
    same_coordinate_4c, cross_line_sectional_c, paired_plane_2c and
    cross_quad_c at the units 0 and 1 (0 and 0 on the sphere)."""
    b = min(tau, 1) * (n // (tau + 1))
    ai, bi, aj, bj = i, b + i, j, b + j
    return [(ai, bi, ai, bi), (ai, bj, ai, bj), (ai, bi, aj, bj),
            (ai, aj, bi, bj)]


def _hold(mod, keys, values):
    """Make the model hold the nonzeros held for an R with the nonzeros
    (keys, values) (``dense_oracle.holding``); True when R is
    line-symmetric, so that lines 0..min(m, 4) - 1 are held."""
    mod.nz, symmetric = dense_oracle.holding(mod.J, keys, values)
    for cached in ("R_unit", "R"):
        mod.__dict__.pop(cached, None)
    return symmetric


def _whole(mod):
    """A copy of the model that holds every nonzero of its R at c = sign(c)
    on every line (``dense_oracle.whole_hold``)."""
    keys, _, values = mod.R_unit
    return CurvatureModel(family=mod.family, m=mod.m, n=mod.n, tau=mod.tau,
                          c=mod.c, J=mod.J,
                          nz=dense_oracle.whole_hold(mod.J, keys, values))


def _load(mod, R):
    """Make the model hold the nonzeros of the dense R (``_hold``)."""
    keys = np.flatnonzero(R)
    return _hold(mod, keys, R.ravel()[keys])


def _plant(mod, index, value):
    """Add value to the entry at a four-slot index of the model's R at
    c = sign(c)."""
    keys, _, values = mod.R_unit
    _hold(mod, *sum_by_key(
        np.append(keys, np.ravel_multi_index(index, (mod.n,) * 4)),
        np.append(values, value)))


def _pair_gram(Ks, weights, n):
    """sum_t w_t k_t (x) k_t for the pair forms k_t(x, y) = <K_t x, y>:
    entry [x, y, z, w] is sum_t w_t K_t[y, x] K_t[w, z]."""
    U = np.zeros((n * n, len(Ks)))
    for t, K in enumerate(Ks):
        U[:, t] = K.T.reshape(-1)
    return ((U * weights) @ U.T).reshape(n, n, n, n)


def _asum(Ks, weights, n):
    """sum_t w_t A_{K_t}, A_K(x,y,z,w) = <Kx,z><Ky,w> - <Kx,w><Ky,z>."""
    S = _pair_gram(Ks, weights, n)
    return S.transpose(0, 2, 1, 3) - S.transpose(0, 2, 3, 1)


def _dense_curvature(J, c):
    """The model tensor as one C-order n^4 array, from the structure
    operators as matrices: the dense reference for the nonzeros."""
    ops = dense_operators(J)
    T = _asum([np.eye(J.n), *ops], np.ones(len(ops) + 1), J.n)
    if ops:
        T += _pair_gram(ops, np.full(len(ops), 2.0), J.n)
    T *= c
    return T


NONZERO_MODELS = [*(("sphere", 0, n) for n in range(3, 9)),
                  *(("complex", m, None) for m in range(2, 7)),
                  *(("quaternionic", m, None) for m in range(1, 7)),
                  ("octonionic", 2, None)]


@pytest.mark.parametrize("family,m,nkw", NONZERO_MODELS)
def test_nonzeros_equal_the_dense_tensor(family, m, nkw):
    # the lists are the flat indices and values of the nonzeros of the
    # dense construction, bit for bit, at every scale and sign
    for c in (1.0, -1.0, 0.3, -0.3, 2.5, -2.5):
        mod = build_model(family, m, c, n=nkw)
        T = _dense_curvature(mod.J, c)
        keys, slots, unit = mod.R_unit
        assert np.array_equal(keys, np.flatnonzero(T)), c
        assert np.array_equal(slots, np.unravel_index(keys, T.shape)), c
        assert np.array_equal(unit * abs(c), T.ravel()[keys]), c
        assert np.array_equal(mod.R.entries, T), c


@pytest.mark.parametrize("family,m,nkw", [
    ("sphere", 0, 5), ("complex", 2, None), ("octonionic", 2, None),
    ("quaternionic", 3, None),
])
def test_norm_is_the_sum_over_the_nonzeros(family, m, nkw):
    # |R|^2 is c^2 times the square sum of R / |c| over every nonzero, an
    # integer whatever lines are held; at c = +-1 it is the dense square
    # sum exactly
    for c in (1.0, -1.0, 0.3, -2.5):
        mod = build_model(family, m, c, n=nkw)
        unit = mod.R_unit[2]  # R / |c|
        assert mod.R_norm2 == c * c * float(np.sum(unit * unit))
    for c in (1.0, -1.0):
        T = _dense_curvature(build_j_structure(family, m, nkw), c)
        assert build_model(family, m, c, n=nkw).R_norm2 == np.sum(T * T)


@pytest.mark.parametrize("breakage", ["flip-sign", "swap-products"])
def test_broken_table_row_fails_the_structure_gate(monkeypatch, breakage):
    # a quaternion table with one wrong product gives operators that break
    # J^2 = -Id or anticommutation; the swap also leaves a column of the
    # transposed table that is no permutation
    def broken_table():
        idx, sgn = quaternion_table()
        if breakage == "flip-sign":
            sgn[2, 3] *= -1
        else:
            idx[2, [1, 3]] = idx[2, [3, 1]]
        return idx, sgn

    monkeypatch.setattr(models, "quaternion_table", broken_table)
    with pytest.raises(ModelValidationError,
                       match="structure operator invariants fail"):
        build_model("quaternionic", 2, 1.0)


@pytest.mark.parametrize("c", [1.0, -1.0])
@pytest.mark.parametrize("family", ["quaternionic", "octonionic"])
def test_planted_weyl_tensor_fails_the_criticality_gate(monkeypatch, family,
                                                        c):
    # hp2 or op2 plus sign(c) 2^-20 times an algebraic Weyl tensor W of
    # integers, with the frame audit waved through: W is exactly
    # Ricci-flat, so the exact Einstein gate passes, and W o W is not a
    # multiple of g for n >= 5 (in dimension 4 it is).  W is 2 (n - 1)
    # (n - 2) times the Weyl part of T = A ^ B for integer symmetric A and
    # B, and every sum of the gates stays exact.  W breaks the symmetry of
    # the lines, which the build takes from the J_a alone; with m = 2
    # lines the contractions still read every nonzero
    n = family_dimension(family, 2)
    A, B = (a + a.T for a in np.random.default_rng(11).integers(
        -2, 3, size=(2, n, n)))
    T = kn_product(A, B)
    g = np.eye(n)
    W = 2 * (n - 1) * (n - 2) * T - kn_product(
        2 * (n - 1) * ricci(T) - np.trace(ricci(T)) * g, g)
    assert not np.any(ricci(W))
    build = models._curvature_nonzeros

    def planted(J, sign, near):
        keys, vals = build(J, sign, near)
        return sum_entries([(keys, vals),
                            (np.arange(n**4), 2.0**-20 * sign * W.ravel())])

    monkeypatch.setattr(models, "_curvature_nonzeros", planted)
    monkeypatch.setattr(models.FrameAudit, "passed", lambda self: True)
    with pytest.raises(ModelValidationError,
                       match="criticality identity fails"):
        build_model(family, 2, c)


@pytest.mark.parametrize("family,m", [("complex", 3), ("complex", 6),
                                      ("quaternionic", 2)])
def test_structure_that_moves_the_lines_is_refused(monkeypatch, family, m):
    # J_1 negated on line 0 alone still squares to -Id and anticommutes
    # with the other J_a, but no longer commutes with the permutations of
    # the lines: the held lines would not stand for the others, so the
    # build refuses it before any nonzero is built
    build_j, build, built = (models.build_j_structure,
                             models._curvature_nonzeros, [])

    def planted(family, m, n=None):
        J = build_j(family, m, n)
        pi, s = J.perms[0]
        J.perms[0] = (pi, np.where(np.arange(J.n) % m == 0, -s, s))
        assert J.max_structure_residual() == 0
        return J

    monkeypatch.setattr(models, "build_j_structure", planted)
    monkeypatch.setattr(models, "_curvature_nonzeros",
                        lambda *args: built.append(args) or build(*args))
    with pytest.raises(ModelValidationError, match="line symmetry fails"):
        build_model(family, m, 1.0)
    assert built == []


def test_build_and_verdict_never_make_the_dense_tensor(monkeypatch):
    from crosscurv.hessian import stability_verdict

    def refuse(self):
        raise AssertionError("dense R materialised")

    monkeypatch.setattr(CurvatureModel, "R", property(refuse))
    for family, m, c in (("octonionic", 2, 1.0), ("quaternionic", 3, -1.0)):
        rep = stability_verdict(build_model(family, m, c), samples=200)
        assert rep.consistent


def test_build_and_verdict_choose_and_unravel_once(monkeypatch):
    # hp10: one build and verdict choose the nonzeros the gates read once,
    # unravel slot arrays once (those of the nonzeros on lines 0..3) and
    # never make the whole list of R's nonzeros
    from crosscurv.hessian import stability_verdict

    calls = {"choose": 0, "unravel": 0, "whole list": 0}
    choose, unravel = models._choose_nonzeros, np.unravel_index
    build = models._curvature_nonzeros

    def counted(name, function, count=lambda *args: True):
        def call(*args, **kwargs):
            calls[name] += count(*args, **kwargs)
            return function(*args, **kwargs)
        return call

    monkeypatch.setattr(models, "_choose_nonzeros", counted("choose", choose))
    monkeypatch.setattr(np, "unravel_index", counted("unravel", unravel))
    monkeypatch.setattr(models, "_curvature_nonzeros", counted(
        "whole list", build, lambda J, c, near: near.size == J.n))
    model = build_model("quaternionic", 10, 1.0)
    stability_verdict(model, samples=200)
    assert calls == {"choose": 1, "unravel": 1, "whole list": 0}
    assert "R_unit" not in vars(model)


def test_build_and_assembly_stay_under_a_quarter_n4_array():
    # hp10, n = 40: no n^4 array on the build, the audit, the gates or
    # the assembly; the dense build and audit peaked at about 4 n^4
    import tracemalloc

    from crosscurv.hessian import assemble_tt_remainder

    n = 40
    tracemalloc.start()
    try:
        assemble_tt_remainder(build_model("quaternionic", 10, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 8 * n**4


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


@pytest.mark.parametrize("c", [float("nan"), float("inf"), float("-inf"),
                               10**400, Fraction(-10**400, 3)],
                         ids=["nan", "inf", "-inf", "int-past-float",
                              "Fraction-past-float"])
def test_non_finite_scale_is_refused(monkeypatch, c):
    # a Real past the float range overflows float(c): refused as one that
    # is not finite, before any work
    def boom(*a, **k):
        raise AssertionError("built a structure for a refused scale")
    monkeypatch.setattr(models, "build_j_structure", boom)
    with pytest.raises(ValueError, match="must be finite"):
        build_model("quaternionic", 1, c)


@pytest.mark.parametrize("c", [True, False, np.True_, "1", 1j, None],
                         ids=["True", "False", "numpy-True", "str",
                              "complex", "None"])
def test_scale_that_is_not_a_real_is_refused_before_any_work(monkeypatch, c):
    def boom(*a, **k):
        raise AssertionError("built a structure for a refused scale")
    monkeypatch.setattr(models, "build_j_structure", boom)
    with pytest.raises(ValueError, match="must be a real number"):
        build_model("sphere", 0, c, n=5)


@pytest.mark.parametrize("c", [Fraction(1, 3), Fraction(-5, 2),
                               np.float64(-0.5), np.float32(0.1),
                               np.int64(2), 3, 0.1, -1 / 3],
                         ids=["Fraction", "negative-Fraction", "float64",
                              "float32", "int64", "int", "float",
                              "negative-float"])
def test_a_real_scale_builds_the_model_of_its_float(c):
    got, want = (build_model("sphere", 0, x, n=5) for x in (c, float(c)))
    assert type(got.c) is float and got.c == float(c) == want.c
    (keys, _, unit), (keys0, _, unit0) = got.R_unit, want.R_unit
    assert keys.tobytes() == keys0.tobytes()
    assert (unit * abs(got.c)).tobytes() == (unit0 * abs(want.c)).tobytes()
    assert model_constants(got) == model_constants(want)


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


@pytest.mark.parametrize("c", [1e-7, -1e-7, 1e7, 1e76, 1e-200])
def test_scale_outside_the_certified_range_is_refused(c):
    with pytest.raises(ModelValidationError, match="certified range"):
        build_model("quaternionic", 2, c)


@pytest.mark.parametrize("c", [1e-6, -1e-6, 1e6, -1e6])
def test_scale_range_ends_are_admitted(c):
    assert build_model("quaternionic", 1, c).c == c


@pytest.mark.parametrize("family,m,n,dim", [
    ("sphere", 0, 3, 3), ("sphere", 7, 5, 5), ("complex", 2, None, 4),
    ("complex", 3, None, 6), ("quaternionic", 1, None, 4),
    ("quaternionic", 5, None, 20), ("octonionic", 2, None, 16),
    ("sphere", 0, 55108, 55108), ("complex", 27554, None, 55108),
])
def test_family_dimension(family, m, n, dim):
    assert family_dimension(family, m, n) == dim
    assert build_j_structure(family, m, n).n == dim
    assert reference_constants(family, m, n)["n"] == dim


@pytest.mark.parametrize("family,m,n", [
    ("sphere", 0, None), ("sphere", 0, 2), ("complex", 1, None),
    ("complex", 2, 4), ("quaternionic", 0, None), ("octonionic", 3, None),
    ("octonionic", 2, 16), ("nonsense", 2, None),
    ("quaternionic", True, None), ("complex", 2.0, None),
    ("sphere", 0, 5.0), ("sphere", 0, True),
    # above tensors.MAX_DIMENSION the n^4 flat indices overflow int64
    ("sphere", 0, 55109), ("quaternionic", 13778, None),
])
def test_family_dimension_refuses_missing_members(family, m, n):
    with pytest.raises(ValueError):
        family_dimension(family, m, n)
    with pytest.raises(ValueError):
        build_j_structure(family, m, n)
    with pytest.raises(ValueError):
        reference_constants(family, m, n)


def _entry_rules_by_loops(R, n, tau, c):
    """The entry rules, one component at a time (the reference loops)."""
    m = n // (tau + 1)
    coord = np.arange(n) if tau == 0 else np.tile(np.arange(m), tau + 1)
    worst = 0.0
    for i in range(m):
        sel = np.flatnonzero(coord == i)
        eye = np.eye(len(sel))
        round4c = 4.0 * c * (np.einsum("xz,yw->xyzw", eye, eye)
                             - np.einsum("xw,yz->xyzw", eye, eye))
        block = R[np.ix_(sel, sel, sel, sel)]
        worst = max(worst, float(np.max(np.abs(block - round4c))))
    w4 = wc = w2 = wq = 0.0
    for a in range(tau + 1):
        for b in range(tau + 1):
            for i in range(m):
                if a != b:
                    x, y = a * m + i, b * m + i
                    w4 = max(w4, abs(R[x, y, x, y] - 4.0 * c))
                for j in range(m):
                    if i == j:
                        continue
                    u, v = a * m + i, b * m + j
                    wc = max(wc, abs(R[u, v, u, v] - c))
                    if a != b:
                        w2 = max(w2, abs(R[a * m + i, b * m + i,
                                           a * m + j, b * m + j] - 2.0 * c))
                        wq = max(wq, abs(R[a * m + i, a * m + j,
                                           b * m + i, b * m + j] - c))
    return {"single_line_round": worst, "same_coordinate_4c": w4,
            "cross_line_sectional_c": wc, "paired_plane_2c": w2,
            "cross_quad_c": wq}


def _invariance_rules_by_dense_loop(R, ops, c):
    """The invariance rules with every A_K and every pair form of the
    two-slot defect in its own n^4 array: the reference for the audit's
    one GEMM per structure operator."""
    def aform(K):
        return (np.einsum("zx,wy->xyzw", K, K)
                - np.einsum("wx,zy->xyzw", K, K))

    w4 = w2 = wd = wp = 0.0
    for g, Jm in enumerate(ops):
        R4 = np.einsum("ax,by,cz,dw,abcd->xyzw", Jm, Jm, Jm, Jm, R,
                       optimize=True)
        w4 = max(w4, float(np.max(np.abs(R4 - R))))
        R2 = np.einsum("cz,dw,abcd->abzw", Jm, Jm, R, optimize=True)
        w2 = max(w2, float(np.max(np.abs(R2 - R))))
        defect = np.zeros_like(R)
        pairform = np.zeros_like(R)
        for a, Ja in enumerate(ops):
            if a == g:
                continue
            w = Ja.T
            pairform -= 4.0 * c * np.einsum("xy,zw->xyzw", w, w)
            defect += c * (aform(-(Jm @ Ja)) - aform(Ja))
        defect += pairform
        wd = max(wd, float(np.max(np.abs((R2 - R) - defect))))
        wp = max(wp, float(np.max(np.abs((R2 - R) - pairform))))
    return {"four_slot_invariance": w4, "two_slot_invariance": w2,
            "two_slot_defect": wd, "two_slot_defect_pairform": wp}


@pytest.mark.parametrize("fill", ["dense", "sparse", "orbit"])
@pytest.mark.parametrize("family,m,nkw,c", [
    ("sphere", 0, 5, 1.0), ("complex", 3, None, 0.3),
    ("quaternionic", 2, None, -2.5), ("octonionic", 2, None, 1.0),
    ("quaternionic", 5, None, 1.0), ("complex", 6, None, -0.3),
    ("sphere", 0, 9, 7.0),
])
def test_entry_rules_read_their_own_components(family, m, nkw, c, fill,
                                               monkeypatch):
    # dense: distinct random values in every component, so a rule that
    # reads other components than its reference returns another maximum;
    # sparse: a tenth of the nonzeros dropped and 20 entries planted, so a
    # rule that reads only the nonzeros misses the dropped ones, and with
    # m > 4 lines one component of each entry rule dropped on line 4.
    # Both break the symmetry of the lines, so every nonzero is held and
    # every line read (``dense_oracle.whole_hold``).  orbit: 12 random
    # values, 8 at random keys and one at a component of each entry rule,
    # each planted on every image of its key under the permutations of the
    # lines; R stays line-symmetric, and only lines 0..min(m, 4) - 1 are
    # held.  Every residual of the audit must equal its reference exactly.
    # The audit reads the tensor held at c = sign(c), so the plants are
    # made in R / |c| and the references taken at sign(c)
    mod = build_model(family, m, c, n=nkw)
    n, tau = mod.n, mod.tau
    lines = n // (tau + 1)
    rng = np.random.default_rng(9)
    if fill == "dense":
        R = mod.R.entries / abs(c) + rng.uniform(-1.0, 1.0, (n,) * 4)
    elif fill == "sparse":
        R = mod.R.entries / abs(c)
        flat = R.reshape(-1)
        keys = mod.R_unit[0]
        flat[rng.choice(keys, keys.size // 10, replace=False)] = 0.0
        for key in _rule_components(n, tau, 4, 0) if lines > 4 else []:
            R[key] = 0.0
        flat[rng.integers(0, flat.size, 20)] = rng.uniform(-1.0, 1.0, 20)
    else:
        R = mod.R.entries / abs(c)
        for key in [*rng.integers(0, n, size=(8, 4)),
                    *_rule_components(n, tau, 0, 1)]:
            R[_line_orbit(key, n, tau)] += rng.uniform(-1.0, 1.0)
    symmetric = _load(mod, R)
    entry = _entry_rules_by_loops(R, n, tau, mod.sign)
    want = {"zero_three_coordinates": _zero_three_by_mask(R, n, tau),
            **entry,
            **_invariance_rules_by_dense_loop(R, dense_operators(mod.J),
                                              mod.sign)}
    assert frame_rule_audit(mod).residuals == want
    assert symmetric == (fill == "orbit")
    if tau > 0:
        assert min(entry.values()) > 0


@pytest.mark.parametrize("family,m,nkw", [
    ("sphere", 0, 4), ("sphere", 0, 5), ("sphere", 0, 40),
    ("complex", 4, None), ("complex", 5, None), ("complex", 12, None),
    ("quaternionic", 4, None), ("quaternionic", 5, None),
    ("quaternionic", 10, None), ("octonionic", 2, None),
])
def test_gates_read_lines_zero_to_three_of_more_than_four(family, m, nkw):
    # every model holds lines 0..min(m, 4) - 1, with the residuals of the
    # hold of every nonzero and the |R|^2 of the whole list; on at most
    # four lines the held list is the whole list, not built again
    mod = build_model(family, m, -1.0, n=nkw)
    lines = mod.n // (mod.tau + 1)
    assert mod.nz.lines == min(lines, 4)
    line = [k % lines for k in mod.nz.slots]
    assert np.max(line) < min(lines, 4)
    labels = np.sort(line, axis=0)
    assert np.array_equal(mod.nz.touches, 1 + np.count_nonzero(
        labels[1:] != labels[:-1], axis=0))
    keys, slots, values = mod.R_unit
    assert (keys is mod.nz.keys) == (slots is mod.nz.slots) == (lines <= 4)
    whole = frame_rule_audit(_whole(mod)).residuals
    assert frame_rule_audit(mod).residuals == whole
    assert mod.audit.residuals == whole
    assert mod.R_norm2 == dense_oracle.full_list_gates(
        mod.n, keys, values * abs(mod.c))[2]


def test_single_line_round_reads_every_sphere_line():
    # a value off the round tensor on line 3 of sphere5, each line one
    # direction, is read as on any other line of any family
    mod = build_model("sphere", 0, 1.0, n=5)
    _plant(mod, (3, 3, 3, 3), 0.5)
    assert frame_rule_audit(mod).residuals["single_line_round"] == 0.5


#: the models of the oracle grid: sphere3-12, cp2-cp12, hp1-hp16 and op2
GRID = [*(("sphere", 0, n) for n in range(3, 13)),
        *(("complex", m, None) for m in range(2, 13)),
        *(("quaternionic", m, None) for m in range(1, 17)),
        ("octonionic", 2, None)]


@pytest.mark.parametrize("family,m,nkw,c", [
    (*model, c) for model in GRID for c in (1.0, -1.0, 0.3, -2.5e-5)])
def test_held_lines_keep_the_whole_list_gates(family, m, nkw, c):
    # R's own symmetry under the permutations of the lines, which the
    # build takes from the J_a, holds on the whole list.  A model holding
    # lines 0..min(m, 4) - 1 has the audit residuals and notes of one
    # holding every nonzero, and its contractions on lines 0 and 1 and its
    # |R|^2 are the whole list's at c = sign(c), bit for bit, as every sum
    # there is exact; |R|^2 at c is c^2 times that exact sum
    model = build_model(family, m, c, n=nkw)
    n, lines = model.n, model.n // (model.tau + 1)
    keys, _, vals = model.R_unit
    assert dense_oracle.line_symmetric(model.J, keys, vals)
    assert model.nz.lines == min(lines, 4)
    audit = frame_rule_audit(_whole(model))
    assert (audit.residuals, audit.notes) == (model.audit.residuals,
                                              model.audit.notes)
    ric, chk, direct, operator, trace = dense_oracle.full_list_gates(
        n, keys, vals)
    near, r, k, held_trace = models._contractions(model)
    assert np.array_equal(r, ric[np.ix_(near, near)])
    assert np.array_equal(k, chk[np.ix_(near, near)])
    assert model.nz.unit_norm2() == direct == operator == trace == held_trace
    assert model.R_norm2 == c * c * direct


@pytest.mark.parametrize("family,m,nkw", [
    ("sphere", 0, 7), ("complex", 6, None), ("quaternionic", 5, None)])
def test_contractions_on_two_lines_equal_the_whole_sums(family, m, nkw):
    # R plus integers planted on the orbits of 8 random keys that touch at
    # most two lines stays line-symmetric, so the model holds lines 0..3;
    # its Ricci and self-contraction on lines 0 and 1 and its weighted
    # |R|^2 are those of the whole list, exactly
    mod = build_model(family, m, 1.0, n=nkw)
    R, n, tau = mod.R.entries.copy(), mod.n, mod.tau
    lines = n // (tau + 1)
    rng = np.random.default_rng(3)
    planted = 0
    while planted < 8:
        key = rng.integers(0, n, size=4)
        if np.unique(key % lines).size <= 2:
            R[_line_orbit(key, n, tau)] += rng.integers(1, 4)
            planted += 1
    assert _load(mod, R)
    keys = np.flatnonzero(R)
    ric, chk, direct, _, _ = dense_oracle.full_list_gates(
        n, keys, R.ravel()[keys])
    near, r, k, trace = models._contractions(mod)
    assert np.array_equal(r, ric[np.ix_(near, near)])
    assert np.array_equal(k, chk[np.ix_(near, near)])
    assert float(np.sum(mod.nz.weights * mod.nz.values**2)) == direct
    assert trace == direct


@pytest.mark.parametrize("family,m", [("complex", 2), ("quaternionic", 2),
                                      ("octonionic", 2)])
def test_planted_entry_moves_two_slot_defect_by_its_size(family, m):
    # the pullback by J_g moves the entry to another position, so the
    # deviation from the exact defect is the planted value, twice
    mod = build_model(family, m, 1.0)
    assert frame_rule_audit(mod).residuals["two_slot_defect"] == 0.0
    _plant(mod, (0, 1, 2, 3), 0.375)
    assert frame_rule_audit(mod).residuals["two_slot_defect"] == 0.375
