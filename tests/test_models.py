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
from dense_oracle import (check_tensor, dense_operators, kn_product,
                          random_curvature, ricci)

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
        assert audit.residuals[rule] <= 1e-12, rule
    assert audit.passed(1e-12 * abs(mod.c))


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
    # lines, so that a model with m > 4 lines holds lines 0..3
    mod = build_model(family, m, 1.0, n=nkw)
    R, n = mod.R.entries.copy(), mod.n
    rng = np.random.default_rng(5)
    for _ in range(6):
        key = rng.integers(0, n, size=4)
        at = _line_orbit(key, n, mod.tau) if fill == "orbit" else tuple(key)
        R[at] = rng.uniform(0.1, 9.0)
    restricted = _load(mod, R)
    want = _zero_three_by_mask(R, n, mod.tau)
    assert want > 0
    assert frame_rule_audit(mod).residuals["zero_three_coordinates"] == want
    assert restricted == (fill == "orbit" and n // (mod.tau + 1) > 4)


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


def _line_restricted(monkeypatch):
    """Record, for each call of the build's choice of nonzeros, whether it
    kept only the nonzeros on lines 0..3."""
    choose, restricted = models._choose_nonzeros, []

    def spy(J, c):
        nz = choose(J, c)
        restricted.append(nz.near is not None)
        return nz

    monkeypatch.setattr(models, "_choose_nonzeros", spy)
    return restricted


def _hold(mod, keys, values):
    """Make the model hold what a build of R with the nonzeros (keys,
    values) holds, chosen on the whole list (``dense_oracle.holding``);
    True when that is lines 0..3."""
    mod.nz = dense_oracle.holding(mod.J, keys, values)
    for cached in ("_R_list", "R"):
        mod.__dict__.pop(cached, None)
    return mod.nz.near is not None


def _load(mod, R):
    """Make the model hold the nonzeros of the dense R (``_hold``)."""
    keys = np.flatnonzero(R)
    return _hold(mod, keys, R.ravel()[keys])


def _plant(mod, index, value):
    """Add value to the entry at a four-slot index of the model's R."""
    _hold(mod, *sum_by_key(
        np.append(mod.R_keys, np.ravel_multi_index(index, (mod.n,) * 4)),
        np.append(mod.R_values, value)))


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
        assert np.array_equal(mod.R_keys, np.flatnonzero(T)), c
        assert np.array_equal(mod.R_values, T.ravel()[mod.R_keys]), c
        assert np.array_equal(mod.R.entries, T), c


@pytest.mark.parametrize("family,m,nkw", [
    ("sphere", 0, 5), ("complex", 2, None), ("octonionic", 2, None),
    ("quaternionic", 3, None),
])
def test_norm_is_the_sum_over_the_nonzeros(family, m, nkw):
    # |R|^2 sums the squared values in key order; at c = +-1 they are
    # integers, so it is the dense square sum exactly
    for c in (1.0, -1.0, 0.3, -2.5):
        mod = build_model(family, m, c, n=nkw)
        assert mod.R_norm2 == float(np.sum(mod.R_values * mod.R_values))
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
def test_planted_weyl_tensor_fails_the_criticality_gate(monkeypatch, c):
    # sphere7 plus c/100 times an algebraic Weyl tensor W, with the frame
    # audit waved through: W is Ricci-flat, so the Einstein gate passes,
    # and W o W is not a multiple of g for n >= 5 (in dimension 4 it is)
    n = 7
    T = random_curvature(n, 11)
    g = np.eye(n)
    scal = np.trace(ricci(T))
    W = T - kn_product((ricci(T) - scal / (2 * (n - 1)) * g) / (n - 2), g)
    assert np.max(np.abs(ricci(W))) <= 1e-12 * np.max(np.abs(T))
    # W breaks the symmetry of the lines, which the build takes from the
    # J_a alone, so the model is built as one whose J_a lack it: holding
    # every nonzero, as the whole list's symmetry check chose before
    build = models._curvature_nonzeros

    def planted(J, c, near=None):
        keys, vals = build(J, c, near)
        return sum_entries([(keys, vals),
                            (np.arange(n**4), 1e-2 * c * W.ravel())])

    monkeypatch.setattr(models, "_curvature_nonzeros", planted)
    monkeypatch.setattr(models, "_line_symmetric", lambda J: False)
    monkeypatch.setattr(models.FrameAudit, "passed", lambda self, tol: True)
    with pytest.raises(ModelValidationError,
                       match="criticality identity fails"):
        build_model("sphere", 0, c, n=n)


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
        "whole list", build, lambda J, c, near=None: near is None))
    model = build_model("quaternionic", 10, 1.0)
    stability_verdict(model, samples=200)
    assert calls == {"choose": 1, "unravel": 1, "whole list": 0}
    assert "_R_list" not in vars(model)


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
        if tau == 0:
            break
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
    # Both break the symmetry of the lines, so every line is read.  orbit:
    # 12 random values, 8 at random keys and one at a component of each
    # entry rule, each planted on every image of its key under the
    # permutations of the lines; R stays line-symmetric, and with m > 4
    # lines only lines 0..3 are held.  Every residual of the audit must
    # equal its reference exactly
    mod = build_model(family, m, c, n=nkw)
    n, tau = mod.n, mod.tau
    lines = n // (tau + 1)
    rng = np.random.default_rng(9)
    if fill == "dense":
        R = mod.R.entries + rng.uniform(-1.0, 1.0, (n,) * 4)
    elif fill == "sparse":
        R = mod.R.entries.copy()
        flat = R.reshape(-1)
        flat[rng.choice(mod.R_keys, mod.R_keys.size // 10,
                        replace=False)] = 0.0
        for key in _rule_components(n, tau, 4, 0) if lines > 4 else []:
            R[key] = 0.0
        flat[rng.integers(0, flat.size, 20)] = rng.uniform(-1.0, 1.0, 20)
    else:
        R = mod.R.entries.copy()
        for key in [*rng.integers(0, n, size=(8, 4)),
                    *_rule_components(n, tau, 0, 1)]:
            R[_line_orbit(key, n, tau)] += rng.uniform(-1.0, 1.0)
    restricted = _load(mod, R)
    entry = _entry_rules_by_loops(R, n, tau, mod.c)
    want = {"zero_three_coordinates": _zero_three_by_mask(R, n, tau),
            **entry,
            **_invariance_rules_by_dense_loop(R, dense_operators(mod.J), mod.c)}
    assert frame_rule_audit(mod).residuals == want
    assert restricted == (fill == "orbit" and lines > 4)
    if tau > 0:
        assert min(entry.values()) > 0


@pytest.mark.parametrize("family,m,nkw", [
    ("sphere", 0, 4), ("sphere", 0, 5), ("sphere", 0, 40),
    ("complex", 4, None), ("complex", 5, None), ("complex", 12, None),
    ("quaternionic", 4, None), ("quaternionic", 5, None),
    ("quaternionic", 10, None), ("octonionic", 2, None),
])
def test_gates_read_lines_zero_to_three_of_more_than_four(family, m, nkw,
                                                          monkeypatch):
    # the build chooses once; a model with m > 4 lines is line-symmetric
    # and holds lines 0..3, with the residuals and |R|^2 of holding every
    # line
    restricted = _line_restricted(monkeypatch)
    mod = build_model(family, m, -1.0, n=nkw)
    lines = mod.n // (mod.tau + 1)
    assert restricted == [lines > 4]
    monkeypatch.setattr(models, "_line_symmetric", lambda J: False)
    whole = build_model(family, m, -1.0, n=nkw)
    assert restricted == [lines > 4, False]
    assert frame_rule_audit(mod).residuals == whole.audit.residuals
    assert mod.audit.residuals == whole.audit.residuals
    assert mod.R_norm2 == whole.R_norm2


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
    # lines 0..3 has the audit residuals and notes of one holding every
    # nonzero, and its contractions on lines 0 and 1 and its |R|^2 are the
    # whole list's: bit for bit at c = +-1, where every sum is exact, and
    # holding every nonzero; elsewhere |R|^2 is summed in another order
    model = build_model(family, m, c, n=nkw)
    n, lines = model.n, model.n // (model.tau + 1)
    keys, vals = model.R_keys, model.R_values
    assert dense_oracle.line_symmetric(model.J, keys, vals)
    assert (model.nz.near is not None) == (lines > 4)
    whole = CurvatureModel(family=family, m=model.m, n=n, tau=model.tau,
                           c=model.c, nz=models._nonzeros(n, lines, keys,
                                                          vals, None),
                           J=model.J)
    audit = frame_rule_audit(whole)
    assert (audit.residuals, audit.notes) == (model.audit.residuals,
                                              model.audit.notes)
    ric, chk, direct, operator, trace = dense_oracle.full_list_gates(
        n, keys, vals)
    near, r, k, held_trace = models._contractions(model)
    if c in (1.0, -1.0):
        assert np.array_equal(r, ric[np.ix_(near, near)])
        assert np.array_equal(k, chk[np.ix_(near, near)])
        assert model.R_norm2 == direct == operator == trace == held_trace
    else:
        for got, want in ((r, ric), (k, chk)):
            want = want[np.ix_(near, near)]
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert abs(model.R_norm2 - direct) <= 1e-15 * direct
    if model.nz.near is None:
        assert model.R_norm2 == direct


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
