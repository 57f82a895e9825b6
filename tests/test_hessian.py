"""Trace-free quadratic forms, spectral certificates, conformal values.

The dense term matrices are checked against explicit loop sums, the
assembled remainder against them and against hand-expanded coefficient
values, and the certified minimal eigenvalues against pinned constants for
every compact family.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosscurv import hessian
from crosscurv.models import NoSpectralDataError, build_model
from crosscurv.hessian import (
    QuadForm,
    TERM_KEYS,
    UnsupportedExponentError,
    assemble_quadform,
    assemble_tt_remainder,
    compact_tt_coefficients,
    conformal_value,
    hp_scale,
    min_eigen_tt,
    noncompact_tt_coefficients,
    stability_verdict,
    tt_basis,
)

RNG = np.random.default_rng(7)


def _random_tt(n):
    h = RNG.standard_normal((n, n))
    h = 0.5 * (h + h.T)
    return h - np.trace(h) / n * np.eye(n)


@pytest.mark.parametrize("n", [3, 4, 5, 16])
def test_tt_basis_orthonormal_symmetric_tracefree(n):
    B = tt_basis(n)
    dim = n * (n + 1) // 2 - 1
    assert B.shape == (n * n, dim)
    assert np.allclose(B.T @ B, np.eye(dim), atol=1e-14)
    for col in B.T:
        h = col.reshape(n, n)
        assert np.allclose(h, h.T, atol=1e-15)
        assert abs(np.trace(h)) < 1e-14


def test_tt_dimension_octonionic_plane():
    # n = 16 gives 16*17/2 - 1 = 135 trace-free directions
    assert tt_basis(16).shape[1] == 135


def _term_oracle(model, key, h):
    """Loop-sum evaluation of one basis quantity, independent of kron."""
    n, R = model.n, model.R.entries
    if key == "NORM_H":
        return float(np.sum(h * h))
    if key in ("IP_H_HTILDE", "NORM_HTILDE"):
        ht = np.zeros((n, n))
        for J in model.J.operators:
            ht += J.T @ h @ J
        return float(np.sum(h * ht) if key == "IP_H_HTILDE"
                     else np.sum(ht * ht))
    if key == "NORM_RRING":
        act = np.zeros((n, n))
        for x in range(n):
            for y in range(n):
                act[x, y] = sum(R[i, x, j, y] * h[i, j]
                                for i in range(n) for j in range(n))
        return float(np.sum(act * act))
    if key == "K_PAIR":
        tot = 0.0
        for p in range(n):
            for q in range(n):
                for m in range(n):
                    for u in range(n):
                        tot += h[p, q] * h[m, u] * sum(
                            R[p, i, m, j] * R[q, i, u, j]
                            for i in range(n) for j in range(n))
        return float(tot)
    if key == "RR_KN":
        tot = 0.0
        for p in range(n):
            for q in range(n):
                for m in range(n):
                    for u in range(n):
                        tot += 0.5 * h[p, q] * h[m, u] * sum(
                            R[p, m, i, j] * R[q, u, i, j]
                            for i in range(n) for j in range(n))
        return float(tot)
    raise KeyError(key)


def term_matrix(model, key):
    """n^2 x n^2 matrix realizing one basis quantity on vec(h), row-major:
    the dense reference for ``assemble_quadform``, which builds the same
    entries from the nonzeros of R."""
    n = model.n
    R = model.R.entries
    if key == "NORM_H":
        return np.eye(n * n)
    if key in ("IP_H_HTILDE", "NORM_HTILDE"):
        G = np.zeros((n * n, n * n))
        for J in model.J.operators:
            G += np.kron(J.T, J.T)
        return 0.5 * (G + G.T) if key == "IP_H_HTILDE" else G.T @ G
    if key == "NORM_RRING":
        # (action h)_xy = sum_ij R_ixjy h_ij
        L = np.einsum("ixjy->xyij", R).reshape(n * n, n * n)
        return L.T @ L
    if key == "K_PAIR":
        G = np.einsum("pimj,qinj->pqmn", R, R, optimize=True)
        return G.reshape(n * n, n * n)
    if key == "RR_KN":
        G = 0.5 * np.einsum("pmij,qnij->pqmn", R, R, optimize=True)
        return G.reshape(n * n, n * n)
    raise KeyError(key)


@pytest.mark.parametrize("key", TERM_KEYS)
def test_term_matrix_matches_loop_oracle(key):
    model = build_model("complex", 2, 1.0)
    h = _random_tt(model.n)
    v = h.reshape(-1)
    M = term_matrix(model, key)
    assert np.allclose(M, M.T, atol=1e-12) or key == "K_PAIR"
    got = float(v @ M @ v)
    want = _term_oracle(model, key, h)
    assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_term_matrix_unknown_key():
    model = build_model("complex", 2, 1.0)
    with pytest.raises(KeyError, match="NORM_DDH"):
        assemble_quadform(model, {"NORM_DDH": 1.0})


def test_assemble_quadform_is_weighted_sum():
    model = build_model("quaternionic", 1, 1.0)
    coeffs = {"NORM_H": 1.5, "K_PAIR": -2.0, "NORM_RRING": 0.25}
    qf = assemble_quadform(model, coeffs)
    assert qf.dim == model.n * (model.n + 1) // 2 - 1
    h = _random_tt(model.n)
    want = sum(w * _term_oracle(model, k, h) for k, w in coeffs.items())
    assert abs(qf.value(h) - want) < 1e-9 * max(1.0, abs(want))


def _dense_terms(model):
    """G: one n^2 x n^2 ``term_matrix`` per basis quantity of the model's
    remainder, weighted and summed in order."""
    coeffs = (compact_tt_coefficients(model) if model.compact
              else noncompact_tt_coefficients(model))
    n = model.n
    G = np.zeros((n * n, n * n))
    for key, w in coeffs.items():
        if w != 0:
            G += float(w) * term_matrix(model, key)
    return G


def _dense_form(model):
    """The dense reference for ``assemble_quadform``: G compressed to the
    trace-free basis B."""
    B = tt_basis(model.n)
    M = B.T @ _dense_terms(model) @ B
    return 0.5 * (M + M.T)


FORM_MODELS = [("sphere", 0, 5), ("complex", 2, None), ("complex", 3, None),
               *(("quaternionic", m, None) for m in range(1, 7)),
               ("octonionic", 2, None)]


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("family,m,nkw", FORM_MODELS)
def test_assembly_from_nonzeros_equals_dense_terms_at_unit_scale(
        family, m, nkw, sign):
    model = build_model(family, m, sign, n=nkw)
    qf = assemble_tt_remainder(model)
    M = qf.unit
    n, dim = model.n, qf.dim
    G = _dense_terms(model)
    # at c = +-1 every entry of G is an integer or a half-integer, so the
    # pair entries are exact: half the sum of G at the four positions of
    # the two pairs.  (B^T G B multiplies by (1/sqrt 2)^2 =
    # 0.4999999999999999 instead.)
    i, j = np.triu_indices(n, k=1)
    G4 = G.reshape(n, n, n, n)
    p, q = (i[:, None], j[:, None]), (i[None], j[None])
    four = sum(G4[a + b] for a in (p, p[::-1]) for b in (q, q[::-1]))
    assert np.array_equal(M[:i.size, :i.size], 0.5 * four)
    dense = _dense_form(model)
    assert np.linalg.norm(M - dense) <= 1e-15 * np.linalg.norm(dense)
    # the blocks: their occurrences partition range(dim), each in
    # ascending order, and carry every nonzero of the form, bit for bit
    assert sum(idx.size for _, idx in qf.blocks) == dim
    places = np.concatenate([idx.ravel() for _, idx in qf.blocks])
    assert np.array_equal(np.sort(places), np.arange(dim))
    label = np.empty(dim, dtype=int)
    for k, rows in enumerate(idx for _, occ in qf.blocks for idx in occ):
        label[rows] = k
    for block, idx in qf.blocks:
        assert idx.ndim == 2 and idx.shape[1] == len(block)
        assert np.all(np.diff(idx, axis=1) > 0)
        assert np.all(np.diff(idx[:, 0]) > 0)
        for rows in idx:
            assert np.array_equal(M[np.ix_(rows, rows)], block)
    assert not np.any(M[label[:, None] != label[None, :]])


@pytest.mark.parametrize("c", [0.3, 2.5, 1e-6, 1e6, -0.3, -2.5, -1e-6, -1e6])
@pytest.mark.parametrize("family,m", [("complex", 2), ("quaternionic", 3),
                                      ("octonionic", 2)])
def test_assembly_from_nonzeros_matches_dense_terms_at_any_scale(family, m,
                                                                 c):
    model = build_model(family, m, c)
    dense = _dense_form(model)
    gap = np.max(np.abs(assemble_tt_remainder(model).matrix - dense))
    assert gap <= 1e-15 * np.max(np.abs(dense))


def test_build_and_assembly_hold_few_n4_arrays():
    # hp6, n = 24: the dense curvature build and frame audit peaked at
    # about four float64 arrays of n^4 entries and the per-term dense path
    # above eight; the build from the nonzeros holds none
    import tracemalloc

    n = 24
    tracemalloc.start()
    try:
        assemble_tt_remainder(build_model("quaternionic", 6, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * n**4


def test_assembly_holds_under_one_and_a_half_n4_arrays():
    # hp10, n = 40: the assembly sums each term's entries per place pair,
    # a batch at a time; adding them into a dense array on the pair and
    # diagonal places peaked at 1.02 n^4, and summing the n^2 x n^2 G and
    # compressing it with B^T G B at 2.32 n^4
    import tracemalloc

    model = build_model("quaternionic", 10, 1.0)
    n = model.n
    tracemalloc.start()
    try:
        assemble_tt_remainder(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n**4


def test_coupling_of_diagonal_and_pair_is_refused(monkeypatch):
    # one entry between the diagonal position (0, 0) and the pair (0, 1)
    # breaks the split into pair blocks and the ladder block
    model = build_model("complex", 2, 1.0)
    n = model.n
    entries = hessian._term_entries

    def coupled(model, key, nz):
        rows, cols, v = entries(model, key, nz)
        if key != "NORM_H":
            return rows, cols, v
        return (np.append(rows, 0), np.append(cols, 0 * n + 1),
                np.append(v, 1.0))

    monkeypatch.setattr(hessian, "_term_entries", coupled)
    with pytest.raises(ValueError, match="couples the diagonal"):
        assemble_tt_remainder(model)


def test_compact_coefficients_cp2():
    qf = compact_tt_coefficients(build_model("complex", 2, 1.0))
    assert qf == {"K_PAIR": 4.0, "NORM_RRING": -0.5, "NORM_H": 92.0,
                  "IP_H_HTILDE": 40.0, "NORM_HTILDE": -48.0}


def test_noncompact_coefficients_hp2_dual():
    qf = noncompact_tt_coefficients(build_model("quaternionic", 2, -1.0))
    assert qf == {"NORM_RRING": -0.5, "K_PAIR": 4.0, "RR_KN": 2.0,
                  "NORM_H": 406.0, "IP_H_HTILDE": 10.0, "NORM_HTILDE": -12.0}


def _same_blocks(qf, other):
    return len(qf.blocks) == len(other.blocks) and all(
        np.array_equal(b, b2) and np.array_equal(i, i2)
        for (b, i), (b2, i2) in zip(qf.blocks, other.blocks))


def test_remainder_regime_guard():
    # the remainder takes the compact display for c > 0 and the
    # non-compact one for c < 0, and the two give different forms
    for model, want, other in (
            (build_model("complex", 2, 1.0), compact_tt_coefficients,
             noncompact_tt_coefficients),
            (build_model("quaternionic", 2, -1.0), noncompact_tt_coefficients,
             compact_tt_coefficients)):
        qf = assemble_tt_remainder(model)
        assert _same_blocks(qf, assemble_quadform(model, want))
        assert not _same_blocks(qf, assemble_quadform(model, other))


# model key -> (pinned minimal eigenvalue of the displayed remainder form)
PINNED_EIG = {
    "sphere5": 25.5,
    "cp2": -4.0,
    "cp3": 20.0,
    "hp2": 288.0,
    "op2": -464.0,
}


def _model(key):
    family, m, nkw = {
        "sphere5": ("sphere", 0, 5),
        "cp2": ("complex", 2, None),
        "cp3": ("complex", 3, None),
        "hp2": ("quaternionic", 2, None),
        "op2": ("octonionic", 2, None),
    }[key]
    return build_model(family, m, 1.0, n=nkw)


@pytest.mark.parametrize("key", sorted(PINNED_EIG))
def test_min_eigen_pinned(key):
    qf = assemble_tt_remainder(_model(key))
    cert = min_eigen_tt(qf, samples=20_000, seed=0)
    assert abs(cert.eig_min - PINNED_EIG[key]) < 1e-8
    assert cert.consistent
    assert abs(cert.rayleigh_min - cert.eig_min) <= 1e-6


def test_sphere_remainder_is_scalar():
    qf = assemble_tt_remainder(_model("sphere5"))
    assert np.allclose(qf.matrix, 25.5 * np.eye(qf.dim), atol=1e-10)
    cert = min_eigen_tt(qf, samples=500, seed=0)
    assert cert.rotations == 0


def test_min_eigen_deterministic():
    qf = assemble_tt_remainder(_model("cp2"))
    a = min_eigen_tt(qf, samples=5_000, seed=3)
    b = min_eigen_tt(qf, samples=5_000, seed=3)
    assert a.rayleigh_min == b.rayleigh_min
    assert a.eig_min == b.eig_min


def _best_block_samples(qf, samples, seed):
    """The reference for the chunked sampling: for each distinct block, its
    child stream drawn at once, one sample per row (so the chunks are
    consecutive slices of this draw), every quotient from one GEMM, and the
    first best sample."""
    streams = np.random.SeedSequence(seed).spawn(len(qf.blocks))
    best = []
    for (block, _), stream in zip(qf.blocks, streams):
        V = np.random.Generator(np.random.PCG64(stream)).random(
            (samples, len(block))) - 0.5
        vals = np.einsum("ij,ij->i", V, V @ block) / np.einsum("ij,ij->i",
                                                               V, V)
        best.append(V[np.argmin(vals)])
    return best


@pytest.mark.parametrize("seed", [0, 7, 123456789])
@pytest.mark.parametrize("key,samples", [("cp3", 20_000), ("hp3", 30_000),
                                         ("op2", 50_000), ("hp3", 12_345)])
def test_blockwise_sampling_matches_dense_oracle(key, samples, seed,
                                                 monkeypatch):
    model = (build_model("quaternionic", 3, 1.0) if key == "hp3"
             else _model(key))
    qf = assemble_tt_remainder(model)
    refine = hessian._refine_rayleigh
    starts = []

    def spy(M, x, **kw):
        starts.append((M, x.copy()))
        return refine(M, x, **kw)

    monkeypatch.setattr(hessian, "_refine_rayleigh", spy)
    cert = min_eigen_tt(qf, samples=samples, seed=seed)
    best = _best_block_samples(qf, samples, seed)
    assert len(starts) == len(qf.blocks)
    for (M, x), (block, _), want in zip(starts, qf.blocks, best):
        assert M is block
        assert np.array_equal(x, want)
    assert cert.rayleigh_min == qf.scale * min(
        refine(block, x)[0] for (block, _), x in zip(qf.blocks, best))


def test_sampling_holds_no_form_sized_array():
    # hp10, dim 819: the sampling holds one chunk of draws for one block
    # and its product with the block, at most RAYLEIGH_CHUNK x (n - 1)
    # floats each, beside a few chunk-long vectors and the small arrays of
    # Jacobi and the refinement on the block.  That is below one dim x dim
    # array, and far below one dim x chunk array.
    import tracemalloc

    qf = assemble_tt_remainder(build_model("quaternionic", 10, 1.0))
    largest = max(len(block) for block, _ in qf.blocks)
    chunk = hessian.RAYLEIGH_CHUNK
    bound = 8 * ((2 * largest + 8) * chunk + 16 * largest**2)
    min_eigen_tt(qf, samples=1)  # first-call module imports are not arrays
    tracemalloc.start()
    try:
        min_eigen_tt(qf, samples=100_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound < 8 * qf.dim**2 < 8 * qf.dim * chunk
    assert peak <= bound


# curvature scales with the unit scale their certificate is compared to
SCALES = [(1e-6, 1.0), (-1e-6, -1.0), (1e4, 1.0), (1e6, 1.0), (-1e6, -1.0)]


@pytest.mark.parametrize("family,m", [("quaternionic", 2), ("complex", 4)])
def test_certificate_scales_as_c_squared(family, m):
    def cert_at(c):
        qf = assemble_tt_remainder(build_model(family, m, c))
        return min_eigen_tt(qf, samples=20_000, seed=1)

    unit = {c: cert_at(c).eig_min for c in (1.0, -1.0)}
    for c, base in SCALES:
        cert = cert_at(c)
        assert cert.consistent, c
        want = c * c * unit[base]
        assert abs(cert.eig_min - want) <= 1e-12 * abs(want), c


@pytest.mark.parametrize("family,m,c", [("quaternionic", 2, 1.0),
                                        ("quaternionic", 2, 1e4),
                                        ("complex", 4, -1e6)])
def test_non_minimal_eigenvalue_is_inconsistent(family, m, c, monkeypatch):
    qf = assemble_tt_remainder(build_model(family, m, c))
    honest = min_eigen_tt(qf, samples=2_000)
    assert honest.consistent
    solve = hessian.jacobi_eigs
    lowest = honest.eig_min / qf.scale
    floor = lowest + 1e-9 * np.max(np.abs(qf.unit))

    def without_minimum(A, *args, **kwargs):
        # every block of the form loses its eigenvalues at the minimum
        spec = solve(A, *args, **kwargs)
        if any(A is block for block, _ in qf.blocks):
            ev = spec.eigenvalues
            spec.eigenvalues = ev[ev > floor]
        return spec

    monkeypatch.setattr(hessian, "jacobi_eigs", without_minimum)
    cert = min_eigen_tt(qf, samples=2_000)
    assert cert.eig_min > honest.eig_min
    assert cert.rayleigh_min == honest.rayleigh_min
    assert not cert.consistent


def _planted_form(rel_gap: float) -> QuadForm:
    """A block-diagonal form on nine coordinates whose simple bottom
    eigenvector is (e_1 - e_2)/sqrt 2, eigenvalue 1, and whose next one,
    (e_1 + e_2 + e_3)/sqrt 3, lies rel_gap of the form's Frobenius norm
    above it.  Among sign vectors the quotient of the 3 x 3 block is
    smallest on +-(1, 1, 1), which is orthogonal to the bottom
    eigenvector."""
    a = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    u = np.ones(3) / np.sqrt(3.0)
    w = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)

    def form(gap):
        M = np.zeros((9, 9))
        M[:3, :3] = (np.outer(a, a) + (1.0 + gap) * np.outer(u, u)
                     + 19.0 * np.outer(w, w))
        M[3:5, 3:5] = [[8.0, 2.0], [2.0, 8.0]]
        M[5:, 5:] = 10.0 * np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1)
        return 0.5 * (M + M.T)

    unit = form(rel_gap * float(np.linalg.norm(form(0.0))))
    blocks = [(unit[np.ix_(idx, idx)], idx[None])
              for idx in (np.arange(3), np.arange(3, 5), np.arange(5, 9))]
    return QuadForm(n=4, dim=9, blocks=blocks)


@pytest.mark.parametrize("rel_gap,seed", [
    (gap, seed) for gap in (0.1, 1e-6, 1e-8) for seed in (0, 7, 123456789)])
def test_sampling_reaches_an_integer_bottom_eigenvector(rel_gap, seed):
    # the samples must have a component along every direction: random
    # signs all miss (e_1 - e_2)/sqrt 2 in their best sample, and the
    # refinement then stops on the next eigenvector
    cert = min_eigen_tt(_planted_form(rel_gap), samples=100_000, seed=seed)
    assert abs(cert.eig_min - 1.0) <= 1e-12
    assert cert.consistent
    assert abs(cert.rayleigh_min - cert.eig_min) <= cert.residual_bound


@pytest.mark.parametrize("samples", [0, -5])
def test_samples_below_one_are_refused_before_jacobi(samples, monkeypatch):
    model = _model("cp2")
    qf = assemble_tt_remainder(model)

    def jacobi_eigs(*args, **kwargs):
        raise AssertionError("Jacobi ran")

    monkeypatch.setattr(hessian, "jacobi_eigs", jacobi_eigs)
    with pytest.raises(ValueError, match="samples"):
        min_eigen_tt(qf, samples=samples)
    with pytest.raises(ValueError, match="samples"):
        stability_verdict(model, samples=samples)


def test_conformal_values_claimed_and_computed():
    assert conformal_value(_model("sphere5")) == 0
    assert conformal_value(_model("sphere5"), norm_source="computed") == 0
    assert conformal_value(_model("cp2")) == 288
    assert conformal_value(_model("cp2"), norm_source="computed") == 288
    assert conformal_value(_model("hp2")) == -3712
    assert conformal_value(_model("hp2"), norm_source="computed") == -640
    assert conformal_value(_model("op2")) == -184320
    assert conformal_value(_model("op2"), norm_source="computed") == -55296


def test_conformal_explicit_mu_and_errors():
    # q(0) = (4 - n) |R|^2 with the displayed norm
    assert conformal_value(_model("hp2"), mu=0) == -8704
    with pytest.raises(NoSpectralDataError):
        conformal_value(build_model("quaternionic", 2, -1.0))
    with pytest.raises(UnsupportedExponentError):
        conformal_value(_model("cp2"), p=4)


def test_hp_scale():
    assert hp_scale(2, 192.0) == 1.0
    assert hp_scale(4, 192.0) == 2.0 * 192.0
    assert abs(hp_scale(3, 64.0) - 1.5 * 8.0) < 1e-12
    with pytest.raises(ValueError):
        hp_scale(1.5, 192.0)
    with pytest.raises(ValueError):
        hp_scale(4, 0.0)


def test_stability_verdict_sphere():
    sr = stability_verdict(_model("sphere5"), samples=2_000)
    assert sr.tt_verdict == "stable-strict"
    assert abs(sr.epsilon - 25.5) < 1e-9
    assert sr.regime == "compact"
    assert sr.verdict_flags == ["conformal direction exactly neutral"]
    assert sr.conformal["claimed"] == 0


def test_stability_verdict_indefinite_families():
    for key in ("cp2", "op2"):
        sr = stability_verdict(_model(key), samples=2_000)
        assert sr.tt_verdict == "algebraic certificate inconclusive"
        assert sr.epsilon is None
        assert sr.tt_min_eig < 0


def test_stability_verdict_op2_discrepancy_note():
    sr = stability_verdict(_model("op2"), samples=2_000)
    assert any("squared norms differ" in s for s in sr.discrepancy_notes)
    assert sr.conformal["claimed"] == -184320
    assert sr.conformal["computed"] == -55296


def test_stability_verdict_noncompact():
    sr = stability_verdict(build_model("quaternionic", 2, -1.0),
                           samples=2_000)
    assert sr.regime == "noncompact"
    assert sr.tt_verdict == "stable-strict"
    assert abs(sr.epsilon - 456.0) < 1e-8
    assert sr.conformal == {"note": "no spectral reference data for "
                                    "non-compact duals"}


def test_stability_verdict_p4_scales_certificate():
    sr = stability_verdict(_model("sphere5"), p=4, samples=2_000)
    # scale factor (p/2) |R|^(p-2) = 2 * 40 at p = 4 on the 5-sphere
    assert abs(sr.epsilon - 25.5 * 80.0) < 1e-6
    assert sr.tt_verdict == "stable-strict"
    assert "UNAVAILABLE" in sr.conformal["note"]


@lru_cache(maxsize=None)
def _unit_verdict(family, m, n, sign):
    return stability_verdict(build_model(family, m, sign, n=n), seed=3)


@settings(max_examples=24, deadline=None)
@given(model=st.sampled_from([("quaternionic", 2, None), ("complex", 2, None),
                              ("sphere", 0, 5), ("sphere", 0, 9),
                              ("sphere", 0, 12)]),
       sign=st.sampled_from([1.0, -1.0]),
       exponent=st.floats(min_value=-6.0, max_value=6.0))
@example(model=("sphere", 0, 9), sign=1.0, exponent=0.5)
def test_verdict_scales_as_c_squared(model, sign, exponent):
    # |c| is log-uniform in [1e-6, 1e6]; the report at c must be c^2 times
    # the report at c = sign, with the same verdict, flags and notes and a
    # consistent certificate (no Rayleigh/Jacobi discrepancy note).  On the
    # sphere the conformal value is exactly 0 at every scale
    family, m, n = model
    c = sign * 10.0**exponent
    unit = _unit_verdict(family, m, n, sign)
    rep = stability_verdict(build_model(family, m, c, n=n), seed=3)
    want = c * c * unit.tt_min_eig
    assert abs(rep.tt_min_eig - want) <= 1e-12 * abs(want)
    assert rep.tt_verdict == unit.tt_verdict
    assert rep.verdict_flags == unit.verdict_flags
    assert rep.discrepancy_notes == unit.discrepancy_notes
    assert "rayleigh sample fell below the jacobi minimum" not in \
        rep.discrepancy_notes
    if sign > 0:
        for source in ("claimed", "computed"):
            want = c * c * float(unit.conformal[source])
            got = float(rep.conformal[source])
            assert abs(got - want) <= 1e-12 * abs(want), source
