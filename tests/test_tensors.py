"""Tensor primitives against brute-force loop oracles.

Every contraction helper is checked on small dimensions against a direct
nested-loop evaluation of its defining formula, so the einsum plumbing can
be trusted by the model and ledger layers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosscurv.models import build_model
from crosscurv.tensors import (
    _check_lambda2_curvature,
    _dense_terms,
    _project_bianchi,
    CurvTensor4,
    Lambda2Operator,
    SymTensor2,
    check_curvature_rules,
    check_tensor,
    compose_and_ricci,
    from_lambda2,
    k_pairing,
    kn_product,
    lambda2_pushforward,
    pair_vector,
    r_ring,
    random_curvature,
    random_curvature_lambda2,
    random_symtensor,
    ricci,
    rr_kn_pairing,
    tilde,
    to_lambda2,
)

RNG = np.random.default_rng(2024)


def _rand_h(n, trace_free=False):
    return random_symtensor(n, RNG, trace_free=trace_free)


def _rand_R(n):
    return random_curvature(n, RNG)


def test_symtensor_validation():
    with pytest.raises(ValueError):
        SymTensor2(np.arange(6.0).reshape(2, 3))
    with pytest.raises(ValueError):
        SymTensor2(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        SymTensor2(np.eye(3), trace_free=True)
    h = SymTensor2(np.diag([1.0, -1.0]), trace_free=True)
    assert h.n == 2 and h.trace() == 0.0 and h.norm2() == 2.0


def test_curvtensor_validation():
    n = 4
    R = _rand_R(n)
    # projected random tensors satisfy all algebraic symmetries
    CurvTensor4(R.entries)
    bad = R.entries.copy()
    bad[0, 1, 2, 3] += 1e-3
    with pytest.raises(ValueError):
        CurvTensor4(bad)
    check_curvature_rules(*_dense_terms(R.entries))


def test_curvtensor_tolerance_is_relative_to_its_entries():
    # entries of about 1e-6: a defect of 1e-7 of that size is refused, as
    # a defect of 1e-7 is refused at entries of about 1
    T = build_model("quaternionic", 1, 1e-6).R.entries.copy()
    CurvTensor4(T)
    T[0, 1, 2, 3] += 1e-7 * np.max(np.abs(T))
    with pytest.raises(ValueError):
        CurvTensor4(T)


def test_random_curvature_projection_is_idempotent():
    n = 4
    R = _rand_R(n)
    e = R.entries
    # antisymmetry and pair-exchange hold exactly after projection
    assert np.max(np.abs(e + np.swapaxes(e, 0, 1))) < 1e-12
    assert np.max(np.abs(e + np.swapaxes(e, 2, 3))) < 1e-12
    assert np.max(np.abs(e - np.transpose(e, (2, 3, 0, 1)))) < 1e-12


def test_ricci_oracle():
    n = 4
    R = _rand_R(n)
    r = ricci(R).entries
    want = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            want[a, b] = sum(R.entries[a, i, b, i] for i in range(n))
    assert np.allclose(r, want, atol=1e-13)


def test_check_tensor_oracle():
    n = 3
    R = _rand_R(n)
    chk = check_tensor(R).entries
    want = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            want[a, b] = sum(
                R.entries[a, i, j, k] * R.entries[b, i, j, k]
                for i in range(n) for j in range(n) for k in range(n)
            )
    assert np.allclose(chk, want, atol=1e-12)


def test_r_ring_oracle():
    n = 4
    R, h = _rand_R(n), _rand_h(n)
    got = r_ring(R, h).entries
    want = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            want[x, y] = sum(
                R.entries[i, x, j, y] * h.entries[i, j]
                for i in range(n) for j in range(n)
            )
    assert np.allclose(got, want, atol=1e-12)


def test_kn_product_oracle():
    n = 3
    h1, h2 = _rand_h(n), _rand_h(n)
    got = kn_product(h1, h2).entries
    a, b = h1.entries, h2.entries
    want = np.zeros((n, n, n, n))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for w in range(n):
                    want[x, y, z, w] = (a[x, z] * b[y, w] + a[y, w] * b[x, z]
                                        - a[x, w] * b[y, z] - a[y, z] * b[x, w])
    assert np.allclose(got, want, atol=1e-12)


def test_kn_of_metric_contracts_to_ricci():
    n = 5
    g = SymTensor2(np.eye(n))
    gg = kn_product(g, g)
    r = ricci(gg).entries
    assert np.allclose(r, 2.0 * (n - 1) * np.eye(n), atol=1e-13)


def test_lambda2_round_trip_and_norm():
    n = 5
    R = _rand_R(n)
    P = to_lambda2(R)
    assert P.N == n * (n - 1) // 2
    assert np.allclose(P.matrix, P.matrix.T, atol=1e-12)
    back = from_lambda2(P)
    assert np.allclose(back.entries, R.entries, atol=1e-12)
    # |R|^2 three ways: direct, 4 tr(P^2), tr of the check tensor
    direct = float(np.sum(R.entries * R.entries))
    via_p = 4.0 * float(np.trace(P.matrix @ P.matrix))
    via_check = float(np.trace(check_tensor(R).entries))
    assert abs(direct - via_p) < 1e-10 * max(1.0, abs(direct))
    assert abs(direct - via_check) < 1e-10 * max(1.0, abs(direct))


def test_lambda2_operator_shape_validation():
    with pytest.raises(ValueError):
        Lambda2Operator(4, np.eye(5))


def test_k_pairing_oracle():
    n = 3
    R, h = _rand_R(n), _rand_h(n)
    got = k_pairing(R, h)
    want = 0.0
    e = R.entries
    for p in range(n):
        for q in range(n):
            for m_ in range(n):
                for v in range(n):
                    kk = sum(e[p, i, m_, j] * e[q, i, v, j]
                             for i in range(n) for j in range(n))
                    want += kk * h.entries[p, q] * h.entries[m_, v]
    assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_rr_kn_pairing_oracle():
    n = 3
    R, h = _rand_R(n), _rand_h(n)
    got = rr_kn_pairing(R, h)
    e = R.entries
    want = 0.0
    for p in range(n):
        for q in range(n):
            for m_ in range(n):
                for v in range(n):
                    ss = sum(e[p, m_, i, j] * e[q, v, i, j]
                             for i in range(n) for j in range(n))
                    want += 0.5 * ss * h.entries[p, q] * h.entries[m_, v]
    assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_compose_and_ricci_oracle():
    n = 3
    R, R1 = _rand_R(n), _rand_R(n)
    comp, contracted = compose_and_ricci(R, R1)
    e, f = R.entries, R1.entries
    want = np.zeros((n, n, n, n))
    for a in range(n):
        for b in range(n):
            for z in range(n):
                for w in range(n):
                    want[a, b, z, w] = 0.5 * sum(
                        e[a, b, i, j] * f[i, j, z, w]
                        for i in range(n) for j in range(n)
                    )
    assert np.allclose(comp.entries, want, atol=1e-12)
    want_r = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            want_r[a, b] = sum(want[a, i, b, i] for i in range(n))
    want_r = 0.5 * (want_r + want_r.T)  # the helper symmetrizes
    assert np.allclose(contracted.entries, want_r, atol=1e-12)


def test_tilde_oracle_on_model_structures():
    mod = build_model("quaternionic", 2, 1.0)
    n = mod.n
    h = _rand_h(n)
    got = tilde(h, mod.J).entries
    want = np.zeros((n, n))
    for x in range(n):
        ex = np.zeros(n)
        ex[x] = 1.0
        for y in range(n):
            ey = np.zeros(n)
            ey[y] = 1.0
            want[x, y] = sum(
                (J @ ex) @ h.entries @ (J @ ey) for J in mod.J.operators
            )
    assert np.allclose(got, want, atol=1e-12)


def test_pair_vector_and_pushforward_against_model():
    mod = build_model("complex", 2, 1.0)
    n = mod.n
    for J in mod.J.operators:
        M = lambda2_pushforward(J)
        Om = pair_vector(J.T)
        # the structure 2-form is fixed by its own pushforward
        assert np.allclose(M @ Om, Om, atol=1e-12)
        assert np.allclose(M @ M, np.eye(n * (n - 1) // 2), atol=1e-12)
        assert abs(Om @ Om - n / 2.0) < 1e-12


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=3, max_value=5), seed=st.integers(0, 2**31))
def test_random_curvature_satisfies_bianchi(n, seed):
    rng = np.random.default_rng(seed)
    R = random_curvature(n, rng)
    check_curvature_rules(*_dense_terms(R.entries))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_trace_free_sampler_is_trace_free(seed):
    rng = np.random.default_rng(seed)
    h = random_symtensor(5, rng, trace_free=True)
    assert abs(np.trace(h.entries)) < 1e-12


def _project_curvature(T: np.ndarray) -> np.ndarray:
    """Oracle: the orthogonal projection of an n^4 array onto the
    algebraic curvature tensors, one symmetry at a time."""
    T = 0.5 * (T - np.einsum("xyzw->yxzw", T))
    T = 0.5 * (T - np.einsum("xyzw->xywz", T))
    T = 0.5 * (T + np.einsum("xyzw->zwxy", T))
    # Bianchi part: the cyclic average lands in the fully antisymmetric
    # class, and removing it stays inside the pair-symmetric class
    B = (T + np.einsum("xzwy->xyzw", T) + np.einsum("xwyz->xyzw", T)) / 3.0
    return T - B


@pytest.mark.parametrize("n", [3, 4, 5, 7, 9])
def test_pair_basis_bianchi_projection(n):
    # it is the projection of the n^4 array, it is idempotent, and the
    # 4-index array of a draw meets every curvature rule
    N = n * (n - 1) // 2
    G = np.random.default_rng(n).standard_normal((N, N))
    S = G + G.T
    P = _project_bianchi(n, S)
    assert np.array_equal(P, P.T)
    want = to_lambda2(_project_curvature(from_lambda2(
        Lambda2Operator(n, S)).entries)).matrix
    assert np.max(np.abs(P - want)) <= 1e-15 * np.max(np.abs(S))
    again = _project_bianchi(n, P)
    assert np.max(np.abs(again - P)) <= 1e-15 * np.max(np.abs(P))
    draw = random_curvature_lambda2(n, seed=n)
    check_curvature_rules(*_dense_terms(from_lambda2(draw).entries))


def test_pair_basis_draw_is_checked():
    n = 6
    P = random_curvature_lambda2(n, seed=1).matrix
    _check_lambda2_curvature(Lambda2Operator(n, P))
    skew = P.copy()
    skew[0, 1] += 1e-9 * np.max(np.abs(P))
    with pytest.raises(ValueError, match="pair exchange"):
        _check_lambda2_curvature(Lambda2Operator(n, skew))
    # [01,23] is one entry of the Bianchi triple of the subset {0, 1, 2, 3}
    bad = P.copy()
    bad[0, 9] += 1e-9 * np.max(np.abs(P))
    bad[9, 0] = bad[0, 9]
    with pytest.raises(ValueError, match="Bianchi"):
        _check_lambda2_curvature(Lambda2Operator(n, bad))


def test_pair_basis_draw_is_the_standard_gaussian():
    # a standard Gaussian on the curvature tensors of dimension n^2 (n^2 -
    # 1) / 12 has E |R|^2 equal to that dimension and variance twice it
    n, draws = 5, 400
    dim = n * n * (n * n - 1) // 12
    norms = [4.0 * np.sum(random_curvature_lambda2(n, seed=k).matrix ** 2)
             for k in range(draws)]
    assert abs(np.mean(norms) - dim) <= 5.0 * np.sqrt(2.0 * dim / draws)
