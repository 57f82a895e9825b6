"""Tensor primitives against brute-force loop oracles.

Every dense contraction of the tests' oracle (``dense_oracle``) is checked
on small dimensions against a direct nested-loop evaluation of its
defining formula, so the other tests can pin the library's entry lists
against it; the library's curvature checks, random draws and key pairing
are checked here too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosscurv.models import build_model
from crosscurv.tensors import (
    _BIANCHI_SIGNS,
    _bianchi_entries,
    _bianchi_sum,
    _check_lambda2_curvature,
    _lambda2_residuals,
    _dense_terms,
    _pair_lookup,
    _project_bianchi,
    CurvTensor4,
    check_curvature_rules,
    pairs_by_key,
    random_curvature_lambda2,
    random_symtensor,
)
from dense_oracle import (
    check_tensor,
    compose_and_ricci,
    dense_operators,
    from_lambda2,
    k_pairing,
    kn_product,
    lambda2_pushforward,
    pair_vector,
    r_ring,
    random_curvature,
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


def test_curvtensor_validation():
    n = 4
    R = _rand_R(n)
    # projected random tensors satisfy all algebraic symmetries
    CurvTensor4(R)
    bad = R.copy()
    bad[0, 1, 2, 3] += 1e-3
    with pytest.raises(ValueError):
        CurvTensor4(bad)
    check_curvature_rules(*_dense_terms(R))


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
    e = _rand_R(n)
    # antisymmetry and pair-exchange hold exactly after projection
    assert np.max(np.abs(e + np.swapaxes(e, 0, 1))) < 1e-12
    assert np.max(np.abs(e + np.swapaxes(e, 2, 3))) < 1e-12
    assert np.max(np.abs(e - np.transpose(e, (2, 3, 0, 1)))) < 1e-12


def test_ricci_oracle():
    n = 4
    R = _rand_R(n)
    r = ricci(R)
    want = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            want[a, b] = sum(R[a, i, b, i] for i in range(n))
    assert np.allclose(r, want, atol=1e-13)
    assert np.max(np.abs(r - r.T)) <= 1e-12 * np.max(np.abs(r))


def test_check_tensor_oracle():
    n = 3
    R = _rand_R(n)
    chk = check_tensor(R)
    want = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            want[a, b] = sum(
                R[a, i, j, k] * R[b, i, j, k]
                for i in range(n) for j in range(n) for k in range(n)
            )
    assert np.allclose(chk, want, atol=1e-12)
    assert np.max(np.abs(chk - chk.T)) <= 1e-12 * np.max(np.abs(chk))


def test_r_ring_oracle():
    n = 4
    R, h = _rand_R(n), _rand_h(n)
    got = r_ring(R, h)
    want = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            want[x, y] = sum(
                R[i, x, j, y] * h[i, j]
                for i in range(n) for j in range(n)
            )
    assert np.allclose(got, want, atol=1e-12)


def test_kn_product_oracle():
    n = 3
    a, b = _rand_h(n), _rand_h(n)
    got = kn_product(a, b)
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
    g = np.eye(n)
    gg = kn_product(g, g)
    r = ricci(gg)
    assert np.allclose(r, 2.0 * (n - 1) * np.eye(n), atol=1e-13)


def test_lambda2_round_trip_and_norm():
    n = 5
    R = _rand_R(n)
    P = to_lambda2(R)
    assert P.shape == (n * (n - 1) // 2,) * 2
    assert np.allclose(P, P.T, atol=1e-12)
    back = from_lambda2(n, P)
    assert np.allclose(back, R, atol=1e-12)
    # |R|^2 three ways: direct, 4 tr(P^2), tr of the check tensor
    direct = float(np.sum(R * R))
    via_p = 4.0 * float(np.trace(P @ P))
    via_check = float(np.trace(check_tensor(R)))
    assert abs(direct - via_p) < 1e-10 * max(1.0, abs(direct))
    assert abs(direct - via_check) < 1e-10 * max(1.0, abs(direct))


def test_k_pairing_oracle():
    n = 3
    R, h = _rand_R(n), _rand_h(n)
    got = k_pairing(R, h)
    want = 0.0
    for p in range(n):
        for q in range(n):
            for m_ in range(n):
                for v in range(n):
                    kk = sum(R[p, i, m_, j] * R[q, i, v, j]
                             for i in range(n) for j in range(n))
                    want += kk * h[p, q] * h[m_, v]
    assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_rr_kn_pairing_oracle():
    n = 3
    R, h = _rand_R(n), _rand_h(n)
    got = rr_kn_pairing(R, h)
    want = 0.0
    for p in range(n):
        for q in range(n):
            for m_ in range(n):
                for v in range(n):
                    ss = sum(R[p, m_, i, j] * R[q, v, i, j]
                             for i in range(n) for j in range(n))
                    want += 0.5 * ss * h[p, q] * h[m_, v]
    assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_compose_and_ricci_oracle():
    n = 3
    R, R1 = _rand_R(n), _rand_R(n)
    comp, contracted = compose_and_ricci(R, R1)
    e, f = R, R1
    want = np.zeros((n, n, n, n))
    for a in range(n):
        for b in range(n):
            for z in range(n):
                for w in range(n):
                    want[a, b, z, w] = 0.5 * sum(
                        e[a, b, i, j] * f[i, j, z, w]
                        for i in range(n) for j in range(n)
                    )
    assert np.allclose(comp, want, atol=1e-12)
    want_r = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            want_r[a, b] = sum(want[a, i, b, i] for i in range(n))
    want_r = 0.5 * (want_r + want_r.T)  # the helper symmetrizes
    assert np.allclose(contracted, want_r, atol=1e-12)


def test_tilde_oracle_on_model_structures():
    mod = build_model("quaternionic", 2, 1.0)
    n = mod.n
    h = _rand_h(n)
    got = tilde(h, mod.J)
    want = np.zeros((n, n))
    for x in range(n):
        ex = np.zeros(n)
        ex[x] = 1.0
        for y in range(n):
            ey = np.zeros(n)
            ey[y] = 1.0
            want[x, y] = sum(
                (J @ ex) @ h @ (J @ ey) for J in dense_operators(mod.J)
            )
    assert np.allclose(got, want, atol=1e-12)


def test_pair_vector_and_pushforward_against_model():
    mod = build_model("complex", 2, 1.0)
    n = mod.n
    for J in dense_operators(mod.J):
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
    check_curvature_rules(*_dense_terms(R))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_trace_free_sampler_is_trace_free(seed):
    rng = np.random.default_rng(seed)
    h = random_symtensor(5, rng, trace_free=True)
    assert abs(np.trace(h)) < 1e-12


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
    e = _bianchi_entries(n)
    P = _project_bianchi(e, S.copy())  # in place, on a copy
    assert np.array_equal(P, P.T)
    want = to_lambda2(_project_curvature(from_lambda2(n, S)))
    assert np.max(np.abs(P - want)) <= 1e-15 * np.max(np.abs(S))
    again = _project_bianchi(e, P.copy())
    assert np.max(np.abs(again - P)) <= 1e-15 * np.max(np.abs(P))
    draw = random_curvature_lambda2(n, seed=n)
    check_curvature_rules(*_dense_terms(from_lambda2(n, draw)))


def test_pair_basis_draw_is_checked():
    n = 6
    e = _bianchi_entries(n)
    P = random_curvature_lambda2(n, seed=1)
    _check_lambda2_curvature(e, P)
    skew = P.copy()
    skew[0, 1] += 1e-9 * np.max(np.abs(P))
    with pytest.raises(ValueError, match="pair exchange"):
        _check_lambda2_curvature(e, skew)
    # [01,23] is one entry of the Bianchi triple of the subset {0, 1, 2, 3}
    bad = P.copy()
    bad[0, 9] += 1e-9 * np.max(np.abs(P))
    bad[9, 0] = bad[0, 9]
    with pytest.raises(ValueError, match="Bianchi"):
        _check_lambda2_curvature(e, bad)


def _draw_with_copies(n, seed):
    """The draw as it was made with a copying projection and the whole
    pair exchange difference M - M^T: the matrix, and the function that
    gave its residuals."""
    def residuals(M):
        flat = M.reshape(-1)
        return (float(np.max(np.abs(M - M.T), initial=0.0)),
                float(np.max(np.abs(_bianchi_sum(flat, _bianchi_entries(n))),
                             initial=0.0)))

    rng = np.random.default_rng(seed)
    N = n * (n - 1) // 2
    G = rng.standard_normal((N, N))
    S = (G + G.T) * 0.25
    out = np.array(S, dtype=float)
    flat, e = out.reshape(-1), _bianchi_entries(n)
    t = _bianchi_sum(flat, e) / 3.0
    for row, sign in zip(e, _BIANCHI_SIGNS):
        flat[row] -= sign * t
    return out, residuals


@pytest.mark.parametrize("seed", [0, 7, 123456789])
@pytest.mark.parametrize("n", [5, 16, 40])
def test_draw_in_place_has_the_bits_of_the_copying_draw(n, seed):
    # the projection in place and the pair exchange residual over row
    # blocks give the draw and both residuals bit for bit, on the draw
    # and on a perturbed, not pair-symmetric copy of it; a passed Bianchi
    # table gives the same draw
    draw = random_curvature_lambda2(n, seed)
    want, residuals = _draw_with_copies(n, seed)
    assert draw.tobytes() == want.tobytes()
    e = _bianchi_entries(n)
    assert random_curvature_lambda2(n, seed, e).tobytes() == want.tobytes()
    S = want.copy()
    assert np.shares_memory(_project_bianchi(e, S), S)
    noisy = draw + 1e-3 * np.random.default_rng(seed).standard_normal(
        draw.shape)
    for M in (draw, noisy):
        assert _lambda2_residuals(e, M) == residuals(M)
    assert _lambda2_residuals(e, noisy)[0] > 0


def test_pair_basis_draw_is_the_standard_gaussian():
    # a standard Gaussian on the curvature tensors of dimension n^2 (n^2 -
    # 1) / 12 has E |R|^2 equal to that dimension and variance twice it
    n, draws = 5, 400
    dim = n * n * (n * n - 1) // 12
    norms = [4.0 * np.sum(random_curvature_lambda2(n, seed=k) ** 2)
             for k in range(draws)]
    assert abs(np.mean(norms) - dim) <= 5.0 * np.sqrt(2.0 * dim / draws)


@pytest.mark.parametrize("table", [_pair_lookup, _bianchi_entries])
def test_index_tables_are_new_on_every_call(table):
    # nothing is shared between calls, so a write into one table leaves
    # the next call's table as it was
    want = table(5).copy()
    table(5)[0] = 3
    assert np.array_equal(table(5), want)


def test_a_direct_draw_returns_holding_nothing():
    # the draw's Bianchi table, about n^4 / 4 words (4.2 MiB at n = 40),
    # is built for the call and dropped with it; a smaller draw first
    # makes the one-time allocations
    import gc
    import tracemalloc

    random_curvature_lambda2(5, 0)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        random_curvature_lambda2(40, 0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < 0.1 * 2**20


@pytest.mark.parametrize("key", [
    np.random.default_rng(5).integers(0, 6, 40),  # repeats
    np.random.default_rng(5).permutation(30),  # all distinct
    np.full(9, 4),  # one repeated key
    np.zeros(0, dtype=np.intp),  # empty
], ids=["repeats", "distinct", "one-key", "empty"])
def test_pairs_by_key_gives_every_equal_pair_once(key):
    # against a double loop: each pair s <= t of equal keys, s = t
    # included, comes back exactly once, in one of its two orders
    s, t = pairs_by_key(key)
    got = sorted(zip(np.minimum(s, t).tolist(), np.maximum(s, t).tolist()))
    want = [(a, b) for a in range(key.size) for b in range(a, key.size)
            if key[a] == key[b]]
    assert got == want
