"""Exact checks for the composition algebra multiplication tables."""

import numpy as np
import pytest

from crosscurv.division_algebras import (
    cayley_dickson_double,
    complex_table,
    octonion_table,
    quaternion_table,
    real_table,
)
from crosscurv.models import build_j_structure
from dense_oracle import dense_operators, multiply

TABLES = {
    1: real_table,
    2: complex_table,
    4: quaternion_table,
    8: octonion_table,
}


@pytest.mark.parametrize("dim,maker", sorted(TABLES.items()))
def test_table_shapes_and_identity(dim, maker):
    idx, sgn = maker()
    assert idx.shape == (dim, dim) and sgn.shape == (dim, dim)
    assert idx.dtype == np.int64 and sgn.dtype == np.int64
    assert set(np.unique(sgn)) <= {-1, 1}
    # e_0 is a two-sided identity
    assert np.array_equal(idx[0], np.arange(dim))
    assert np.array_equal(idx[:, 0], np.arange(dim))
    assert np.all(sgn[0] == 1) and np.all(sgn[:, 0] == 1)


@pytest.mark.parametrize("dim,maker", sorted(TABLES.items()))
def test_imaginary_square_minus_one(dim, maker):
    idx, sgn = maker()
    for i in range(1, dim):
        assert idx[i, i] == 0 and sgn[i, i] == -1


@pytest.mark.parametrize("dim,maker", sorted(TABLES.items()))
def test_imaginary_anticommute(dim, maker):
    idx, sgn = maker()
    for i in range(1, dim):
        for j in range(1, dim):
            if i == j:
                continue
            assert idx[i, j] == idx[j, i]
            assert sgn[i, j] == -sgn[j, i]


def test_quaternion_cyclic_products():
    idx, sgn = quaternion_table()
    for (a, b), (t, s) in {
        (1, 2): (3, 1), (2, 3): (1, 1), (3, 1): (2, 1),
        (2, 1): (3, -1), (3, 2): (1, -1), (1, 3): (2, -1),
    }.items():
        assert idx[a, b] == t and sgn[a, b] == s


def test_quaternion_is_associative():
    idx, sgn = quaternion_table()

    def mul(i, j):
        return idx[i, j], sgn[i, j]

    for a in range(4):
        for b in range(4):
            for c in range(4):
                ab, s1 = mul(a, b)
                left, s2 = mul(ab, c)
                bc, s3 = mul(b, c)
                right, s4 = mul(a, bc)
                assert left == right and s1 * s2 == s3 * s4


def test_octonion_not_associative():
    idx, sgn = octonion_table()
    witnesses = 0
    for a in range(1, 8):
        for b in range(1, 8):
            for c in range(1, 8):
                ab, s1 = idx[a, b], sgn[a, b]
                left, s2 = idx[ab, c], sgn[ab, c]
                bc, s3 = idx[b, c], sgn[b, c]
                right, s4 = idx[a, bc], sgn[a, bc]
                if left != right or s1 * s2 != s3 * s4:
                    witnesses += 1
    assert witnesses > 0


def test_doubling_reproduces_next_table():
    for small, big in ((real_table, complex_table),
                       (complex_table, quaternion_table),
                       (quaternion_table, octonion_table)):
        idx2, sgn2 = cayley_dickson_double(*small())
        idx, sgn = big()
        assert np.array_equal(idx2, idx)
        assert np.array_equal(sgn2, sgn)


@pytest.mark.parametrize("dim,maker", [(4, quaternion_table), (8, octonion_table)])
def test_norm_multiplicative(dim, maker):
    # |xy|^2 = |x|^2 |y|^2 in exact integer arithmetic
    idx, sgn = maker()
    rng = np.random.default_rng(5)
    for _ in range(40):
        x = rng.integers(-9, 10, size=dim)
        y = rng.integers(-9, 10, size=dim)
        z = multiply(x, y, idx, sgn)
        assert int(z @ z) == int(x @ x) * int(y @ y)


def _row_matrix(idx, sgn, u):
    """Dense matrix of row u of a table, e_j -> sgn[u, j] e_{idx[u, j]}:
    left multiplication by e_u, built entry by entry."""
    n = idx.shape[0]
    mat = np.zeros((n, n))
    for q in range(n):
        mat[idx[u, q], q] = sgn[u, q]
    return mat


@pytest.mark.parametrize("dim,maker", [(2, complex_table), (4, quaternion_table),
                                       (8, octonion_table)])
def test_left_mult_matrix_matches_multiply(dim, maker):
    idx, sgn = maker()
    rng = np.random.default_rng(1)
    y = rng.integers(-5, 6, size=dim)
    for u in range(dim):
        x = np.zeros(dim, dtype=np.int64)
        x[u] = 1
        assert np.array_equal(_row_matrix(idx, sgn, u) @ y,
                              multiply(x, y, idx, sgn))
        # the row is a signed permutation
        assert np.array_equal(np.sort(idx[u]), np.arange(dim))


@pytest.mark.parametrize("maker", [complex_table, quaternion_table, octonion_table])
def test_imaginary_left_mults_are_clifford(maker):
    # L_i^T = -L_i, L_i^2 = -Id, L_i L_j + L_j L_i = 0 for i != j.
    # This is what the curvature construction actually relies on.
    idx, sgn = maker()
    dim = idx.shape[0]
    mats = [_row_matrix(idx, sgn, u) for u in range(1, dim)]
    eye = np.eye(dim)
    for i, L in enumerate(mats):
        assert np.array_equal(L.T, -L)
        assert np.array_equal(L @ L, -eye)
        for Lj in mats[i + 1:]:
            assert np.array_equal(L @ Lj + Lj @ L, np.zeros((dim, dim)))


@pytest.mark.parametrize("family,m", [
    *(("complex", m) for m in range(2, 7)),
    *(("quaternionic", m) for m in range(1, 7)), ("octonionic", 2)])
def test_structure_operators_are_the_table_rows_per_coordinate(family, m):
    # the dense operators are kron(L_u, I_m) for the imaginary rows L_u of
    # the table, transposed for the right-multiplying families
    idx, sgn = {"complex": complex_table, "quaternionic": quaternion_table,
                "octonionic": octonion_table}[family]()
    if family != "octonionic":
        idx, sgn = idx.T, sgn.T
    want = [np.kron(_row_matrix(idx, sgn, u), np.eye(m))
            for u in range(1, idx.shape[0])]
    got = dense_operators(build_j_structure(family, m))
    assert len(got) == len(want)
    for J, K in zip(got, want):
        assert np.array_equal(J, K)
