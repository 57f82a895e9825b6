"""Jacobi eigensolver vs numpy.linalg.eigh (oracle only, not a dependency
of the library code)."""

import numpy as np
import pytest

from crosscurv import jacobi
from crosscurv.jacobi import JacobiConvergenceError, jacobi_eigs


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 40])
def test_matches_eigh(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    M = 0.5 * (A + A.T)
    spec = jacobi_eigs(M)
    ref = np.linalg.eigvalsh(M)
    assert np.allclose(spec.eigenvalues, ref, atol=1e-10)
    # ascending order
    assert np.all(np.diff(spec.eigenvalues) >= -1e-12)


def test_eigenvectors_are_orthonormal_and_consistent():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((9, 9))
    M = 0.5 * (A + A.T)
    spec = jacobi_eigs(M)
    V = spec.eigenvectors
    assert np.allclose(V.T @ V, np.eye(9), atol=1e-12)
    assert np.allclose(M @ V, V @ np.diag(spec.eigenvalues), atol=1e-10)


def test_integer_spectrum_exact():
    # similarity transform of diag(1, 2, 5) by a known rotation
    D = np.diag([1.0, 2.0, 5.0])
    th = 0.3
    Q1 = np.array([[np.cos(th), -np.sin(th), 0.0],
                   [np.sin(th), np.cos(th), 0.0],
                   [0.0, 0.0, 1.0]])
    M = Q1 @ D @ Q1.T
    spec = jacobi_eigs(M)
    assert np.allclose(spec.eigenvalues, [1.0, 2.0, 5.0], atol=1e-12)


def test_diagonal_input_needs_no_rotations():
    spec = jacobi_eigs(np.diag([3.0, -1.0, 2.0]))
    assert spec.iterations == 0
    assert np.allclose(spec.eigenvalues, [-1.0, 2.0, 3.0])


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        jacobi_eigs(np.ones((2, 3)))
    with pytest.raises(ValueError):
        jacobi_eigs(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_convergence_error_when_starved(monkeypatch):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 6))
    M = 0.5 * (A + A.T)
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 0)
    with pytest.raises(JacobiConvergenceError, match="in 0 sweeps"):
        jacobi_eigs(M)


@pytest.mark.parametrize("M", [[[np.nan]], [[np.inf]],
                               [[np.nan, 1.0], [1.0, 1.0]]])
def test_non_finite_input_does_not_converge(M):
    # a non-finite input, 1 x 1 or larger, raises and never returns a NaN
    # spectrum
    with np.errstate(invalid="ignore"):
        with pytest.raises(JacobiConvergenceError, match="no convergence"):
            jacobi_eigs(np.array(M))


@pytest.mark.parametrize("M", [[[np.nan]], [[np.inf]],
                               [[np.nan, 1.0], [1.0, 1.0]],
                               [[np.nan, 0.0], [0.0, 1.0]]])
def test_non_finite_input_is_refused_before_any_sweep(M):
    # under the suite's warnings-as-errors, with no errstate, the refusal
    # comes before any arithmetic on the entries could warn, and no
    # rotation is made
    refusal = "no convergence: non-finite input, .*rotations 0$"
    with pytest.raises(JacobiConvergenceError, match=refusal):
        jacobi_eigs(np.array(M))


def _full_pair_sweep(M, tol=1e-12, max_sweeps=100):
    """The cyclic sweep over every pair (p, q), kept as the reference for
    the component-restricted sweep: eigenvalues and rotation count."""
    A = 0.5 * (M + M.T)
    n = A.shape[0]
    norm = np.linalg.norm(A)
    rotations = 0
    for _ in range(max_sweeps):
        off = np.linalg.norm(A - np.diag(np.diag(A)))
        if off <= tol * norm:
            break
        small = off / (n * n)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) < 1e-4 * small:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(theta) if theta != 0 else 1.0
                t = t / (abs(theta) + np.hypot(theta, 1.0))
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                A[[p, q], :] = rot.T @ A[[p, q], :]
                A[:, [p, q]] = A[:, [p, q]] @ rot
                A[p, q] = A[q, p] = 0.0
                rotations += 1
    return np.sort(np.diag(A), kind="stable"), rotations


def _structured(kind):
    """A symmetric matrix: seven blocks under a random permutation, a
    diagonal, or dense."""
    rng = np.random.default_rng(11)
    if kind == "permuted-blocks":
        sizes = [1, 4, 4, 7, 1, 3, 4]
        M = np.zeros((sum(sizes), sum(sizes)))
        start = 0
        for s in sizes:
            A = rng.standard_normal((s, s))
            M[start:start + s, start:start + s] = A + A.T
            start += s
        perm = rng.permutation(len(M))
        return M[np.ix_(perm, perm)]
    if kind == "diagonal":
        return np.diag(rng.standard_normal(9))
    A = rng.standard_normal((10, 10))
    return A + A.T


@pytest.mark.parametrize("kind", ["permuted-blocks", "diagonal", "dense"])
def test_structured_spectrum_and_components(kind):
    # the block structure of the trace-free forms is checked where they
    # are assembled (test_hessian); here only the spectrum
    M = _structured(kind)
    spec = jacobi_eigs(M)
    ref = np.linalg.eigvalsh(M)
    assert np.max(np.abs(spec.eigenvalues - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", ["permuted-blocks", "diagonal", "dense"])
def test_component_sweep_matches_full_pair_sweep(kind):
    M = _structured(kind)
    spec = jacobi_eigs(M)
    evals, rotations = _full_pair_sweep(M)
    assert spec.iterations == rotations
    assert np.array_equal(spec.eigenvalues, evals)
