"""Cyclic Jacobi eigensolver for dense symmetric matrices.

Self-contained rotation-based solver: no LAPACK call decides a certificate.
The matrices are the distinct blocks of the trace-free forms
(``hessian.QuadForm``), none of more than tau + 1 <= 8 rows at any n, and
the 3 x 3 Rayleigh-Ritz problems of the Rayleigh refinement.  A handful of
the ``MAX_SWEEPS`` allowed bring the off-diagonal norm to ``TOL`` times the
input's.  ``numpy.linalg.eigh`` is only the test suite's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Spectrum", "JacobiConvergenceError", "jacobi_eigs"]

#: stopping tolerance, relative to the Frobenius norm of the input
TOL = 1e-12
#: sweep budget before ``JacobiConvergenceError``
MAX_SWEEPS = 100


class JacobiConvergenceError(ArithmeticError):
    """Raised when the sweep budget is exhausted before convergence."""


@dataclass(eq=False)
class Spectrum:
    """Eigenvalues sorted ascending, matching eigenvector columns, and the
    number of plane rotations performed (a deterministic work counter)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)
    iterations: int = 0


def jacobi_eigs(M: np.ndarray) -> Spectrum:
    """Full spectrum of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rows in cyclic order, annihilating each off-diagonal entry with a
    Givens rotation, until the off-diagonal Frobenius norm drops below
    ``TOL`` times the norm of the input.  Raises JacobiConvergenceError
    with diagnostics if ``MAX_SWEEPS`` full sweeps do not converge, and
    at once, before any sweep, on an input with a NaN or infinite entry.
    """
    A = np.array(M, dtype=float, copy=True)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("jacobi_eigs needs a square matrix")
    n = A.shape[0]
    if not np.isfinite(A).all():
        raise JacobiConvergenceError(
            f"no convergence: non-finite input, size {n}, rotations 0")
    if np.max(np.abs(A - A.T)) > 1e-12 * np.max(np.abs(A)):
        raise ValueError("jacobi_eigs needs a symmetric matrix")
    A = 0.5 * (A + A.T)
    V = np.eye(n)
    norm = np.linalg.norm(A)
    rotations = 0
    for _ in range(MAX_SWEEPS):
        off = np.linalg.norm(A - np.diag(np.diag(A)))
        if off <= TOL * norm:
            break
        # skip rotations that cannot matter this sweep
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
                rows = A[[p, q], :]
                A[[p, q], :] = rot.T @ rows
                cols = A[:, [p, q]]
                A[:, [p, q]] = cols @ rot
                A[p, q] = A[q, p] = 0.0
                V[:, [p, q]] = V[:, [p, q]] @ rot
                rotations += 1
    else:
        off = np.linalg.norm(A - np.diag(np.diag(A)))
        raise JacobiConvergenceError(
            f"no convergence in {MAX_SWEEPS} sweeps: off-diagonal {off:.3e}, "
            f"target {TOL * norm:.3e}, size {n}, rotations {rotations}"
        )

    evals = np.diag(A).copy()
    order = np.argsort(evals, kind="stable")
    return Spectrum(evals[order], V[:, order], rotations)
