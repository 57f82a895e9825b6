"""Cyclic Jacobi eigensolver for dense symmetric matrices.

Self-contained rotation-based solver: no LAPACK call decides a certificate.
The matrices are the trace-free forms, of size n(n+1)/2 - 1: 135 x 135 for
the 16-dimensional octonionic plane, 819 x 819 for hp10 (n = 40).  Sweeping
to a 1e-12 off-diagonal norm takes a handful of sweeps.
``numpy.linalg.eigh`` appears only in the test suite as an independent
oracle.

The trace-free forms are exactly block-diagonal up to a permutation (hp10
has 241 blocks, the largest of size 39), so each sweep visits only the
pairs (p, q) that lie in one connected component of the input's nonzero
pattern, in the usual lexicographic order.  This leaves every bit of the
result unchanged: a rotation in the (p, q) plane combines rows and columns
p and q, whose entries outside their component are exactly zero, so every
cross-component entry stays exactly zero and the full-pair sweep skips it
anyway.  The rotation sequence, the rotation count and the eigenvalues are
those of the sweep over all pairs.  The components are recorded on the
returned ``Spectrum`` for callers that exploit the same structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Spectrum", "JacobiConvergenceError", "jacobi_eigs"]


class JacobiConvergenceError(ArithmeticError):
    """Raised when the sweep budget is exhausted before convergence."""


@dataclass(eq=False)
class Spectrum:
    """Eigenvalues sorted ascending, matching eigenvector columns, the
    number of plane rotations performed (a deterministic work counter), and
    the connected components of the input's nonzero pattern: sorted index
    arrays, ordered by their smallest index, that partition range(n)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)
    iterations: int = 0
    components: list = field(default_factory=list, repr=False)


def _components(A: np.ndarray) -> list:
    """Connected components of the graph with an edge p -- q wherever
    A[p, q] != 0, by breadth-first search over the symmetric pattern."""
    n = A.shape[0]
    linked = A != 0
    label = np.full(n, -1)
    comps = []
    for start in range(n):
        if label[start] >= 0:
            continue
        label[start] = len(comps)
        members = front = np.array([start])
        while front.size:
            front = np.flatnonzero(linked[front].any(axis=0) & (label < 0))
            label[front] = len(comps)
            members = np.concatenate([members, front])
        comps.append(np.sort(members))
    return comps


def jacobi_eigs(M: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100) -> Spectrum:
    """Full spectrum of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rows in cyclic order, annihilating each off-diagonal entry with a
    Givens rotation, until the off-diagonal Frobenius norm drops below
    ``tol`` times the norm of the input.  Only pairs inside one connected
    component of the nonzero pattern are visited (see the module
    docstring).  Raises JacobiConvergenceError with diagnostics if
    ``max_sweeps`` full sweeps do not converge.
    """
    A = np.array(M, dtype=float, copy=True)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("jacobi_eigs needs a square matrix")
    n = A.shape[0]
    if np.max(np.abs(A - A.T)) > 1e-12 * np.max(np.abs(A)):
        raise ValueError("jacobi_eigs needs a symmetric matrix")
    A = 0.5 * (A + A.T)
    comps = _components(A)
    # partners[p]: the indices q > p of p's component, ascending
    partners = [[] for _ in range(n)]
    for comp in comps:
        members = comp.tolist()
        for i, p in enumerate(members):
            partners[p] = members[i + 1:]

    V = np.eye(n)
    norm = np.linalg.norm(A)
    if norm == 0.0 or n == 1:
        order = np.argsort(np.diag(A), kind="stable")
        return Spectrum(np.diag(A)[order], V[:, order], 0, comps)

    rotations = 0
    for _ in range(max_sweeps):
        off = np.linalg.norm(A - np.diag(np.diag(A)))
        if off <= tol * norm:
            break
        # skip rotations that cannot matter this sweep
        small = off / (n * n)
        for p in range(n - 1):
            for q in partners[p]:
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
            f"no convergence after {max_sweeps} sweeps: off-diagonal {off:.3e}, "
            f"target {tol * norm:.3e}, size {n}, rotations {rotations}"
        )

    evals = np.diag(A).copy()
    order = np.argsort(evals, kind="stable")
    return Spectrum(evals[order], V[:, order], rotations, comps)
