"""Dense n^4 tensor algebra: the oracle the library's entry lists are
pinned against.

The library computes each contraction of R the second variation is built
from once, as an entry list (``hessian._term_entries``), and never makes
an n^4 array in a command.  The functions here are the same contractions
written on dense arrays straight from their defining formulas: a
symmetric 2-tensor is its n x n matrix, a rank-4 tensor its n^4 array and
an operator on 2-vectors its matrix in the lexicographic pair basis
``e_i ^ e_j``, i < j.  The Kulkarni-Nomizu product and the random
curvature tensor are checked by ``CurvTensor4``, as the library checks R.
"""

import numpy as np

from crosscurv.tensors import (
    CurvTensor4,
    _pair_index,
    random_curvature_lambda2,
)


def dense_operators(J) -> list:
    """The dense matrices of a structure family, J_a[pi[x], x] = s[x]."""
    return [np.diag(s)[np.argsort(pi)] for pi, s in J.perms]


def kn_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kulkarni-Nomizu product of two symmetric 2-tensors.

    (a ^ b)(x,y,z,w) = a(x,z)b(y,w) + a(y,w)b(x,z)
                       - a(x,w)b(y,z) - a(y,z)b(x,w)
    """
    if a.shape != b.shape:
        raise ValueError("dimension mismatch in kn_product")
    T = (
        np.einsum("xz,yw->xyzw", a, b)
        + np.einsum("yw,xz->xyzw", a, b)
        - np.einsum("xw,yz->xyzw", a, b)
        - np.einsum("yz,xw->xyzw", a, b)
    )
    return CurvTensor4(T).entries


def to_lambda2(T: np.ndarray) -> np.ndarray:
    """A curvature-type tensor as an operator on 2-vectors."""
    ii, jj = _pair_index(T.shape[0])
    return T[ii[:, None], jj[:, None], ii[None, :], jj[None, :]]


def from_lambda2(n: int, M: np.ndarray) -> np.ndarray:
    """The 4-index array of a pair-basis operator of dimension n.

    It is antisymmetric in both index pairs by construction, and pair
    symmetric only when M is symmetric.
    """
    ii, jj = _pair_index(n)
    T = np.zeros((n, n, n, n))
    T[ii[:, None], jj[:, None], ii[None, :], jj[None, :]] = M
    T[jj[:, None], ii[:, None], ii[None, :], jj[None, :]] = -M
    T[ii[:, None], jj[:, None], jj[None, :], ii[None, :]] = -M
    T[jj[:, None], ii[:, None], jj[None, :], ii[None, :]] = M
    return T


def ricci(T: np.ndarray) -> np.ndarray:
    """Ricci contraction r(x,y) = sum_i R(x, v_i, y, v_i)."""
    return np.einsum("aibi->ab", T)


def check_tensor(T: np.ndarray) -> np.ndarray:
    """Self-contraction (x,y) -> sum R(x,i,j,k) R(y,i,j,k); its trace is
    |R|^2, and for the model tensors it is proportional to the metric."""
    return np.einsum("aijk,bijk->ab", T, T, optimize=True)


def r_ring(T: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Curvature action (x,y) -> sum_ij R(v_i, x, v_j, y) h(v_i, v_j),
    symmetrized."""
    out = np.einsum("ixjy,ij->xy", T, h, optimize=True)
    return 0.5 * (out + out.T)


def k_pairing(T: np.ndarray, h: np.ndarray) -> float:
    """Pair the symmetrized quadratic-in-R 4-tensor against h (x) h.

    K(x,y,z,w) = (1/2) sum_ij [R(x,i,z,j)R(y,i,w,j) + R(x,i,w,j)R(y,i,z,j)],
    contracted in slots (1,2) with the first copy of h and (3,4) with the
    second: the quadruple sum sum h_pq h_mn R_pimj R_qinj.
    """
    K = 0.5 * (
        np.einsum("xizj,yiwj->xyzw", T, T, optimize=True)
        + np.einsum("xiwj,yizj->xyzw", T, T, optimize=True)
    )
    return float(np.einsum("xyzw,xy,zw->", K, h, h, optimize=True))


def rr_kn_pairing(T: np.ndarray, h: np.ndarray) -> float:
    """Pairing of the operator square of R with h ^ h: tr(P_R^2 P_{h^h})."""
    P = to_lambda2(T)
    return float(np.trace(P @ P @ to_lambda2(kn_product(h, h))))


def compose_and_ricci(T: np.ndarray, T1: np.ndarray) -> tuple:
    """Operator product of two curvature tensors and its symmetrized Ricci.

    The product is formed on 2-vectors and mapped back to four indices; it
    is generally not pair symmetric, so the Ricci-type contraction is
    symmetrized:  r(x,y) = (1/2) sum_i [P(x,i,y,i) + P(y,i,x,i)].
    """
    comp = from_lambda2(T.shape[0], to_lambda2(T) @ to_lambda2(T1))
    raw = ricci(comp)
    return comp, 0.5 * (raw + raw.T)


def tilde(h: np.ndarray, J) -> np.ndarray:
    """Sum of the pullbacks of h under the structure operators of the
    family ``J``; zero for the empty family."""
    out = np.zeros_like(h)
    for Jm in dense_operators(J):
        out += Jm.T @ h @ Jm
    return out


def lambda2_pushforward(A: np.ndarray) -> np.ndarray:
    """Matrix of the induced map on 2-vectors: e_i ^ e_j -> A e_i ^ A e_j."""
    ii, jj = _pair_index(A.shape[0])
    # entry [(a,b),(c,d)] = A[a,c] A[b,d] - A[b,c] A[a,d]
    return (
        A[ii[:, None], ii[None, :]] * A[jj[:, None], jj[None, :]]
        - A[jj[:, None], ii[None, :]] * A[ii[:, None], jj[None, :]]
    )


def pair_vector(w: np.ndarray) -> np.ndarray:
    """Coordinates of an antisymmetric matrix in the pair basis."""
    ii, jj = _pair_index(w.shape[0])
    return w[ii, jj]


def random_curvature(n: int, seed) -> np.ndarray:
    """Seeded random algebraic curvature tensor: the 4-index array of
    ``random_curvature_lambda2``."""
    return CurvTensor4(from_lambda2(n, random_curvature_lambda2(n, seed))).entries
