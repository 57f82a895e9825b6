"""Normed division algebra multiplication tables.

Builds the real, complex, quaternion and octonion basis tables by repeated
Cayley-Dickson doubling.  Every basis product in these algebras is a signed
basis element, so a table is stored as an integer pair ``(idx, sgn)`` with

    e_i * e_j = sgn[i, j] * e_{idx[i, j]}

which keeps the whole construction exact.  Row u of a table is left
multiplication by e_u as a signed permutation, x -> e_u x sending e_j to
sgn[u, j] e_{idx[u, j]}; the rows of the imaginary units square to -Id
and anticommute pairwise (Clifford relations), which the tests certify
directly from the tables, and agree with the product of two coefficient
vectors under the table (``multiply`` in ``tests/dense_oracle.py``).  The
structure operators of the curvature models are these rows, repeated
over the coordinates.

Doubling rule on pairs, with x* the standard conjugation:

    (a, b)(c, d) = (a c - d* b,  d a + b c*)
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "cayley_dickson_double",
    "real_table",
    "complex_table",
    "quaternion_table",
    "octonion_table",
]


def real_table() -> tuple[np.ndarray, np.ndarray]:
    """Table of the reals: a single basis element squaring to itself."""
    idx = np.zeros((1, 1), dtype=np.int64)
    sgn = np.ones((1, 1), dtype=np.int64)
    return idx, sgn


def cayley_dickson_double(
    idx: np.ndarray, sgn: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Double a *-algebra table.

    Basis of the doubled algebra: f_i = (e_i, 0) and f_{n+i} = (0, e_i).
    Conjugation fixes e_0 and negates every other basis element, so the
    doubling rule specializes on basis pairs to

        f_i       f_j       = (e_i e_j, 0)
        f_i       f_{n+j}   = (0, e_j e_i)
        f_{n+i}   f_j       = (0, e_i e_j*)
        f_{n+i}   f_{n+j}   = (-e_j* e_i, 0)
    """
    n = idx.shape[0]
    conj = np.where(np.arange(n) == 0, 1, -1)  # sign of e_i -> e_i*

    idx2 = np.zeros((2 * n, 2 * n), dtype=np.int64)
    sgn2 = np.zeros((2 * n, 2 * n), dtype=np.int64)

    # (e_i, 0)(e_j, 0) = (e_i e_j, 0)
    idx2[:n, :n] = idx
    sgn2[:n, :n] = sgn
    # (e_i, 0)(0, e_j) = (0, e_j e_i)
    idx2[:n, n:] = idx.T + n
    sgn2[:n, n:] = sgn.T
    # (0, e_i)(e_j, 0) = (0, e_i e_j*)
    idx2[n:, :n] = idx + n
    sgn2[n:, :n] = sgn * conj[np.newaxis, :]
    # (0, e_i)(0, e_j) = (-e_j* e_i, 0)
    idx2[n:, n:] = idx.T
    sgn2[n:, n:] = -(sgn.T * conj[np.newaxis, :])
    return idx2, sgn2


def complex_table() -> tuple[np.ndarray, np.ndarray]:
    return cayley_dickson_double(*real_table())


def quaternion_table() -> tuple[np.ndarray, np.ndarray]:
    return cayley_dickson_double(*complex_table())


def octonion_table() -> tuple[np.ndarray, np.ndarray]:
    return cayley_dickson_double(*quaternion_table())
