"""Multilinear algebra at a single tangent space in an orthonormal frame.

Everything here is pointwise: symmetric 2-tensors, rank-4 curvature-type
tensors, their standard contractions (Ricci, self-contraction, the action on
symmetric 2-tensors), the Kulkarni-Nomizu product, the identification of a
curvature tensor with a symmetric operator on the space of 2-vectors, and
seeded random generators that project onto the algebraic curvature class
(a random curvature tensor is drawn in the pair basis,
``random_curvature_lambda2``).

A rank-4 tensor is held either as a dense n^4 array or as its nonzeros: the
C-order flat indices of its nonzero entries, ascending, and their values.
The curvature symmetries and the first Bianchi identity are checked once,
on the nonzeros (``check_curvature_rules``), whichever way the tensor is
held; ``sum_by_key``, ``gather``, ``align`` and ``pairs_by_key`` are the
list operations the model build, its audit and the form assembly share.

Conventions, fixed once:

* the metric is the identity matrix, frames are orthonormal;
* 2-vectors use the lexicographic pair basis ``e_i ^ e_j`` with ``i < j``,
  which is orthonormal for the pair inner product used throughout;
* ``|R|^2`` is the flat square sum over all four indices, which equals
  ``4 tr(P^2)`` for the associated pair-basis operator ``P``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "SymTensor2",
    "CurvTensor4",
    "Lambda2Operator",
    "kn_product",
    "to_lambda2",
    "from_lambda2",
    "ricci",
    "check_tensor",
    "r_ring",
    "k_pairing",
    "rr_kn_pairing",
    "compose_and_ricci",
    "tilde",
    "lambda2_pushforward",
    "pair_vector",
    "random_symtensor",
    "random_curvature",
    "random_curvature_lambda2",
    "check_curvature_rules",
]

#: tolerance for structural residuals, relative to the largest entry
STRUCT_TOL = 1e-12


def _scale(a: np.ndarray) -> float:
    """Largest absolute entry (0 for an empty array): the natural size of
    a structural residual, whatever the curvature scale."""
    return float(np.max(np.abs(a), initial=0.0))


@dataclass(eq=False)
class SymTensor2:
    """A symmetric bilinear form given by its matrix in the frame.

    With ``trace_free=True`` the constructor additionally insists that the
    trace vanishes to 1e-12 of the largest entry; tensors produced by the
    random generator with that flag satisfy this exactly.
    """

    entries: np.ndarray
    trace_free: bool = False

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("SymTensor2 needs a square matrix")
        if np.max(np.abs(self.entries - self.entries.T)) > STRUCT_TOL * _scale(self.entries):
            raise ValueError("SymTensor2 entries are not symmetric")
        if self.trace_free and abs(np.trace(self.entries)) > 1e-12 * _scale(self.entries):
            raise ValueError("tensor flagged trace-free has nonzero trace")

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries))

    def norm2(self) -> float:
        return float(np.sum(self.entries * self.entries))


@dataclass(eq=False)
class CurvTensor4:
    """A rank-4 tensor; with ``algebraic=True`` (default) it must satisfy the
    curvature symmetries and the first Bianchi identity as residuals of at
    most 1e-12 of the largest entry.

    Non-algebraic instances (``algebraic=False``) are plain containers; they
    carry compositions and other intermediates that lack pair symmetry.
    """

    entries: np.ndarray
    algebraic: bool = True

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.ndim != 4 or len(set(self.entries.shape)) != 1:
            raise ValueError("CurvTensor4 needs an n^4 array")
        if self.algebraic:
            check_curvature_rules(*_dense_terms(self.entries))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def norm2(self) -> float:
        """Flat square sum over all four indices."""
        return float(np.sum(self.entries * self.entries))


@dataclass(eq=False)
class Lambda2Operator:
    """A symmetric operator on 2-vectors in the lexicographic pair basis."""

    n: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)
        N = self.n * (self.n - 1) // 2
        if self.matrix.shape != (N, N):
            raise ValueError("operator matrix has the wrong shape")

    @property
    def N(self) -> int:
        return self.n * (self.n - 1) // 2


@lru_cache(maxsize=None)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second index arrays of the lexicographic pairs i<j."""
    ii, jj = np.triu_indices(n, k=1)
    return ii, jj


@lru_cache(maxsize=None)
def _pair_lookup(n: int) -> np.ndarray:
    """The n x n array of pair numbers: [i, j] and [j, i] hold the place
    of the pair i<j in the lexicographic basis (the diagonal holds 0)."""
    ii, jj = _pair_index(n)
    out = np.zeros((n, n), dtype=np.intp)
    out[ii, jj] = out[jj, ii] = np.arange(ii.size)
    return out


#: the algebraic curvature rules: the message of a failure and the terms
#: combined with T in turn, each a ufunc and the slot order in which the
#: term reads T, T'(x) = T(x[order]); the residual is the largest entry of
#: |(T op_1 T_1) op_2 T_2|
CURVATURE_RULES = (
    ("not antisymmetric in the first pair", ((np.add, (1, 0, 2, 3)),)),
    ("not antisymmetric in the second pair", ((np.add, (0, 1, 3, 2)),)),
    ("pair exchange symmetry fails", ((np.subtract, (2, 3, 0, 1)),)),
    ("first Bianchi identity fails", ((np.add, (0, 2, 3, 1)),
                                      (np.add, (0, 3, 1, 2)))),
)


def _rule_residual(terms, values, term_at) -> float:
    """Residual of one rule of ``CURVATURE_RULES`` from the nonzero
    entries ``values`` of T; ``term_at(order)`` gives T(x[order]) at the
    same nonzeros x, in the same order.

    The residual is evaluated at the nonzeros alone, and that is its
    maximum over all n^4 entries.  Each rule's slot orders form a group
    (an involution, or the cyclic shift of the last three slots), and
    wherever the residual is nonzero off the nonzeros of T some entry of
    its orbit is a nonzero of T, where the residual has the same size:
    the terms that are 0 there add exactly.
    """
    total = values
    for op, order in terms:
        total = op(total, term_at(order))
    return float(np.max(np.abs(total), initial=0.0))


def check_curvature_rules(values, term_at) -> None:
    """ValueError, with the rule's message, unless the tensor with the
    nonzero entries ``values`` meets every rule of ``CURVATURE_RULES`` to
    1e-12 of its largest entry; ``term_at`` as in ``_rule_residual``.  The
    rules run in order and the first one that fails is reported."""
    tol = STRUCT_TOL * _scale(values)
    for message, terms in CURVATURE_RULES:
        if _rule_residual(terms, values, term_at) > tol:
            raise ValueError(message)


def _dense_terms(T: np.ndarray) -> tuple:
    """The nonzero entries of a dense T and their ``term_at``: each term
    is a transpose of T read through the same mask."""
    mask = T != 0
    return T[mask], lambda order: np.transpose(T, np.argsort(order))[mask]


def flat_index(n: int, slots) -> np.ndarray:
    """C-order flat indices in an n^4 array of four slot arrays."""
    i0, i1, i2, i3 = slots
    return ((i0 * n + i1) * n + i2) * n + i3


def sum_by_key(keys: np.ndarray, values: np.ndarray) -> tuple:
    """The distinct keys, ascending, and the sum of the values at each:
    one sort and ``np.add.reduceat``."""
    order = np.argsort(keys)
    keys, values = keys[order], values[order]
    start = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[start], np.add.reduceat(values, start)


def gather(keys: np.ndarray, values: np.ndarray, query) -> np.ndarray:
    """The values of a list with ascending distinct ``keys`` at ``query``,
    0 where a key is absent."""
    at = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    return np.where(keys[at] == query, values[at], 0.0)


def align(*lists) -> tuple:
    """The union of the keys of several (keys, values) lists, each with
    distinct keys, ascending, and a row per list of its values on the
    union, 0 where the list has no entry."""
    keys = np.sort(np.concatenate([k for k, _ in lists]))
    union = keys[np.diff(keys, prepend=-1) != 0]
    del keys
    out = np.zeros((len(lists), union.size))
    for row, (keys, values) in zip(out, lists):
        order = np.argsort(keys)
        row[np.searchsorted(union, keys[order])] = values[order]
    return union, out


def pairs_by_key(key: np.ndarray, unordered: bool = False) -> tuple:
    """Positions (s, t) of every ordered pair of entries with key[s] ==
    key[t]; with ``unordered``, of every such pair once, s before or at t
    in the sort of ``key``."""
    order = np.argsort(key)
    _, start, count = np.unique(key[order], return_index=True,
                                return_counts=True)
    # the first partner of each sorted entry, and how many it has
    head = np.repeat(start, count)
    if unordered:
        head = np.arange(key.size)
    size = np.repeat(start + count, count) - head
    first = np.repeat(np.arange(key.size), size)
    offset = np.arange(first.size) - np.repeat(np.cumsum(size) - size, size)
    return order[first], order[np.repeat(head, size) + offset]


def _as_matrix(h) -> np.ndarray:
    return h.entries if isinstance(h, SymTensor2) else np.asarray(h, dtype=float)


def _as_array4(R) -> np.ndarray:
    return R.entries if isinstance(R, CurvTensor4) else np.asarray(R, dtype=float)


def kn_product(h1: SymTensor2, h2: SymTensor2) -> CurvTensor4:
    """Kulkarni-Nomizu product of two symmetric 2-tensors.

    (h1 ^ h2)(x,y,z,w) = h1(x,z)h2(y,w) + h1(y,w)h2(x,z)
                         - h1(x,w)h2(y,z) - h1(y,z)h2(x,w)
    """
    a, b = _as_matrix(h1), _as_matrix(h2)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch in kn_product")
    T = (
        np.einsum("xz,yw->xyzw", a, b)
        + np.einsum("yw,xz->xyzw", a, b)
        - np.einsum("xw,yz->xyzw", a, b)
        - np.einsum("yz,xw->xyzw", a, b)
    )
    return CurvTensor4(T)


def to_lambda2(R: CurvTensor4) -> Lambda2Operator:
    """View a curvature-type tensor as an operator on 2-vectors."""
    T = _as_array4(R)
    n = T.shape[0]
    ii, jj = _pair_index(n)
    P = T[ii[:, None], jj[:, None], ii[None, :], jj[None, :]]
    return Lambda2Operator(n, P)


def from_lambda2(P: Lambda2Operator) -> CurvTensor4:
    """Rebuild the 4-index array from a pair-basis operator.

    The result is antisymmetric in both index pairs by construction; it is
    pair symmetric (hence a CurvTensor4 candidate) only when the operator
    matrix is symmetric, so the container is returned unflagged.
    """
    n, M = P.n, P.matrix
    ii, jj = _pair_index(n)
    T = np.zeros((n, n, n, n))
    T[ii[:, None], jj[:, None], ii[None, :], jj[None, :]] = M
    T[jj[:, None], ii[:, None], ii[None, :], jj[None, :]] = -M
    T[ii[:, None], jj[:, None], jj[None, :], ii[None, :]] = -M
    T[jj[:, None], ii[:, None], jj[None, :], ii[None, :]] = M
    return CurvTensor4(T, algebraic=False)


def ricci(R: CurvTensor4) -> SymTensor2:
    """Ricci contraction r(x,y) = sum_i R(x, v_i, y, v_i)."""
    return SymTensor2(np.einsum("aibi->ab", _as_array4(R)))


def check_tensor(R: CurvTensor4) -> SymTensor2:
    """Self-contraction (x,y) -> sum R(x,i,j,k) R(y,i,j,k).

    Its trace is |R|^2; for the model tensors it is proportional to the
    metric, which is the criticality condition certified by the builders.
    """
    T = _as_array4(R)
    return SymTensor2(np.einsum("aijk,bijk->ab", T, T, optimize=True))


def r_ring(R: CurvTensor4, h: SymTensor2) -> SymTensor2:
    """Curvature action (x,y) -> sum_ij R(v_i, x, v_j, y) h(v_i, v_j)."""
    out = np.einsum("ixjy,ij->xy", _as_array4(R), _as_matrix(h), optimize=True)
    return SymTensor2(0.5 * (out + out.T))


def k_pairing(R: CurvTensor4, h: SymTensor2) -> float:
    """Pair the symmetrized quadratic-in-R 4-tensor against h (x) h.

    Builds K(x,y,z,w) = (1/2) sum_ij [R(x,i,z,j)R(y,i,w,j)
    + R(x,i,w,j)R(y,i,z,j)] and contracts slots (1,2) with the first copy
    of h and (3,4) with the second.  Equals the quadruple sum
    sum h_pq h_mn R_pimj R_qinj, which the tests use as an oracle.
    """
    T = _as_array4(R)
    hm = _as_matrix(h)
    K = 0.5 * (
        np.einsum("xizj,yiwj->xyzw", T, T, optimize=True)
        + np.einsum("xiwj,yizj->xyzw", T, T, optimize=True)
    )
    return float(np.einsum("xyzw,xy,zw->", K, hm, hm, optimize=True))


def rr_kn_pairing(R: CurvTensor4, h: SymTensor2) -> float:
    """Pairing of the operator square of R with h ^ h: tr(P_R^2 P_{h^h})."""
    P = to_lambda2(R).matrix
    Q = to_lambda2(kn_product(h, h)).matrix
    return float(np.trace(P @ P @ Q))


def compose_and_ricci(R: CurvTensor4, R1: CurvTensor4) -> tuple[CurvTensor4, SymTensor2]:
    """Operator product of two curvature tensors and its symmetrized Ricci.

    The product is formed on 2-vectors and mapped back to four indices; it
    is generally not pair symmetric, so the Ricci-type contraction is
    symmetrized:  r(x,y) = (1/2) sum_i [P(x,i,y,i) + P(y,i,x,i)].
    """
    P = to_lambda2(R).matrix @ to_lambda2(R1).matrix
    comp = from_lambda2(Lambda2Operator(_as_array4(R).shape[0], P))
    raw = np.einsum("aibi->ab", comp.entries)
    return comp, SymTensor2(0.5 * (raw + raw.T))


def tilde(h: SymTensor2, J) -> SymTensor2:
    """Sum of pullbacks of h under the nonidentity structure operators.

    ``J`` may be a structure family object (anything with an ``operators``
    attribute) or a plain list of matrices.  For the empty family the result
    is zero.
    """
    ops = getattr(J, "operators", J)
    hm = _as_matrix(h)
    out = np.zeros_like(hm)
    for Jm in ops:
        out += Jm.T @ hm @ Jm
    return SymTensor2(out)


def lambda2_pushforward(A: np.ndarray) -> np.ndarray:
    """Matrix of the induced map on 2-vectors: e_i ^ e_j -> A e_i ^ A e_j."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    ii, jj = _pair_index(n)
    # entry [(a,b),(c,d)] = A[a,c] A[b,d] - A[b,c] A[a,d]
    return (
        A[ii[:, None], ii[None, :]] * A[jj[:, None], jj[None, :]]
        - A[jj[:, None], ii[None, :]] * A[ii[:, None], jj[None, :]]
    )


def pair_vector(w: np.ndarray) -> np.ndarray:
    """Coordinates of an antisymmetric matrix in the lexicographic pair basis."""
    w = np.asarray(w, dtype=float)
    ii, jj = _pair_index(w.shape[0])
    return w[ii, jj]


def random_symtensor(n: int, seed: int, trace_free: bool = False) -> SymTensor2:
    """Seeded random symmetric 2-tensor, optionally with the trace removed."""
    if n < 3:
        raise ValueError("need n >= 3")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    s = 0.5 * (a + a.T)
    if trace_free:
        s -= np.trace(s) / n * np.eye(n)
        # re-subtract once; exact up to one rounding step
        s -= np.trace(s) / n * np.eye(n)
    return SymTensor2(s, trace_free=trace_free)


@lru_cache(maxsize=1)
def _bianchi_entries(n: int) -> np.ndarray:
    """Flat positions in the N x N pair-basis matrix of the entries that
    the first Bianchi identity ties together, one column per 4-subset
    a<b<c<d in lexicographic order: rows 0, 1, 2 hold [ab,cd], [ac,bd],
    [ad,bc] and rows 3, 4, 5 their transposes.  The columns of each a are
    filled from the 3-subsets b<c<d above it, a suffix of the 3-subsets in
    lexicographic order, so beside the result only O(n^3) words are
    held."""
    ar = np.arange(n)
    b, c, d = np.nonzero((ar[:, None, None] < ar[:, None]) & (ar[:, None] < ar))
    pair, N = _pair_lookup(n), n * (n - 1) // 2
    start = np.searchsorted(b, ar + 1)
    out = np.empty((6, int(np.sum(b.size - start))), dtype=np.intp)
    at = 0
    for a in range(n):
        tb, tc, td = b[start[a]:], c[start[a]:], d[start[a]:]
        left = (pair[a, tb], pair[a, tc], pair[a, td])
        right = (pair[tc, td], pair[tb, td], pair[tb, tc])
        for row, (p, q) in enumerate(zip(left, right)):
            out[row, at:at + tb.size] = p * N + q
            out[row + 3, at:at + tb.size] = q * N + p
        at += tb.size
    return out


#: the signs of the entries of ``_bianchi_entries`` in the cyclic sum
_BIANCHI_SIGNS = (1.0, -1.0, 1.0, 1.0, -1.0, 1.0)


def _bianchi_sum(flat: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The cyclic sum P[ab,cd] - P[ac,bd] + P[ad,bc] of each 4-subset."""
    return flat[e[0]] - flat[e[1]] + flat[e[2]]


def _project_bianchi(n: int, P: np.ndarray) -> np.ndarray:
    """A symmetric pair-basis matrix with the first Bianchi sum removed.

    The sum ties together only the three entries P[ab,cd], P[ac,bd],
    P[ad,bc] of each 4-subset a<b<c<d (and their transposes); with two
    equal indices it vanishes by the pair symmetries.  Removing t (1, -1,
    1), t = sum / 3, from each triple is the orthogonal projection in the
    flat n^4 inner product, where each of those off-diagonal entries
    counts 8 times, and it keeps the matrix exactly symmetric.
    """
    out = np.array(P, dtype=float)
    flat, e = out.reshape(-1), _bianchi_entries(n)
    t = _bianchi_sum(flat, e) / 3.0
    for row, sign in zip(e, _BIANCHI_SIGNS):
        flat[row] -= sign * t
    return out


def _check_lambda2_curvature(P: Lambda2Operator) -> None:
    """ValueError unless a pair-basis operator is an algebraic curvature
    tensor: pair exchange symmetry and the first Bianchi identity to 1e-12
    of its largest entry.  The antisymmetries hold in the pair basis by
    construction, so this is the check of ``CurvTensor4``."""
    M = P.matrix
    tol = STRUCT_TOL * _scale(M)
    if _scale(M - M.T) > tol:
        raise ValueError("pair exchange symmetry fails")
    if _scale(_bianchi_sum(M.reshape(-1), _bianchi_entries(P.n))) > tol:
        raise ValueError("first Bianchi identity fails")


def random_curvature_lambda2(n: int, seed) -> Lambda2Operator:
    """Seeded random algebraic curvature tensor as its pair-basis operator.

    The law is the standard Gaussian on the algebraic curvature tensors in
    the flat n^4 inner product.  In the pair basis an off-diagonal entry
    stands for 8 of the n^4 entries and a diagonal one for 4, so a
    symmetric matrix is drawn with variance 1/8 off the diagonal and 1/4
    on it, (G + G^T) / 4 for a standard-normal G, and projected onto the
    kernel of the first Bianchi sum (``_project_bianchi``).  Every draw is
    checked (``_check_lambda2_curvature``).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    rng = np.random.default_rng(seed)
    N = n * (n - 1) // 2
    G = rng.standard_normal((N, N))
    S = G + G.T
    del G
    S *= 0.25
    P = Lambda2Operator(n, _project_bianchi(n, S))
    _check_lambda2_curvature(P)
    return P


def random_curvature(n: int, seed) -> CurvTensor4:
    """Seeded random algebraic curvature tensor: the 4-index array of
    ``random_curvature_lambda2``."""
    return CurvTensor4(from_lambda2(random_curvature_lambda2(n, seed)).entries)
