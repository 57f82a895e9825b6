"""Multilinear algebra at a single tangent space in an orthonormal frame.

The library holds a rank-4 tensor as its nonzeros: the C-order flat
indices of its nonzero entries, ascending, and their values.  The
curvature symmetries and the first Bianchi identity are checked once, on
the nonzeros (``check_curvature_rules``); ``CurvTensor4`` applies that
check to a dense n^4 array.  The model build and its audit add and
compare entry lists through one sum, ``sum_entries``;
``gather`` reads a list at given keys and ``pairs_by_key`` pairs the
entries that share a key.  The seeded random generators draw a symmetric
2-tensor and an algebraic curvature tensor, the latter in the pair basis
(``random_curvature_lambda2``).

The module keeps nothing between calls: its index tables are built by
the call that reads them, or passed in by one that draws many times.

The dense contractions are not here.  Those the second variation is
built from (the curvature action, the structure average, the K and
exterior pairings) are computed once, as entry lists
(``hessian._term_entries``); their dense copies, with the Ricci and
check-tensor contractions, the Kulkarni-Nomizu product and the pair-basis
conversions, are the tests' oracle, ``tests/dense_oracle.py``.

Conventions, fixed once:

* the metric is the identity matrix, frames are orthonormal;
* 2-vectors use the lexicographic pair basis ``e_i ^ e_j`` with ``i < j``,
  which is orthonormal for the pair inner product used throughout;
* ``|R|^2`` is the flat square sum over all four indices, which equals
  ``4 tr(P^2)`` for the associated pair-basis operator ``P``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CurvTensor4",
    "check_curvature_rules",
    "random_symtensor",
    "random_curvature_lambda2",
]

#: tolerance for structural residuals, relative to the largest entry
STRUCT_TOL = 1e-12


def _scale(a: np.ndarray) -> float:
    """Largest absolute entry (0 for an empty array): the natural size of
    a structural residual, whatever the curvature scale."""
    return float(np.max(np.abs(a), initial=0.0))


@dataclass(eq=False)
class CurvTensor4:
    """A dense rank-4 tensor that satisfies the curvature symmetries and
    the first Bianchi identity as residuals of at most 1e-12 of its largest
    entry."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.ndim != 4 or len(set(self.entries.shape)) != 1:
            raise ValueError("CurvTensor4 needs an n^4 array")
        check_curvature_rules(*_dense_terms(self.entries))


def _pair_lookup(n: int) -> np.ndarray:
    """The n x n array of pair numbers: [i, j] and [j, i] hold the place
    of the pair i<j in the lexicographic basis (the diagonal holds 0)."""
    ii, jj = np.triu_indices(n, 1)
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


#: the largest dimension whose n^4 flat indices fit in int64:
#: 55108^4 < 2^63 <= 55109^4
MAX_DIMENSION = 55_108


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


def sum_entries(parts) -> tuple:
    """The per-key sum of a list of (keys, values) entry lists, keys
    ascending and exact zeros dropped (empty for no parts); two lists
    compare by the largest |value| of the sum of one and minus the other."""
    if not parts:
        return np.zeros(0, dtype=np.intp), np.zeros(0)
    keys, values = sum_by_key(*(np.concatenate(col) for col in zip(*parts)))
    keep = values != 0
    return keys[keep], values[keep]


def gather(keys: np.ndarray, values: np.ndarray, query) -> np.ndarray:
    """The values of a list with ascending distinct ``keys`` at ``query``,
    0 where a key is absent."""
    at = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    return np.where(keys[at] == query, values[at], 0.0)


def pairs_by_key(key: np.ndarray) -> tuple:
    """Positions (s, t) of every pair of entries with key[s] == key[t],
    once: s before or at t in the sort of ``key``, so s = t is a pair and
    (t, s) is not another one."""
    order = np.argsort(key)
    _, start, count = np.unique(key[order], return_index=True,
                                return_counts=True)
    # how many partners each sorted entry has from itself to its key's end
    size = np.repeat(start + count, count) - np.arange(key.size)
    first = np.repeat(np.arange(key.size), size)
    offset = np.arange(first.size) - np.repeat(np.cumsum(size) - size, size)
    return order[first], order[first + offset]


def random_symtensor(n: int, seed: int, trace_free: bool = False) -> np.ndarray:
    """Seeded random symmetric 2-tensor as its matrix in the frame,
    optionally trace-free.  ValueError unless the matrix is symmetric, and
    trace-free when asked, to ``STRUCT_TOL`` of its largest entry."""
    if n < 3:
        raise ValueError("need n >= 3")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    s = 0.5 * (a + a.T)
    if trace_free:
        s -= np.trace(s) / n * np.eye(n)
        # re-subtract once; exact up to one rounding step
        s -= np.trace(s) / n * np.eye(n)
    if np.max(np.abs(s - s.T)) > STRUCT_TOL * _scale(s):
        raise ValueError("random symmetric tensor is not symmetric")
    if trace_free and abs(np.trace(s)) > STRUCT_TOL * _scale(s):
        raise ValueError("tensor drawn trace-free has nonzero trace")
    return s


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


def _project_bianchi(e: np.ndarray, P: np.ndarray) -> np.ndarray:
    """A symmetric pair-basis matrix P with the first Bianchi sum removed,
    in place when P is C-contiguous (else in a copy); ``e`` is its
    ``_bianchi_entries`` table.

    The sum ties together only the three entries P[ab,cd], P[ac,bd],
    P[ad,bc] of each 4-subset a<b<c<d (and their transposes); with two
    equal indices it vanishes by the pair symmetries.  Removing t (1, -1,
    1), t = sum / 3, from each triple is the orthogonal projection in the
    flat n^4 inner product, where each of those off-diagonal entries
    counts 8 times, and it keeps the matrix exactly symmetric.
    """
    flat = P.reshape(-1)
    t = _bianchi_sum(flat, e) / 3.0
    for row, sign in zip(e, _BIANCHI_SIGNS):
        flat[row] -= sign * t
    return flat.reshape(P.shape)


#: rows of the pair-basis matrix compared at once with their transposes
EXCHANGE_ROWS = 64


def _lambda2_residuals(e: np.ndarray, M: np.ndarray) -> tuple:
    """The pair exchange residual max |M - M^T|, over row blocks of the
    upper triangle against the matching column blocks (no N x N
    temporary, the same bits), and the first Bianchi residual of the
    pair-basis matrix M at its ``_bianchi_entries`` table ``e``."""
    N = M.shape[0]
    exchange = max((_scale(M[r:r + EXCHANGE_ROWS, r:]
                           - M[r:, r:r + EXCHANGE_ROWS].T)
                    for r in range(0, N, EXCHANGE_ROWS)), default=0.0)
    return exchange, _scale(_bianchi_sum(M.reshape(-1), e))


def _check_lambda2_curvature(e: np.ndarray, M: np.ndarray) -> None:
    """ValueError unless the pair-basis matrix M, with the 4-subset table
    ``e``, is an algebraic curvature tensor: pair exchange symmetry and
    the first Bianchi identity to 1e-12 of its largest entry
    (``_lambda2_residuals``).  The antisymmetries hold in the pair basis
    by construction, so this is the check of ``CurvTensor4``."""
    tol = STRUCT_TOL * _scale(M)
    exchange, bianchi = _lambda2_residuals(e, M)
    if exchange > tol:
        raise ValueError("pair exchange symmetry fails")
    if bianchi > tol:
        raise ValueError("first Bianchi identity fails")


def random_curvature_lambda2(n: int, seed, entries=None) -> np.ndarray:
    """Seeded random algebraic curvature tensor as the matrix of its
    pair-basis operator.

    The law is the standard Gaussian on the algebraic curvature tensors in
    the flat n^4 inner product.  In the pair basis an off-diagonal entry
    stands for 8 of the n^4 entries and a diagonal one for 4, so a
    symmetric matrix is drawn with variance 1/8 off the diagonal and 1/4
    on it, (G + G^T) / 4 for a standard-normal G, and projected onto the
    kernel of the first Bianchi sum in place (``_project_bianchi``).
    Every draw is checked (``_check_lambda2_curvature``).  Both read
    ``entries``, ``_bianchi_entries(n)`` unless passed: the same draw.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    rng = np.random.default_rng(seed)
    N = n * (n - 1) // 2
    G = rng.standard_normal((N, N))
    S = G + G.T
    del G
    S *= 0.25
    if entries is None:  # built once G is gone, so it never sits beside it
        entries = _bianchi_entries(n)
    P = _project_bianchi(entries, S)
    _check_lambda2_curvature(entries, P)
    return P
