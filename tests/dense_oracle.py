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

The second half keeps the paths the library took while it still held
every nonzero of R, as oracles for the paths that read representative
lines: R's own invariance under the permutations of the lines, the hold
of every nonzero, the construction gates' contractions over the whole
list, and the trace-free
form relabelled from lines 0 and 1 onto every line and pair of lines and
split into its components.
"""

import numpy as np

from crosscurv import hessian, models
from crosscurv.tensors import (
    CurvTensor4,
    _pair_lookup,
    flat_index,
    gather,
    pairs_by_key,
    random_curvature_lambda2,
    sum_entries,
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
    ii, jj = np.triu_indices(T.shape[0], 1)
    return T[ii[:, None], jj[:, None], ii[None, :], jj[None, :]]


def from_lambda2(n: int, M: np.ndarray) -> np.ndarray:
    """The 4-index array of a pair-basis operator of dimension n.

    It is antisymmetric in both index pairs by construction, and pair
    symmetric only when M is symmetric.
    """
    ii, jj = np.triu_indices(n, 1)
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
    ii, jj = np.triu_indices(A.shape[0], 1)
    # entry [(a,b),(c,d)] = A[a,c] A[b,d] - A[b,c] A[a,d]
    return (
        A[ii[:, None], ii[None, :]] * A[jj[:, None], jj[None, :]]
        - A[jj[:, None], ii[None, :]] * A[ii[:, None], jj[None, :]]
    )


def pair_vector(w: np.ndarray) -> np.ndarray:
    """Coordinates of an antisymmetric matrix in the pair basis."""
    ii, jj = np.triu_indices(w.shape[0], 1)
    return w[ii, jj]


def random_curvature(n: int, seed) -> np.ndarray:
    """Seeded random algebraic curvature tensor: the 4-index array of
    ``random_curvature_lambda2``."""
    return CurvTensor4(from_lambda2(n, random_curvature_lambda2(n, seed))).entries


# ---------------------------------------------------------------------------
# the whole list of R's nonzeros
# ---------------------------------------------------------------------------

def line_symmetric(J, keys: np.ndarray, values: np.ndarray) -> bool:
    """Whether the J_a and the tensor with the nonzeros (keys, values) are
    exactly invariant under every permutation of the m coordinate lines.
    The J half is the library's; R is kept by each of the two generating
    permutations when its moved keys, sorted, are ``keys`` and the values
    moved with them are ``values``."""
    if not models._line_symmetric(J):
        return False
    n = J.n
    m = n // (J.tau + 1)
    alpha, line = np.divmod(np.arange(n), m)
    slots = np.unravel_index(keys, (n,) * 4)
    for p in (alpha * m + np.where(line < 2, 1 - line, line) % m,
              alpha * m + (line + 1) % m):
        moved = flat_index(n, [p[k] for k in slots])
        order = np.argsort(moved, kind="stable")
        if not (np.array_equal(moved[order], keys)
                and np.array_equal(values[order], values)):
            return False
    return True


def whole_hold(J, keys: np.ndarray, values: np.ndarray):
    """Every nonzero (keys, values) of R, each standing for itself, on all
    m lines: what the gates read to take their maxima over every line."""
    n = J.n
    m = n // (J.tau + 1)
    slots = np.unravel_index(keys, (n,) * 4)
    # the line labels of each nonzero, sorted, give how many it touches
    labels = np.sort([k % m for k in slots], axis=0)
    touches = 1 + np.count_nonzero(labels[1:] != labels[:-1], axis=0)
    return models._Nonzeros(keys, values, slots, np.ones(keys.size), m,
                            touches)


def holding(J, keys: np.ndarray, values: np.ndarray) -> tuple:
    """The nonzeros held for an R with the nonzeros (keys, values), and
    whether R is ``line_symmetric``: if it is, those on lines 0..min(m, 4)
    - 1 with their orbit weights, as the build holds them; else
    ``whole_hold``, so that the gates read every line."""
    if not line_symmetric(J, keys, values):
        return whole_hold(J, keys, values), False
    n = J.n
    m = n // (J.tau + 1)
    near = np.arange(n) % m < 4
    slots = np.unravel_index(keys, (n,) * 4)
    at = np.flatnonzero(near[slots[0]] & near[slots[1]] & near[slots[2]]
                        & near[slots[3]])
    return models._nonzeros(n, m, keys[at], values[at]), True


def full_list_gates(n: int, keys: np.ndarray, vals: np.ndarray) -> tuple:
    """The construction gates' sums over every nonzero (keys, vals) of R:
    the Ricci contraction and the self-contraction as n x n arrays, and
    |R|^2 summed directly, through the pair-basis operator and as the
    trace of the self-contraction."""
    i0, i1, i2, i3 = np.unravel_index(keys, (n,) * 4)
    on = i1 == i3
    ric = np.bincount(i0[on] * n + i2[on], weights=vals[on],
                      minlength=n * n).reshape(n, n)
    s, t = pairs_by_key(keys % n**3)
    chk = np.bincount(i0[s] * n + i0[t], weights=vals[s] * vals[t],
                      minlength=n * n).reshape(n, n)
    chk += chk.T - np.diag(np.bincount(i0, weights=vals * vals, minlength=n))
    pair = (i0 < i1) & (i2 < i3)
    exchanged = gather(keys, vals, flat_index(n, (i2[pair], i3[pair],
                                                  i0[pair], i1[pair])))
    return (ric, chk, float(np.sum(vals * vals)),
            4.0 * float(np.sum(vals[pair] * exchanged)), float(np.trace(chk)))


# ---------------------------------------------------------------------------
# the trace-free form relabelled onto every line
# ---------------------------------------------------------------------------

def distinct_blocks(size: int, rows, cols, vals) -> list:
    """The connected components of the pattern of a size x size form given
    by its nonzero entries, grouped by bit-identical block: (block, index
    array of shape occurrences x size) in the order of first occurrence,
    each component's indices ascending."""
    label = np.arange(size)
    while True:  # each label falls to the smallest index of its component
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        if np.array_equal(low, label):
            break
        label = low
    order = np.argsort(label, kind="stable")
    start = np.diff(label[order], prepend=-1) != 0
    comp = np.empty(size, dtype=np.intp)
    comp[order] = np.cumsum(start) - 1
    pos = np.empty(size, dtype=np.intp)
    pos[order] = np.arange(size) - np.flatnonzero(start)[comp[order]]
    by_comp = np.argsort(comp[rows], kind="stable")
    counts = np.bincount(comp[rows], minlength=np.count_nonzero(start))
    groups: dict = {}
    for idx, at in zip(np.split(order, np.flatnonzero(start)[1:]),
                       np.split(by_comp, np.cumsum(counts)[:-1])):
        block = np.zeros((idx.size, idx.size))
        block[pos[rows[at]], pos[cols[at]]] = vals[at]
        groups.setdefault(block.tobytes(), (block, []))[1].append(idx)
    return [(block, np.array(occ)) for block, occ in groups.values()]


def diagonal_entries(model, D: np.ndarray) -> tuple:
    """Rows, columns (from the first diagonal column) and values of the
    form on the diagonal columns of ``tt_basis`` from the whole n x n D,
    symmetrized: m - 1 copies of A - B and the tau x tau block U^T (A +
    (m - 1) B) U, A being D on line 0 and B D between lines 0 and 1."""
    units = model.tau + 1
    lines = model.n // units
    D = 0.5 * (D + D.T)
    A = D[::lines, ::lines]
    B = D[::lines, 1::lines] if lines > 1 else np.zeros_like(A)
    assert np.array_equal(B, B.T)
    each = A - B
    U = hessian._ladder(units)
    top = U.T @ (A + (lines - 1) * B) @ U
    top = 0.5 * (top + top.T)
    p, q = np.nonzero(each)
    at = units * np.arange(lines - 1)[:, None]
    r, s = np.nonzero(top)
    last = units * (lines - 1)
    return (np.concatenate([(at + p).ravel(), last + r]),
            np.concatenate([(at + q).ravel(), last + s]),
            np.concatenate([np.tile(each[p, q], lines - 1), top[r, s]]))


def split_form(model, rows, cols, vals) -> list:
    """The blocks, as (block, places) in the order of first occurrence, of
    the whole form given by the nonzeros (rows, cols, vals) of C on the
    place pairs: C / 2 on the pairs and ``diagonal_entries`` on the
    diagonal columns, split into ``distinct_blocks`` together."""
    n = model.n
    off = n * (n - 1) // 2
    on_pairs = rows < off
    assert np.array_equal(on_pairs, cols < off)
    D = np.zeros((n, n))
    D[rows[~on_pairs] - off, cols[~on_pairs] - off] = vals[~on_pairs]
    r, s, v = diagonal_entries(model, D)
    return distinct_blocks(
        off + n - 1, np.concatenate([rows[on_pairs], off + r]),
        np.concatenate([cols[on_pairs], off + s]),
        np.concatenate([0.5 * vals[on_pairs], v]))


def onto_every_line(model, place, keys, vals) -> tuple:
    """The entries of C, keys place * size + place, from its entries
    between the places on lines 0 and 1: an entry on line 0 alone moved
    onto every line, one on lines 0 and 1 onto every pair of lines a < b
    (line 0 to a, line 1 to b), and those on line 1 alone dropped."""
    n = model.n
    size = place.max() + 1
    lines = n // (model.tau + 1)
    ii, jj = np.triu_indices(n, 1)
    ends = (np.concatenate([ii, np.arange(n)]),
            np.concatenate([jj, np.arange(n)]))
    xyzw = np.stack([end[p] for p in np.divmod(keys, size) for end in ends])
    on = xyzw % lines
    touched = np.bitwise_or.reduce(1 << np.minimum(on, 2), axis=0)
    assert np.all(touched <= 3)

    def moved(sel, a, b):
        x = xyzw[:, sel] + np.where(on[:, sel] == 0, a, b - 1)
        return ((place[x[:, 0] * n + x[:, 1]] * size
                 + place[x[:, 2] * n + x[:, 3]]).ravel(),
                np.tile(vals[sel], len(a)))

    every = np.arange(lines).reshape(-1, 1, 1)
    a, b = (end.reshape(-1, 1, 1) for end in np.triu_indices(lines, 1))
    return tuple(np.concatenate(col) for col in zip(
        moved(touched == 1, every, every), moved(touched == 3, a, b)))


def two_line_assembly(model, weights: dict) -> list:
    """The blocks of ``assemble_quadform`` as they were summed with every
    nonzero of R held: the terms pair the nonzeros whose free slots lie on
    lines 0 and 1 with their contracted slots on every line, and C there
    is relabelled onto every line and pair of lines (``onto_every_line``)
    and split (``split_form``)."""
    n = model.n
    off = n * (n - 1) // 2
    size = off + n
    place = _pair_lookup(n).copy()
    place[np.diag_indices(n)] = off + np.arange(n)
    place = place.ravel()
    near = np.arange(n) % (n // (model.tau + 1)) < 2
    i0, i1, i2, i3 = np.unravel_index(model.R_keys, (n,) * 4)
    at = np.flatnonzero(near[i0] & (near[i1] | near[i2]))
    nz = (i0[at], i1[at], i2[at], i3[at], model.R_values[at] / abs(model.c))
    C = sum_entries([])
    for key, w in weights.items():
        if w == 0:
            continue
        rows, cols, v = hessian._term_entries(model, key, nz, near)
        C = sum_entries([C, (place[rows] * size + place[cols], v * float(w))])
    keys, vals = onto_every_line(model, place, *C)
    return split_form(model, *np.divmod(keys, size), vals)
