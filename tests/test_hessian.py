"""Trace-free quadratic forms, spectral certificates, conformal values.

The dense term matrices are checked against explicit loop sums, the
assembled remainder and each basis quantity alone against them, the
remainder against hand-expanded coefficient values and, bit for bit,
against the full assembly over every pair of R's nonzeros
(``full_assembly``) and against the assembly that relabelled lines 0 and
1 onto every line (``dense_oracle.two_line_assembly``), and the certified
minimal eigenvalues against pinned constants for every compact family.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosscurv import hessian, jacobi, tensors
from crosscurv.models import NoSpectralDataError, build_model
from crosscurv.tensors import _pair_lookup, sum_entries
from crosscurv.hessian import (
    QuadForm,
    TERM_KEYS,
    assemble_quadform,
    assemble_tt_remainder,
    compact_tt_coefficients,
    conformal_value,
    hp_scale,
    min_eigen_tt,
    noncompact_tt_coefficients,
    stability_verdict,
)
import dense_oracle
from dense_oracle import dense_operators, tt_basis

RNG = np.random.default_rng(7)


def _random_tt(n):
    h = RNG.standard_normal((n, n))
    h = 0.5 * (h + h.T)
    return h - np.trace(h) / n * np.eye(n)


@pytest.mark.parametrize("n", [3, 4, 5, 16])
def test_tt_basis_orthonormal_symmetric_tracefree(n):
    # for every family of dimension n: sphere, cp, hp and op
    dim = n * (n + 1) // 2 - 1
    for tau in (t for t in (0, 1, 3, 7) if n % (t + 1) == 0):
        B = tt_basis(n, tau)
        assert B.shape == (n * n, dim)
        assert np.allclose(B.T @ B, np.eye(dim), atol=1e-14)
        for col in B.T:
            h = col.reshape(n, n)
            assert np.allclose(h, h.T, atol=1e-15)
            assert abs(np.trace(h)) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 5, 16, 33])
def test_tt_basis_of_the_sphere_is_the_diagonal_ladder(n):
    # each coordinate of the sphere is a line: the diagonal columns are the
    # ladder diag(1, ..., 1, -k, 0, ..., 0)/sqrt(k (k+1)), bit for bit
    off = n * (n - 1) // 2
    want = np.zeros((n * n, off + n - 1))
    i, j = np.triu_indices(n, k=1)
    want[i * n + j, np.arange(off)] = want[j * n + i, np.arange(off)] = \
        1.0 / np.sqrt(2.0)
    want[np.arange(n) * (n + 1), off:] = hessian._ladder(n)
    assert tt_basis(n, 0).tobytes() == want.tobytes()


@pytest.mark.parametrize("n,tau", [(5, 1), (0, 0), (6, 3), (-4, 1),
                                   (4, -1)])
def test_tt_basis_refuses_a_dimension_off_its_lines(n, tau):
    # the coordinates split into tau + 1 units of n / (tau + 1) lines; any
    # other shape is refused by name, not by numpy's reshape or allocation
    with pytest.raises(ValueError, match="positive multiple of tau"):
        tt_basis(n, tau)


def test_tt_dimension_octonionic_plane():
    # n = 16 gives 16*17/2 - 1 = 135 trace-free directions
    assert tt_basis(16, 7).shape[1] == 135


def _term_oracle(model, key, h):
    """Loop-sum evaluation of one basis quantity, independent of kron."""
    n, R = model.n, model.R.entries
    if key == "NORM_H":
        return float(np.sum(h * h))
    if key in ("IP_H_HTILDE", "NORM_HTILDE"):
        ht = np.zeros((n, n))
        for J in dense_operators(model.J):
            ht += J.T @ h @ J
        return float(np.sum(h * ht) if key == "IP_H_HTILDE"
                     else np.sum(ht * ht))
    if key in ("IP_RRING_H", "NORM_RRING"):
        act = np.zeros((n, n))
        for x in range(n):
            for y in range(n):
                act[x, y] = sum(R[i, x, j, y] * h[i, j]
                                for i in range(n) for j in range(n))
        return float(np.sum(act * h) if key == "IP_RRING_H"
                     else np.sum(act * act))
    if key == "K_PAIR":
        tot = 0.0
        for p in range(n):
            for q in range(n):
                for m in range(n):
                    for u in range(n):
                        tot += h[p, q] * h[m, u] * sum(
                            R[p, i, m, j] * R[q, i, u, j]
                            for i in range(n) for j in range(n))
        return float(tot)
    if key == "RR_KN":
        tot = 0.0
        for p in range(n):
            for q in range(n):
                for m in range(n):
                    for u in range(n):
                        tot += 0.5 * h[p, q] * h[m, u] * sum(
                            R[p, m, i, j] * R[q, u, i, j]
                            for i in range(n) for j in range(n))
        return float(tot)
    raise KeyError(key)


def term_matrix(model, key):
    """n^2 x n^2 matrix realizing one basis quantity on vec(h), row-major:
    the dense reference for ``assemble_quadform``, which builds the same
    entries from the nonzeros of R."""
    n = model.n
    R = model.R.entries
    if key == "NORM_H":
        return np.eye(n * n)
    if key in ("IP_H_HTILDE", "NORM_HTILDE"):
        G = np.zeros((n * n, n * n))
        for J in dense_operators(model.J):
            G += np.kron(J.T, J.T)
        return 0.5 * (G + G.T) if key == "IP_H_HTILDE" else G.T @ G
    if key in ("IP_RRING_H", "NORM_RRING"):
        # (action h)_xy = sum_ij R_ixjy h_ij
        L = np.einsum("ixjy->xyij", R).reshape(n * n, n * n)
        return L if key == "IP_RRING_H" else L.T @ L
    if key == "K_PAIR":
        G = np.einsum("pimj,qinj->pqmn", R, R, optimize=True)
        return G.reshape(n * n, n * n)
    if key == "RR_KN":
        G = 0.5 * np.einsum("pmij,qnij->pqmn", R, R, optimize=True)
        return G.reshape(n * n, n * n)
    raise KeyError(key)


@pytest.mark.parametrize("key", TERM_KEYS)
def test_term_matrix_matches_loop_oracle(key):
    model = build_model("complex", 2, 1.0)
    h = _random_tt(model.n)
    v = h.reshape(-1)
    M = term_matrix(model, key)
    assert np.allclose(M, M.T, atol=1e-12) or key == "K_PAIR"
    got = float(v @ M @ v)
    want = _term_oracle(model, key, h)
    assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_term_matrix_unknown_key():
    model = build_model("complex", 2, 1.0)
    with pytest.raises(KeyError, match="NORM_DDH"):
        assemble_quadform(model, {"NORM_DDH": 1.0})


def test_assemble_quadform_is_weighted_sum():
    model = build_model("quaternionic", 1, 1.0)
    coeffs = {"NORM_H": 1.5, "IP_RRING_H": 0.75, "K_PAIR": -2.0,
              "NORM_RRING": 0.25}
    qf = assemble_quadform(model, coeffs)
    assert qf.dim == model.n * (model.n + 1) // 2 - 1
    h = _random_tt(model.n)
    want = sum(w * _term_oracle(model, k, h) for k, w in coeffs.items())
    # the form on the coordinates of h in the trace-free basis
    b = tt_basis(model.n, model.tau).T @ h.reshape(-1)
    value = qf.scale * float(b @ qf.unit @ b)
    assert abs(value - want) < 1e-9 * max(1.0, abs(want))


def _dense_terms(model, weights=None):
    """G: one n^2 x n^2 ``term_matrix`` per basis quantity of ``weights``
    (by default the model's remainder), weighted and summed in order."""
    if weights is None:
        display = (compact_tt_coefficients if model.compact
                   else noncompact_tt_coefficients)
        weights = display(model.n, model.tau, model.c, model.R_norm2)
    n = model.n
    G = np.zeros((n * n, n * n))
    for key, w in weights.items():
        if w != 0:
            G += float(w) * term_matrix(model, key)
    return G


def _dense_form(model, weights=None):
    """The dense reference for ``assemble_quadform``: G compressed to the
    trace-free basis B."""
    B = tt_basis(model.n, model.tau)
    M = B.T @ _dense_terms(model, weights) @ B
    return 0.5 * (M + M.T)


FORM_MODELS = [("sphere", 0, 5), ("complex", 2, None), ("complex", 3, None),
               *(("quaternionic", m, None) for m in range(1, 7)),
               ("octonionic", 2, None)]


@pytest.mark.parametrize("term", [None, *TERM_KEYS])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("family,m,nkw", FORM_MODELS)
def test_assembly_from_nonzeros_equals_dense_terms_at_unit_scale(
        family, m, nkw, sign, term):
    # the remainder (term None), or one basis quantity at weight 1 against
    # its own dense ``term_matrix``
    model = build_model(family, m, sign, n=nkw)
    weights = None if term is None else {term: 1.0}
    qf = (assemble_tt_remainder(model) if term is None
          else assemble_quadform(model, weights))
    M = qf.unit
    n, dim = model.n, qf.dim
    G = _dense_terms(model, weights)
    # at c = +-1 every entry of G is an integer or a half-integer, so the
    # pair entries are exact: half the sum of G at the four positions of
    # the two pairs.  (B^T G B multiplies by (1/sqrt 2)^2 =
    # 0.4999999999999999 instead.)
    i, j = np.triu_indices(n, k=1)
    G4 = G.reshape(n, n, n, n)
    p, q = (i[:, None], j[:, None]), (i[None], j[None])
    four = sum(G4[a + b] for a in (p, p[::-1]) for b in (q, q[::-1]))
    assert np.array_equal(M[:i.size, :i.size], 0.5 * four)
    dense = _dense_form(model, weights)
    assert np.linalg.norm(M - dense) <= 1e-15 * np.linalg.norm(dense)
    # on the coordinates b of a trace-free h in the same B, the form is
    # h^T G h
    h = _random_tt(n).reshape(-1)
    b = tt_basis(n, model.tau).T @ h
    assert abs(qf.scale * (b @ M @ b)
               - h @ G @ h) <= 1e-12 * np.linalg.norm(dense) * (b @ b)
    # the blocks: their occurrences partition range(dim), each in
    # ascending order, and carry every nonzero of the form, bit for bit
    assert sum(count * len(block) for block, count in qf.blocks) == dim
    places = np.concatenate([idx.ravel() for idx in qf.places()])
    assert np.array_equal(np.sort(places), np.arange(dim))
    label = np.empty(dim, dtype=int)
    for k, rows in enumerate(idx for occ in qf.places() for idx in occ):
        label[rows] = k
    for (block, count), idx in zip(qf.blocks, qf.places()):
        assert idx.shape == (count, len(block))
        assert np.all(np.diff(idx, axis=1) > 0)
        assert np.all(np.diff(idx[:, 0]) > 0)
        for rows in idx:
            assert np.array_equal(M[np.ix_(rows, rows)], block)
    assert not np.any(M[label[:, None] != label[None, :]])


@pytest.mark.parametrize("c", [0.3, 2.5, 1e-6, 1e6, -0.3, -2.5, -1e-6, -1e6])
@pytest.mark.parametrize("family,m", [("complex", 2), ("quaternionic", 3),
                                      ("octonionic", 2)])
def test_assembly_from_nonzeros_matches_dense_terms_at_any_scale(family, m,
                                                                 c):
    model = build_model(family, m, c)
    dense = _dense_form(model)
    gap = np.max(np.abs(assemble_tt_remainder(model).matrix - dense))
    assert gap <= 1e-15 * np.max(np.abs(dense))


#: nonzeros of R whose pairs one batch of ``full_assembly`` forms
PAIR_BATCH = 1_024

#: the basis quantities that pair nonzeros of R
CURVATURE_TERMS = ("NORM_RRING", "K_PAIR", "RR_KN")


def full_entries(model, weights):
    """The nonzeros of C summed from every pair of R's nonzeros, on every
    line, with no relabelling, as rows, columns and values on the places.
    The curvature terms run in batches of nonzeros that share their last
    slot, which every pair they form shares, PAIR_BATCH nonzeros each."""
    n = model.n
    _, slots, values = model.R_unit
    nz = (*slots, values.astype(float))
    off = n * (n - 1) // 2
    size = off + n
    place = _pair_lookup(n).copy()
    place[np.diag_indices(n)] = off + np.arange(n)
    place = place.ravel()
    by_last = np.argsort(nz[3], kind="stable")
    step = max(1, n * PAIR_BATCH // max(1, nz[3].size))
    cuts = np.searchsorted(nz[3][by_last], np.arange(step, n, step))
    batches = [tuple(a[at] for a in nz) for at in np.split(by_last, cuts)]
    C = sum_entries([])
    for key, w in weights.items():
        if w == 0:
            continue
        for part in (batches if key in CURVATURE_TERMS else [nz]):
            rows, cols, v = hessian._term_entries(model, key, part)
            flat = place[rows]
            flat *= size
            flat += place[cols]
            v *= float(w)
            C = sum_entries([C, (flat, v)])
            del rows, cols, v, flat  # before the next batch's entries
    return (*np.divmod(C[0], size), C[1])


def full_assembly(model, weights):
    """The oracle for ``assemble_quadform``: the whole form split into its
    blocks from ``full_entries``, as (block, places)."""
    return dense_oracle.split_form(model, *full_entries(model, weights))


def _display(model):
    """The weights ``assemble_tt_remainder`` passes to the assembly."""
    display = (compact_tt_coefficients if model.compact
               else noncompact_tt_coefficients)
    unit = model.R_unit[2]
    return display(model.n, model.tau, math.copysign(1.0, model.c),
                   float(unit @ unit))


def _assert_same_bits(qf, model, want):
    """The blocks of ``qf``, their occurrence counts, their order and
    their places are those of the oracle's (block, places) list."""
    n = model.n
    assert (qf.n, qf.tau, qf.dim) == (n, model.tau, n * (n + 1) // 2 - 1)
    assert qf.scale == model.c * model.c
    assert len(qf.blocks) == len(want)
    for (block, count), idx, (block0, idx0) in zip(qf.blocks, qf.places(),
                                                   want):
        assert block.tobytes() == block0.tobytes()
        assert count == len(idx0)
        assert np.array_equal(idx, idx0)


#: the models of the oracle grid: sphere3-12, cp2-cp12, hp1-hp16 and op2
GRID = [*(("sphere", 0, n) for n in range(3, 13)),
        *(("complex", m, None) for m in range(2, 13)),
        *(("quaternionic", m, None) for m in range(1, 17)),
        ("octonionic", 2, None)]


#: the models of the oracle's other scales and of its single terms
FOUR = [("sphere", 0, 5), ("complex", 3, None), ("quaternionic", 3, None),
        ("octonionic", 2, None)]


@pytest.mark.parametrize("family,m,nkw,c,term", [
    *((*model, c, None) for model in GRID for c in (1.0, -1.0)),
    *((*model, c, None) for model in FOUR for c in (0.3, -2.5e-5)),
    *((*model, c, key) for model in FOUR for c in (1.0, -1.0)
      for key in TERM_KEYS),
])
def test_assembly_equals_the_full_assembly_bit_for_bit(family, m, nkw, c,
                                                       term):
    # the blocks read on lines 0..2 are those of the whole form the full
    # assembly sums, so the blocks, their counts, their order and their
    # places carry the same bits: for the remainder, and for each basis
    # quantity on its own
    model = build_model(family, m, c, n=nkw)
    if term is None:
        qf, weights = assemble_tt_remainder(model), _display(model)
    else:
        weights = {term: 1.0}
        qf = assemble_quadform(model, weights)
    _assert_same_bits(qf, model, full_assembly(model, weights))
    assert max(len(block) for block, _ in qf.blocks) <= model.tau + 1


@pytest.mark.parametrize("family,m,nkw,c", [
    (*model, c) for model in GRID for c in (1.0, -1.0, 0.3, -2.5e-5)])
def test_assembly_equals_the_two_line_relabelling(family, m, nkw, c):
    # the blocks of the form read on lines 0..2, one per class with its
    # count, against the assembly with every nonzero of R held, whose C on
    # lines 0 and 1 was relabelled onto every line and pair of lines and
    # split into its components: the same bytes, counts, order and places
    model = build_model(family, m, c, n=nkw)
    _assert_same_bits(assemble_tt_remainder(model), model,
                      dense_oracle.two_line_assembly(model, _display(model)))


def _diagonal_spectrum(qf):
    """The eigenvalues of the form on the diagonal columns of the basis,
    each block's repeated by its occurrences there, ascending."""
    off = qf.n * (qf.n - 1) // 2
    return np.sort(np.concatenate([
        np.repeat(np.linalg.eigvalsh(block),
                  np.count_nonzero(idx[:, 0] >= off))
        for (block, _), idx in zip(qf.blocks, qf.places())]))


@pytest.mark.parametrize("family,m,nkw,c", [
    (*model, c) for model in GRID for c in (1.0, -1.0, 0.3, -2.5e-5)])
def test_diagonal_blocks_have_the_spectrum_of_the_dense_ladder(family, m,
                                                               nkw, c):
    # D, the part of C on the n diagonal places, summed from every pair of
    # nonzeros; on the ladder L of those places the diagonal part of the
    # form is the dense L^T D L, and the blocks on the diagonal columns,
    # none wider than tau + 1, have its eigenvalues
    model = build_model(family, m, c, n=nkw)
    qf = assemble_tt_remainder(model)
    assert max(len(block) for block, _ in qf.blocks) <= model.tau + 1
    n, off = model.n, model.n * (model.n - 1) // 2
    rows, cols, vals = full_entries(model, _display(model))
    diag = rows >= off
    D = np.zeros((n, n))
    D[rows[diag] - off, cols[diag] - off] = vals[diag]
    L = hessian._ladder(n)
    ladder = L.T @ D @ L
    want = np.linalg.eigvalsh(0.5 * (ladder + ladder.T))
    gap = np.max(np.abs(_diagonal_spectrum(qf) - want))
    assert gap <= 1e-12 * np.linalg.norm(D)


@pytest.mark.parametrize("family,m", [("complex", 3), ("quaternionic", 1),
                                      ("quaternionic", 4), ("octonionic", 2)])
def test_diagonal_split_of_any_line_symmetric_part(family, m):
    # on every model B is a multiple of the ones, which U^T B U = 0 hides;
    # random integer A and B check each block, read from D on the
    # coordinates of lines 0 and 1, against the dense form on the diagonal
    # columns P of the basis
    model = build_model(family, m, 1.0)
    n, units = model.n, model.tau + 1
    lines = n // units
    A, B = (x + x.T for x in RNG.integers(-5, 6, (2, units, units)))
    D = np.kron(A - B, np.eye(lines)) + np.kron(B, np.ones((lines, lines)))
    near = np.flatnonzero(np.arange(n) % lines < 2)
    each, top = hessian._diagonal_entries(model, D[np.ix_(near, near)])
    got = np.zeros((n - 1, n - 1))
    for b in range(lines - 1):
        got[b * units:(b + 1) * units, b * units:(b + 1) * units] = each
    got[(lines - 1) * units:, (lines - 1) * units:] = top
    P = tt_basis(n, model.tau)[np.arange(n) * (n + 1), n * (n - 1) // 2:]
    assert np.linalg.norm(got - P.T @ D @ P) <= 1e-14 * np.linalg.norm(D)


def _with_entry(monkeypatch, x, y, z, w):
    """``_term_entries`` with one more NORM_H entry, between the places of
    the coordinates (x, y) and (z, w)."""
    entries = hessian._term_entries

    def planted(model, key, nz, *near):
        rows, cols, v = entries(model, key, nz, *near)
        if key != "NORM_H":
            return rows, cols, v
        n = model.n
        return (np.append(rows, x * n + y), np.append(cols, z * n + w),
                np.append(v, 1.0))

    monkeypatch.setattr(hessian, "_term_entries", planted)


@pytest.mark.parametrize("entry", [(0, 3, 2, 5), (2, 5, 0, 3)],
                         ids=["column", "row"])
def test_coupling_to_a_third_line_is_refused(entry, monkeypatch):
    # hp3: coordinate (alpha, i) = 3 alpha + i lies on line i; the pair
    # (0, 3) lies on line 0 and the pair (2, 5) on line 2, in the column
    # of the entry and then in its row
    model = build_model("quaternionic", 3, 1.0)
    _with_entry(monkeypatch, *entry)
    with pytest.raises(ValueError, match="third line"):
        assemble_tt_remainder(model)


def test_coupling_of_one_line_with_two_lines_is_refused(monkeypatch):
    # hp3: the pair (0, 3) lies on line 0 alone and the pair (0, 1) on
    # lines 0 and 1; coupled, the block of line 0 would join those of
    # every two lines through it
    model = build_model("quaternionic", 3, 1.0)
    _with_entry(monkeypatch, 0, 3, 0, 1)
    with pytest.raises(ValueError, match="two lines"):
        assemble_tt_remainder(model)


def test_line_one_that_is_not_the_image_of_line_zero_is_refused(
        monkeypatch):
    # one more entry on the diagonal place of coordinate 1, on line 1 alone
    model = build_model("quaternionic", 3, 1.0)
    _with_entry(monkeypatch, 1, 1, 1, 1)
    with pytest.raises(ValueError, match="image of line 0"):
        assemble_tt_remainder(model)


def test_diagonal_that_is_not_symmetric_between_two_lines_is_refused(
        monkeypatch):
    # hp3: one more entry from the diagonal place of coordinate 0 (unit 0,
    # line 0) to that of coordinate 4 (unit 1, line 1), and none from
    # coordinate 3 (unit 1, line 0) to coordinate 1 (unit 0, line 1)
    model = build_model("quaternionic", 3, 1.0)
    _with_entry(monkeypatch, 0, 0, 4, 4)
    with pytest.raises(ValueError, match="not symmetric"):
        assemble_tt_remainder(model)


def test_assembly_pairs_only_the_nonzeros_on_two_lines(monkeypatch):
    # hp10: the full assembly forms 155,880 K_PAIR pairs; on lines 0 and 1
    # every pairing term together forms under an eighth of that
    model = build_model("quaternionic", 10, 1.0)
    pairs = []

    def counted(key):
        s, t = tensors.pairs_by_key(key)
        pairs.append(s.size)
        return s, t

    monkeypatch.setattr(hessian, "pairs_by_key", counted)
    assemble_tt_remainder(model)
    assert pairs and sum(pairs) < 155_880 / 8


def test_build_and_assembly_hold_few_n4_arrays():
    # hp6, n = 24: the dense curvature build and frame audit peaked at
    # about four float64 arrays of n^4 entries and the per-term dense path
    # above eight; the build from the nonzeros holds none
    import tracemalloc

    n = 24
    tracemalloc.start()
    try:
        assemble_tt_remainder(build_model("quaternionic", 6, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * n**4


def test_assembly_holds_under_one_and_a_half_n4_arrays():
    # hp10, n = 40: the assembly sums each term's entries per place pair
    # on two lines and relabels them; adding them into a dense array on
    # the pair and diagonal places peaked at 1.02 n^4, and summing the
    # n^2 x n^2 G and compressing it with B^T G B at 2.32 n^4
    import tracemalloc

    model = build_model("quaternionic", 10, 1.0)
    n = model.n
    tracemalloc.start()
    try:
        assemble_tt_remainder(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n**4


def test_coupling_of_diagonal_and_pair_is_refused(monkeypatch):
    # one entry between the diagonal position (0, 0) and the pair (0, 1)
    # breaks the split into pair blocks and diagonal blocks
    _with_entry(monkeypatch, 0, 0, 0, 1)
    with pytest.raises(ValueError, match="couples the diagonal"):
        assemble_tt_remainder(build_model("complex", 2, 1.0))


def test_compact_coefficients_cp2():
    model = build_model("complex", 2, 1.0)
    qf = compact_tt_coefficients(model.n, model.tau, model.c, model.R_norm2)
    assert qf == {"K_PAIR": 4.0, "NORM_RRING": -0.5, "NORM_H": 92.0,
                  "IP_H_HTILDE": 40.0, "NORM_HTILDE": -48.0}


def test_noncompact_coefficients_hp2_dual():
    model = build_model("quaternionic", 2, -1.0)
    qf = noncompact_tt_coefficients(model.n, model.tau, model.c,
                                    model.R_norm2)
    assert qf == {"NORM_RRING": -0.5, "K_PAIR": 4.0, "RR_KN": 2.0,
                  "NORM_H": 406.0, "IP_H_HTILDE": 10.0, "NORM_HTILDE": -12.0}


def _same_blocks(qf, other):
    return len(qf.blocks) == len(other.blocks) and all(
        np.array_equal(b, b2) and k == k2 and np.array_equal(i, i2)
        for (b, k), (b2, k2), i, i2 in zip(qf.blocks, other.blocks,
                                          qf.places(), other.places()))


def test_remainder_regime_guard():
    # the remainder takes the compact display for c > 0 and the
    # non-compact one for c < 0, and the two give different forms
    for model, want, other in (
            (build_model("complex", 2, 1.0), compact_tt_coefficients,
             noncompact_tt_coefficients),
            (build_model("quaternionic", 2, -1.0), noncompact_tt_coefficients,
             compact_tt_coefficients)):
        qf = assemble_tt_remainder(model)
        symbols = (model.n, model.tau, model.c, model.R_norm2)
        assert _same_blocks(qf, assemble_quadform(model, want(*symbols)))
        assert not _same_blocks(qf, assemble_quadform(model, other(*symbols)))


# model key -> (pinned minimal eigenvalue of the displayed remainder form)
PINNED_EIG = {
    "sphere5": 25.5,
    "cp2": -4.0,
    "cp3": 20.0,
    "hp2": 288.0,
    "op2": -464.0,
}


def _model(key):
    family, m, nkw = {
        "sphere5": ("sphere", 0, 5),
        "cp2": ("complex", 2, None),
        "cp3": ("complex", 3, None),
        "hp2": ("quaternionic", 2, None),
        "op2": ("octonionic", 2, None),
    }[key]
    return build_model(family, m, 1.0, n=nkw)


@pytest.mark.parametrize("key", sorted(PINNED_EIG))
def test_min_eigen_pinned(key):
    qf = assemble_tt_remainder(_model(key))
    cert = min_eigen_tt(qf, samples=20_000, seed=0)
    assert abs(cert.eig_min - PINNED_EIG[key]) < 1e-8
    assert cert.consistent
    assert abs(cert.rayleigh_min - cert.eig_min) <= 1e-6


def test_sphere_remainder_is_scalar():
    qf = assemble_tt_remainder(_model("sphere5"))
    assert np.allclose(qf.matrix, 25.5 * np.eye(qf.dim), atol=1e-10)
    cert = min_eigen_tt(qf, samples=500, seed=0)
    assert cert.rotations == 0


def test_one_row_blocks_only_draw_nothing(monkeypatch):
    # every block of sphere5 is 1 x 1, so the form draws no stream
    qf = assemble_tt_remainder(_model("sphere5"))
    assert all(len(block) == 1 for block, _ in qf.blocks)

    def refuse(*args, **kwargs):
        raise AssertionError("a generator was constructed")

    for name in ("SeedSequence", "PCG64", "Generator"):
        monkeypatch.setattr(np.random, name, refuse)
    cert = min_eigen_tt(qf, samples=100_000, seed=7)
    assert cert.rayleigh_min == cert.eig_min == 25.5
    assert cert.consistent


def test_min_eigen_deterministic():
    qf = assemble_tt_remainder(_model("cp2"))
    a = min_eigen_tt(qf, samples=5_000, seed=3)
    b = min_eigen_tt(qf, samples=5_000, seed=3)
    assert a.rayleigh_min == b.rayleigh_min
    assert a.eig_min == b.eig_min


def _shared_draw(qf, samples, seed):
    """The form's one stream drawn at once: ``samples`` rows as wide as its
    widest block, so every chunk is a consecutive slice of this draw and
    every block reads its leading columns."""
    width = max(len(block) for block, _ in qf.blocks)
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed))).random((samples, width))


def _best_block_samples(qf, samples, seed):
    """The reference for the chunked sampling: for each distinct block, the
    leading columns of the form's one draw, centred and transposed to one
    sample per column, every quotient from one GEMM and two column sums,
    and the first best sample."""
    draw = _shared_draw(qf, samples, seed)
    best = []
    for block, _ in qf.blocks:
        V = np.subtract(draw[:, :len(block)].T, 0.5, order="C")
        vals = np.einsum("ij,ij->j", V, block @ V) / np.einsum("ij,ij->j",
                                                               V, V)
        best.append(V[:, np.argmin(vals)])
    return best


@pytest.mark.parametrize("seed", [0, 7, 123456789])
@pytest.mark.parametrize("key,samples", [("cp3", 20_000), ("hp3", 30_000),
                                         ("op2", 50_000), ("hp3", 12_345)])
def test_blockwise_sampling_matches_dense_oracle(key, samples, seed,
                                                 monkeypatch):
    model = (build_model("quaternionic", 3, 1.0) if key == "hp3"
             else _model(key))
    qf = assemble_tt_remainder(model)
    refine = hessian._refine_rayleigh
    starts = []

    def spy(M, x, **kw):
        starts.append((M, x.copy()))
        return refine(M, x, **kw)

    monkeypatch.setattr(hessian, "_refine_rayleigh", spy)
    cert = min_eigen_tt(qf, samples=samples, seed=seed)
    best = _best_block_samples(qf, samples, seed)
    # the 1 x 1 blocks are not refined; every other block is, from its
    # best sample
    sampled = [(block, want) for (block, _), want in zip(qf.blocks, best)
               if len(block) > 1]
    assert 0 < len(sampled) == len(starts) < len(qf.blocks)
    for (M, x), (block, want) in zip(starts, sampled):
        assert M is block
        assert np.array_equal(x, want)
    assert cert.rayleigh_min == qf.scale * min(
        refine(block, x)[0] for (block, _), x in zip(qf.blocks, best))


def _row_wise_best_samples(qf, samples, seed):
    """The row-wise evaluation the column evaluation replaced: each chunk
    of a block's leading columns of the form's one draw centred as drawn,
    its quotients taken one sample per row, the best kept with a strict <
    across chunks.  A 1 x 1 block gets None."""
    chunk = hessian.RAYLEIGH_CHUNK
    draw = _shared_draw(qf, samples, seed)
    best = []
    for block, _ in qf.blocks:
        if len(block) == 1:
            best.append(None)
            continue
        best_val, x = np.inf, None
        for done in range(0, samples, chunk):
            V = draw[done:done + chunk, :len(block)] - 0.5
            vals = np.einsum("ij,ij->i", V, V @ block) / np.einsum(
                "ij,ij->i", V, V)
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val, x = vals[i], V[i]
        best.append(x)
    return best


GUARD_MODELS = ([("quaternionic", m, None) for m in range(1, 11)]
                + [("complex", m, None) for m in range(2, 9)]
                + [("sphere", 0, 5), ("octonionic", 2, None)])


@pytest.mark.parametrize("c", [1.0, -1.0])
@pytest.mark.parametrize("family,m,nkw", GUARD_MODELS)
def test_column_evaluation_keeps_the_row_wise_certificate(family, m, nkw, c,
                                                          monkeypatch):
    # the column evaluation sums each quotient in another order, so only a
    # block whose quotients tie to rounding, one that is lambda I to
    # rounding, may pick another best sample; every other block starts
    # its refinement where the row-wise evaluation did, and the minimum,
    # the rotations and the consistency decision stay as they were
    qf = assemble_tt_remainder(build_model(family, m, c, n=nkw))
    samples = 100_000
    refine = hessian._refine_rayleigh
    starts = []

    def spy(M, x, **kw):
        starts.append(x.copy())
        return refine(M, x, **kw)

    monkeypatch.setattr(hessian, "_refine_rayleigh", spy)
    spectra = [hessian.jacobi_eigs(block) for block, _ in qf.blocks]
    eig_min = min(float(spec.eigenvalues.min()) for spec in spectra)
    compared = 0
    for seed in (0, 7, 123456789):
        starts.clear()
        cert = min_eigen_tt(qf, samples=samples, seed=seed)
        spied = iter(starts)
        refined = []
        for (block, _), spec, want in zip(
                qf.blocks, spectra, _row_wise_best_samples(qf, samples, seed)):
            if want is None:
                b = float(block[0, 0])
                refined.append((b, 1e-12 * abs(b)))
                continue
            x = next(spied)
            eigs = spec.eigenvalues
            if eigs.max() - eigs.min() > 1e-9 * np.linalg.norm(block):
                assert np.array_equal(x, want), seed
                compared += 1
            rho, y = refine(block, want)
            refined.append((rho, float(np.linalg.norm(block @ y - rho * y))
                            + 1e-12 * float(np.linalg.norm(block))))
        assert next(spied, None) is None
        ray_min, bound = min(refined, key=lambda found: found[0])
        assert cert.eig_min == qf.scale * eig_min
        assert cert.rotations == sum(spec.iterations for spec in spectra)
        assert cert.consistent == (abs(ray_min - eig_min) <= bound)
        assert cert.consistent
    # every block of the sphere and of hp1 (the 4-sphere) is lambda I
    assert compared > 0 or (family, m) in {("sphere", 0), ("quaternionic", 1)}


@pytest.mark.parametrize("seed", [0, 7, 123456789, 2**40 + 3])
@pytest.mark.parametrize("family,m,nkw,c", [
    ("sphere", 0, 5, 1.0), ("sphere", 0, 9, -0.3), ("complex", 2, None, 1.0),
    ("complex", 3, None, 1.0), ("complex", 5, None, -2.5e-5),
    ("quaternionic", 3, None, 7.0), ("octonionic", 2, None, 1.0)])
def test_one_row_blocks_record_what_their_sampling_gives(family, m, nkw, c,
                                                         seed):
    # the sampled path on every block, as it ran before 1 x 1 blocks were
    # recorded directly: each block's best sample refined, its quotient and
    # bound, then the smallest quotient.  A 1 x 1 block (b) refines to b
    # with residual 0 from every sample, so the certificate is the same;
    # cp2's minimum, -4, lies in a 1 x 1 block
    qf = assemble_tt_remainder(build_model(family, m, c, n=nkw))
    samples = 3_000
    refined = []
    for (block, _), x in zip(qf.blocks, _best_block_samples(qf, samples,
                                                             seed)):
        rho, y = hessian._refine_rayleigh(block, x)
        bound = (float(np.linalg.norm(block @ y - rho * y))
                 + 1e-12 * float(np.linalg.norm(block)))
        if len(block) == 1:
            b = block[0, 0]
            assert (rho, bound) == (b, 1e-12 * abs(b))
        refined.append((rho, bound))
    assert any(len(block) == 1 for block, _ in qf.blocks)
    ray_min, bound = min(refined, key=lambda found: found[0])
    eig_min = min(float(hessian.jacobi_eigs(block).eigenvalues.min())
                  for block, _ in qf.blocks)
    cert = min_eigen_tt(qf, samples=samples, seed=seed)
    assert cert.rayleigh_min == qf.scale * ray_min
    assert cert.residual_bound == qf.scale * bound
    assert cert.consistent == (abs(ray_min - eig_min) <= bound)


def test_residual_bound_reads_the_jacobi_tolerance(monkeypatch):
    # the Jacobi term of the bound is jacobi.TOL when the certificate is
    # made: TOL |b| on a 1 x 1 record, and the residual plus TOL ||B||_F on
    # a sampled block, refined here to its exact bottom eigenvector so
    # that the residual is 0
    monkeypatch.setattr(hessian, "_refine_rayleigh", lambda block, x: (
        float(block[0, 0]), np.eye(len(block))[0]))
    record = QuadForm(n=3, tau=0, dim=1, blocks=[(np.array([[-3.0]]), 1)],
                      scale=4.0)
    block = np.diag([-2.0, 1.0, 5.0])
    norm = float(np.linalg.norm(block))
    sampled = QuadForm(n=3, tau=0, dim=3, blocks=[(block, 1)], scale=4.0)
    for tol in (jacobi.TOL, 1e-9):
        monkeypatch.setattr(jacobi, "TOL", tol)
        cert = min_eigen_tt(record, samples=10)
        assert cert.residual_bound == 4.0 * (tol * 3.0)
        cert = min_eigen_tt(sampled, samples=10)
        assert cert.rayleigh_min == cert.eig_min == -8.0
        assert cert.residual_bound == 4.0 * (tol * norm)
        assert cert.consistent


def test_sampling_holds_no_form_sized_array():
    # hp10, dim 819: the sampling holds at most three arrays of
    # RAYLEIGH_CHUNK x (tau + 1) floats for one block at once (the last
    # chunk's centred transpose while the next chunk is drawn and centred,
    # or a centred transpose and its product with the block), beside a few
    # chunk-long vectors and the small arrays of Jacobi and the refinement
    # on the block.  That is below one dim x dim array, and far below one
    # dim x chunk array.
    import tracemalloc

    qf = assemble_tt_remainder(build_model("quaternionic", 10, 1.0))
    largest = max(len(block) for block, _ in qf.blocks)
    chunk = hessian.RAYLEIGH_CHUNK
    bound = 8 * ((2 * largest + 8) * chunk + 16 * largest**2)
    min_eigen_tt(qf, samples=1)  # first-call module imports are not arrays
    tracemalloc.start()
    try:
        min_eigen_tt(qf, samples=100_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound < 8 * qf.dim**2 < 8 * qf.dim * chunk
    assert peak <= bound


# curvature scales with the unit scale their certificate is compared to
SCALES = [(1e-6, 1.0), (-1e-6, -1.0), (1e4, 1.0), (1e6, 1.0), (-1e6, -1.0)]


@pytest.mark.parametrize("family,m", [("quaternionic", 2), ("complex", 4)])
def test_certificate_scales_as_c_squared(family, m):
    def cert_at(c):
        qf = assemble_tt_remainder(build_model(family, m, c))
        return min_eigen_tt(qf, samples=20_000, seed=1)

    unit = {c: cert_at(c).eig_min for c in (1.0, -1.0)}
    for c, base in SCALES:
        cert = cert_at(c)
        assert cert.consistent, c
        want = c * c * unit[base]
        assert abs(cert.eig_min - want) <= 1e-12 * abs(want), c


@pytest.mark.parametrize("family,m,c", [("quaternionic", 2, 1.0),
                                        ("quaternionic", 2, 1e4),
                                        ("complex", 4, -1e6)])
def test_non_minimal_eigenvalue_is_inconsistent(family, m, c, monkeypatch):
    qf = assemble_tt_remainder(build_model(family, m, c))
    honest = min_eigen_tt(qf, samples=2_000)
    assert honest.consistent
    solve = hessian.jacobi_eigs
    lowest = honest.eig_min / qf.scale
    floor = lowest + 1e-9 * np.max(np.abs(qf.unit))

    def without_minimum(A, *args, **kwargs):
        # every block of the form loses its eigenvalues at the minimum
        spec = solve(A, *args, **kwargs)
        if any(A is block for block, _ in qf.blocks):
            ev = spec.eigenvalues
            spec.eigenvalues = ev[ev > floor]
        return spec

    monkeypatch.setattr(hessian, "jacobi_eigs", without_minimum)
    cert = min_eigen_tt(qf, samples=2_000)
    assert cert.eig_min > honest.eig_min
    assert cert.rayleigh_min == honest.rayleigh_min
    assert not cert.consistent


def _planted_form(rel_gap: float) -> QuadForm:
    """A block-diagonal form on nine coordinates whose simple bottom
    eigenvector is (e_1 - e_2)/sqrt 2, eigenvalue 1, and whose next one,
    (e_1 + e_2 + e_3)/sqrt 3, lies rel_gap of the form's Frobenius norm
    above it.  Among sign vectors the quotient of the 3 x 3 block is
    smallest on +-(1, 1, 1), which is orthogonal to the bottom
    eigenvector."""
    a = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    u = np.ones(3) / np.sqrt(3.0)
    w = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)

    def form(gap):
        M = np.zeros((9, 9))
        M[:3, :3] = (np.outer(a, a) + (1.0 + gap) * np.outer(u, u)
                     + 19.0 * np.outer(w, w))
        M[3:5, 3:5] = [[8.0, 2.0], [2.0, 8.0]]
        M[5:, 5:] = 10.0 * np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1)
        return 0.5 * (M + M.T)

    unit = form(rel_gap * float(np.linalg.norm(form(0.0))))
    blocks = [(unit[np.ix_(idx, idx)], 1)
              for idx in (np.arange(3), np.arange(3, 5), np.arange(5, 9))]
    return QuadForm(n=4, tau=0, dim=9, blocks=blocks)


@pytest.mark.parametrize("rel_gap,seed", [
    (gap, seed) for gap in (0.1, 1e-6, 1e-8) for seed in (0, 7, 123456789)])
def test_sampling_reaches_an_integer_bottom_eigenvector(rel_gap, seed):
    # the samples must have a component along every direction: random
    # signs all miss (e_1 - e_2)/sqrt 2 in their best sample, and the
    # refinement then stops on the next eigenvector
    cert = min_eigen_tt(_planted_form(rel_gap), samples=100_000, seed=seed)
    assert abs(cert.eig_min - 1.0) <= 1e-12
    assert cert.consistent
    assert abs(cert.rayleigh_min - cert.eig_min) <= cert.residual_bound


@pytest.mark.parametrize("samples", [0, -5, 2.5, 1e3, True])
def test_samples_below_one_are_refused_before_jacobi(samples, monkeypatch):
    # a float or a bool is no count of samples, and is refused as early
    model = _model("cp2")
    qf = assemble_tt_remainder(model)

    def jacobi_eigs(*args, **kwargs):
        raise AssertionError("Jacobi ran")

    monkeypatch.setattr(hessian, "jacobi_eigs", jacobi_eigs)
    with pytest.raises(ValueError, match="samples"):
        min_eigen_tt(qf, samples=samples)
    with pytest.raises(ValueError, match="samples"):
        stability_verdict(model, samples=samples)


@pytest.mark.parametrize("seed", [True, 2.5, -1])
def test_bad_seeds_are_refused_before_any_work(seed, monkeypatch):
    # True was recorded as the seed, and 2.5 and -1 died in numpy's
    # SeedSequence after the form was assembled
    model = _model("cp2")
    qf = assemble_tt_remainder(model)

    def refuse(*args, **kwargs):
        raise AssertionError("work was done")

    monkeypatch.setattr(hessian, "jacobi_eigs", refuse)
    monkeypatch.setattr(hessian, "assemble_tt_remainder", refuse)
    with pytest.raises(ValueError, match="seed"):
        min_eigen_tt(qf, samples=10, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        stability_verdict(model, samples=10, seed=seed)


def test_numpy_integer_seeds_are_seeds():
    model = _model("cp2")
    want = stability_verdict(model, samples=50, seed=3)
    got = stability_verdict(model, samples=50, seed=np.int64(3))
    assert got == want


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_non_finite_p_is_refused_before_assembly(p, monkeypatch):
    # nan passed every p < 2 check and read "stable-strict" with epsilon
    # nan; inf gave epsilon inf
    model = build_model("sphere", 0, 1.0, n=5)

    def assemble(*args, **kwargs):
        raise AssertionError("the form was assembled")

    monkeypatch.setattr(hessian, "assemble_tt_remainder", assemble)
    with pytest.raises(ValueError, match="finite p"):
        stability_verdict(model, p=p)
    with pytest.raises(ValueError, match="finite p"):
        hp_scale(p, model.R_norm2)


def test_conformal_values_claimed_and_computed():
    assert conformal_value(_model("sphere5")) == 0
    assert conformal_value(_model("sphere5"), norm_source="computed") == 0
    assert conformal_value(_model("cp2")) == 288
    assert conformal_value(_model("cp2"), norm_source="computed") == 288
    assert conformal_value(_model("hp2")) == -3712
    assert conformal_value(_model("hp2"), norm_source="computed") == -640
    assert conformal_value(_model("op2")) == -184320
    assert conformal_value(_model("op2"), norm_source="computed") == -55296


def test_conformal_explicit_mu_and_errors():
    # q(0) = (4 - n) |R|^2 with the displayed norm
    assert conformal_value(_model("hp2"), mu=0) == -8704
    with pytest.raises(NoSpectralDataError):
        conformal_value(build_model("quaternionic", 2, -1.0))


@pytest.mark.parametrize("mu", [True, False, -1.0, -1, math.inf, math.nan,
                                "2"])
def test_bad_mu_is_refused_before_any_evaluation(mu, monkeypatch):
    # a Laplace eigenvalue is a finite real >= 0: True was read as mu = 1,
    # -1.0 gave a value, inf an OverflowError and "2" was parsed
    model = _model("hp2")

    def einstein_constant(*args):
        raise AssertionError("evaluated")

    monkeypatch.setattr(hessian, "einstein_constant", einstein_constant)
    with pytest.raises(ValueError, match="mu must be"):
        conformal_value(model, mu=mu)


def test_numeric_mu_types_agree():
    # mu as a Fraction, a float and numpy scalars: Fraction() refuses a
    # float32, which is read through its double, and an np.int64 mu gives
    # the exact Fraction
    model = _model("hp2")
    exact = conformal_value(model, mu=Fraction(5, 2))
    assert exact == Fraction(-17873, 2)
    for mu in (2.5, np.float64(2.5), np.float32(2.5)):
        assert conformal_value(model, mu=mu) == float(exact)
    assert conformal_value(model, mu=np.int64(0)) == -8704
    assert conformal_value(model, mu=0.0) == -8704.0


def test_hp_scale():
    assert hp_scale(2, 192.0) == 1.0
    assert hp_scale(4, 192.0) == 2.0 * 192.0
    assert abs(hp_scale(3, 64.0) - 1.5 * 8.0) < 1e-12
    with pytest.raises(ValueError):
        hp_scale(1.5, 192.0)
    with pytest.raises(ValueError):
        hp_scale(4, 0.0)
    # nan and inf passed the R_norm2 <= 0 test: 1.0 at p = 2, nan at p = 4
    for p in (2, 4):
        for bad in (math.nan, math.inf, -math.inf, -1.0):
            with pytest.raises(ValueError, match="squared norm"):
                hp_scale(p, bad)


def test_stability_verdict_sphere():
    sr = stability_verdict(_model("sphere5"), samples=2_000)
    assert sr.tt_verdict == "stable-strict"
    assert abs(sr.epsilon - 25.5) < 1e-9
    assert sr.verdict_flags == ["conformal direction exactly neutral"]
    assert sr.conformal["claimed"] == 0


def test_stability_verdict_indefinite_families():
    for key in ("cp2", "op2"):
        sr = stability_verdict(_model(key), samples=2_000)
        assert sr.tt_verdict == "algebraic certificate inconclusive"
        assert sr.epsilon is None
        assert sr.tt_min_eig < 0


def test_stability_verdict_op2_discrepancy_note():
    sr = stability_verdict(_model("op2"), samples=2_000)
    assert any("squared norms differ" in s for s in sr.discrepancy_notes)
    assert sr.conformal["claimed"] == -184320
    assert sr.conformal["computed"] == -55296


def test_stability_verdict_noncompact():
    sr = stability_verdict(build_model("quaternionic", 2, -1.0),
                           samples=2_000)
    assert sr.tt_verdict == "stable-strict"
    assert abs(sr.epsilon - 456.0) < 1e-8
    assert sr.conformal == {"note": "no spectral reference data for "
                                    "non-compact duals"}


def test_stability_verdict_p4_scales_certificate():
    sr = stability_verdict(_model("sphere5"), p=4, samples=2_000)
    # scale factor (p/2) |R|^(p-2) = 2 * 40 at p = 4 on the 5-sphere
    assert abs(sr.epsilon - 25.5 * 80.0) < 1e-6
    assert sr.tt_verdict == "stable-strict"
    assert "UNAVAILABLE" in sr.conformal["note"]


@lru_cache(maxsize=None)
def _unit_verdict(family, m, n, sign):
    return stability_verdict(build_model(family, m, sign, n=n), seed=3)


@settings(max_examples=24, deadline=None)
@given(model=st.sampled_from([("quaternionic", 2, None), ("complex", 2, None),
                              ("sphere", 0, 5), ("sphere", 0, 9),
                              ("sphere", 0, 12)]),
       sign=st.sampled_from([1.0, -1.0]),
       exponent=st.floats(min_value=-6.0, max_value=6.0))
@example(model=("sphere", 0, 9), sign=1.0, exponent=0.5)
def test_verdict_scales_as_c_squared(model, sign, exponent):
    # |c| is log-uniform in [1e-6, 1e6]; the report at c must be c^2 times
    # the report at c = sign, with the same verdict, flags and notes and a
    # consistent certificate (no Rayleigh/Jacobi discrepancy note).  On the
    # sphere the conformal value is exactly 0 at every scale
    family, m, n = model
    c = sign * 10.0**exponent
    unit = _unit_verdict(family, m, n, sign)
    rep = stability_verdict(build_model(family, m, c, n=n), seed=3)
    want = c * c * unit.tt_min_eig
    assert abs(rep.tt_min_eig - want) <= 1e-12 * abs(want)
    assert rep.tt_verdict == unit.tt_verdict
    assert rep.verdict_flags == unit.verdict_flags
    assert rep.discrepancy_notes == unit.discrepancy_notes
    assert "rayleigh sample fell below the jacobi minimum" not in \
        rep.discrepancy_notes
    if sign > 0:
        for source in ("claimed", "computed"):
            want = c * c * float(unit.conformal[source])
            got = float(rep.conformal[source])
            assert abs(got - want) <= 1e-12 * abs(want), source
