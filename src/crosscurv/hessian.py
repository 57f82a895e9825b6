"""Fiberwise quadratic forms for the second-variation analysis.

On a model tensor the trace-free part of the second variation reduces
(after dropping manifestly nonnegative derivative terms) to an algebraic
quadratic form in the variation h.  This module assembles that form as its
distinct blocks on an orthonormal basis of trace-free symmetric 2-tensors,
certifies its minimal eigenvalue block by block with the in-house Jacobi
solver plus a large seeded Rayleigh-quotient sample, and evaluates the
conformal-direction quadratic

    q(mu) = 2 (n - 1) mu^2 - 8 lam mu + (4 - n) |R|^2

at the first Laplace eigenvalue of the compact model.  q is evaluated in
rationals from the exact value of c, so it is exact at every scale (0 on
the round sphere); off integral c it is returned as the nearest float.

Assembly reads the model's nonzeros of R (0.6 % of its n^4 entries at
n = 40) and makes no array of n^4 entries.  Each basis quantity is a list
of (row, column, value) entries of its n^2 x n^2 matrix on vec(h):
products of two nonzeros of R that share the contracted slots for the
curvature terms, entries of kron(P, P) read from the signed permutation
(pi, s) of P for the structure terms, P a structure operator or a
product of two.  Each vec position lies on one pair coordinate
(E_ij + E_ji)/sqrt 2 of the trace-free basis or on the diagonal, and
the weighted entries are summed per place pair into the nonzeros of a
form C on those n(n-1)/2 + n places.  The curvature terms run in
batches of nonzeros that share their last slot, which every pair they
form shares, so at most one batch of pairs is held at once.  The form
on the pairs is exactly C / 2 there, and the ladder block is
L^T D L, D the part of C on the diagonal places.  No model has an entry
of C between the diagonal and a pair.  By
the isotypic splitting of the trace-free tensors under the isotropy group
(Koiso, Osaka J. Math. 17, 1980; Besse, Einstein Manifolds, 12.H) the pairs
fall into blocks of tau + 1 or of one, only a handful of them distinct, and
the form is held as its distinct blocks and the places where each occurs.
C is built at unit scale, from R / |c| and the coefficients at c = sign(c),
and the form is kept at that scale beside the factor c^2, which the
certificate applies to its results.  Every entry of C is an integer or a
half-integer, so the unit form does not depend on the order of summation or
on the scale.

The certified trace-free coefficients follow the reference display.
``compact_tt_coefficients``, ``noncompact_tt_coefficients`` and
``conformal_coefficients`` are the single source of those displays: the
ledger audits the same functions called on its exact symbols.  The independent
re-derivation disagrees with three of the trace-free coefficients (see the
ledger module), and a certificate obtained here is therefore a statement
about the displayed form.  The conformal value is reported for both the
displayed norm closed form and the directly computed norm, which differ for
the tau >= 3 families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from types import SimpleNamespace

import numpy as np

from crosscurv.jacobi import jacobi_eigs
from crosscurv.tensors import pairs_by_key, sum_by_key
from crosscurv.models import (
    CurvatureModel,
    NoSpectralDataError,
    compose_signed,
    einstein_constant,
    norm2_closed_claimed,
    norm2_closed_derived,
    reference_mu_over_lambda,
)

__all__ = [
    "QuadForm",
    "SpectralCertificate",
    "StabilityReport",
    "UnsupportedExponentError",
    "tt_basis",
    "assemble_quadform",
    "assemble_tt_remainder",
    "min_eigen_tt",
    "conformal_value",
    "hp_scale",
    "stability_verdict",
    "TERM_KEYS",
]

#: basis quantities that have a quadratic-form realization on variations
TERM_KEYS = ("NORM_H", "IP_H_HTILDE", "NORM_HTILDE", "NORM_RRING",
             "K_PAIR", "RR_KN")

#: the basis quantities that pair nonzeros of R
CURVATURE_TERMS = ("NORM_RRING", "K_PAIR", "RR_KN")

#: nonzeros of R whose pairs one batch of ``assemble_quadform`` forms
PAIR_BATCH = 1_024

#: Rayleigh samples drawn at once for one block in ``min_eigen_tt``
RAYLEIGH_CHUNK = 5_000

#: step budget of ``_refine_rayleigh``
REFINE_MAX_ITER = 2000


class UnsupportedExponentError(ValueError):
    """Conformal reference values exist only for exponent 2."""


def _ladder(n: int) -> np.ndarray:
    """The diagonal ladder of the trace-free basis as an n x (n-1) array:
    column k - 1 is diag(1, ..., 1, -k, 0, ..., 0)/sqrt(k (k+1)), k = 1..n-1.
    """
    k = np.arange(1, n)
    s = np.sqrt(k * (k + 1.0))
    L = np.triu(np.ones((n, n - 1))) / s
    L[k, k - 1] = -k / s
    return L


def tt_basis(n: int) -> np.ndarray:
    """Orthonormal basis of trace-free symmetric 2-tensors, vectorized.

    Columns are row-major vec's: first the off-diagonal pair tensors
    (E_ij + E_ji)/sqrt(2) for i < j, then the diagonal ladder
    (``_ladder``).  Shape (n^2, n(n+1)/2 - 1).
    """
    off = n * (n - 1) // 2
    B = np.zeros((n * n, off + n - 1))
    i, j = np.triu_indices(n, k=1)
    pos = np.arange(off)
    B[i * n + j, pos] = B[j * n + i, pos] = 1.0 / np.sqrt(2.0)
    B[np.arange(n) * (n + 1), off:] = _ladder(n)
    return B


def _kron_entries(pi: np.ndarray, s: np.ndarray) -> tuple:
    """Rows, columns and values in an n^2 x n^2 matrix of the nonzeros of
    kron(P, P) for the signed permutation P e_x = s[x] e_pi[x]: s_x s_y
    at row pi_x n + pi_y, column x n + y."""
    n = len(pi)
    rows = pi[:, None] * n + pi
    return rows.ravel(), np.arange(n * n), np.outer(s, s).ravel()


def _term_entries(model: CurvatureModel, key: str, nz: tuple) -> tuple:
    """Rows, columns and values of the entries of an n^2 x n^2 matrix that
    realizes one basis quantity on vec(h) of a symmetric h, row-major;
    repeated positions add up.

    The structure terms come from the structure operators' (pi, s), the
    curvature terms from products of two nonzeros of R that share the
    contracted slots: K_PAIR[(p, q), (m, n)] sums R[p,i,m,j] R[q,i,n,j]
    over the pairs of nonzeros with equal slots (i, j).  For K_PAIR and
    RR_KN the pairs (s, t) and (t, s) sit at transposed positions, (p, q)
    against (q, p) and (m, n) against (n, m), which a symmetric h does
    not tell apart: each unordered pair is taken once, at twice the
    weight.  ``nz`` holds the four index arrays of the nonzeros of R and
    their values.
    """
    n = model.n
    perms = model.J.perms
    if key == "NORM_H":
        diag = np.arange(n * n)
        return diag, diag, np.ones(n * n)
    # G = sum_a kron(J_a^T, J_a^T) = sum_a kron(J_a, J_a), as J^T = -J, so
    # G is symmetric and is its own (G + G^T) / 2
    if key == "IP_H_HTILDE":
        return _stack([_kron_entries(*p) for p in perms])
    if key == "NORM_HTILDE":  # G^T G = sum_ab kron(J_a J_b, J_a J_b)
        return _stack([_kron_entries(*compose_signed(a, b)) for a in perms
                       for b in perms])
    i0, i1, i2, i3, v = nz
    if key == "NORM_RRING":  # L^T L, L[(x, y), (i, j)] = R[i, x, j, y]
        s, t = pairs_by_key(i1 * n + i3)
        return i0[s] * n + i2[s], i0[t] * n + i2[t], v[s] * v[t]
    if key == "K_PAIR":
        s, t = pairs_by_key(i1 * n + i3, unordered=True)
        rows, cols = i0[s] * n + i0[t], i2[s] * n + i2[t]
        weight = 1.0
    elif key == "RR_KN":  # (1/2) sum_ij R[p,m,i,j] R[q,n,i,j]
        s, t = pairs_by_key(i2 * n + i3, unordered=True)
        rows, cols = i0[s] * n + i0[t], i1[s] * n + i1[t]
        weight = 0.5
    else:
        raise KeyError(f"no quadratic-form realization for {key!r}")
    return rows, cols, np.where(s == t, weight, 2 * weight) * (v[s] * v[t])


def _stack(parts: list) -> tuple:
    """Concatenate (rows, columns, values) triples."""
    if not parts:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, np.zeros(0)
    return tuple(np.concatenate(col) for col in zip(*parts))


def _distinct_blocks(size: int, rows: np.ndarray, cols: np.ndarray,
                     vals: np.ndarray) -> list:
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
    comp = np.empty(size, dtype=np.intp)  # component number of each index
    comp[order] = np.cumsum(start) - 1
    pos = np.empty(size, dtype=np.intp)  # its place in the component
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


@dataclass(eq=False)
class QuadForm:
    """Quadratic form on the trace-free symmetric basis of one model: its
    distinct blocks at c = sign(c) and the factor ``scale`` = c^2 that
    takes it to the model's scale.  Each (block, idx) of ``blocks`` puts
    ``block`` on the rows and columns ``idx[k]`` of each occurrence k; the
    rows of all occurrences partition range(dim)."""

    n: int
    dim: int
    blocks: list = field(repr=False)
    scale: float = 1.0

    @property
    def unit(self) -> np.ndarray:
        """The dense form at c = sign(c); a new array on every call."""
        U = np.zeros((self.dim, self.dim))
        for block, idx in self.blocks:
            U[idx[:, :, None], idx[:, None, :]] = block
        return U

    @property
    def matrix(self) -> np.ndarray:
        """The dense form at the model's scale, ``scale * unit``; a new
        array on every call."""
        return self.scale * self.unit

    def value(self, h: np.ndarray) -> float:
        """Evaluate on a trace-free symmetric matrix via the basis."""
        b = tt_basis(self.n).T @ np.asarray(h, dtype=float).reshape(-1)
        return self.scale * float(b @ self.unit @ b)


def assemble_quadform(model: CurvatureModel, coeffs) -> QuadForm:
    """Weighted sum of the basis quantities, compressed to the trace-free
    basis.

    The form is assembled at unit scale and kept there, with c^2 as its
    ``scale``.  The curvature terms read the unit-scale nonzeros R / |c|
    (the small integers of the tensor at c = sign(c); the division is
    exact at every scale tested), and ``coeffs`` gives the weights at
    c = sign(c): either a coefficient set, a function of a model's n, tau,
    c and R_norm2 such as ``compact_tt_coefficients``, evaluated there with
    the unit-scale |R|^2, or a dict of those weights.  The coefficient sets
    are homogeneous of degree 2 in c, so c^2 times the unit form is the
    form at c; its nonzero pattern is the one at c = sign(c).

    Each term's weighted entries (``_term_entries``) are summed into the
    nonzeros of C (see the module docstring), one term, or one batch of a
    curvature term, at a time.  An entry of C that couples the diagonal
    with a pair raises ValueError.
    """
    n = model.n
    nz = (*model.R_slots, model.R_values / abs(model.c))
    if callable(coeffs):
        coeffs = coeffs(SimpleNamespace(
            n=n, tau=model.tau, c=math.copysign(1.0, model.c),
            R_norm2=float(nz[-1] @ nz[-1])))
    off = n * (n - 1) // 2
    size = off + n
    # the place of each vec position: its pair, or off + a on the diagonal
    place = np.empty((n, n), dtype=np.intp)
    i, j = np.triu_indices(n, k=1)
    place[i, j] = place[j, i] = np.arange(off)
    place[np.diag_indices(n)] = off + np.arange(n)
    place = place.ravel()
    # the curvature terms pair nonzeros that share their last slot, so
    # they run over batches of last-slot values, PAIR_BATCH nonzeros each
    by_last = np.argsort(nz[3], kind="stable")
    step = max(1, n * PAIR_BATCH // max(1, nz[3].size))
    cuts = np.searchsorted(nz[3][by_last], np.arange(step, n, step))
    batches = [tuple(a[at] for a in nz) for at in np.split(by_last, cuts)]
    C_keys, C_vals = np.zeros(0, dtype=np.intp), np.zeros(0)
    for key, w in coeffs.items():
        if w == 0:
            continue
        for part in (batches if key in CURVATURE_TERMS else [nz]):
            rows, cols, v = _term_entries(model, key, part)
            flat = place[rows]
            flat *= size
            flat += place[cols]
            v *= float(w)
            C_keys, C_vals = sum_by_key(np.concatenate([C_keys, flat]),
                                        np.concatenate([C_vals, v]))
            del rows, cols, v, flat  # before the next batch's entries
    keep = C_vals != 0
    rows, cols = np.divmod(C_keys[keep], size)
    vals = C_vals[keep]
    on_pairs = rows < off
    if np.any(on_pairs != (cols < off)):
        raise ValueError(f"{model.label}: the form couples the diagonal with "
                         "an off-diagonal pair")
    D = np.zeros((n, n))
    D[rows[~on_pairs] - off, cols[~on_pairs] - off] = vals[~on_pairs]
    L = _ladder(n)
    ladder = L.T @ D @ L
    blocks = _distinct_blocks(off, rows[on_pairs], cols[on_pairs],
                              0.5 * vals[on_pairs])
    blocks.append((0.5 * (ladder + ladder.T), np.arange(off, size - 1)[None]))
    return QuadForm(n=n, dim=size - 1, blocks=blocks, scale=model.c * model.c)


def compact_tt_coefficients(model: CurvatureModel) -> dict:
    """Displayed coefficient set for the compact trace-free remainder; reads
    only n, tau, c and R_norm2, which the ledger passes as symbols."""
    n, t, c = model.n, model.tau, model.c
    R2 = model.R_norm2
    return {
        "K_PAIR": 4,
        "NORM_RRING": Fraction(-1, 2),
        "NORM_H": 2 * R2 / n + 2 * c * c * (3 * t * t + n * t - 8 * t - 1),
        "IP_H_HTILDE": 2 * c * c * (3 * n - 3 * t + 11),
        "NORM_HTILDE": -48 * c * c,
    }


def noncompact_tt_coefficients(model: CurvatureModel) -> dict:
    """Displayed coefficient set for the negative-scale remainder."""
    n, t, c = model.n, model.tau, model.c
    R2 = model.R_norm2
    return {
        "NORM_RRING": Fraction(-1, 2),
        "K_PAIR": 4,
        "RR_KN": 2,
        "NORM_H": 2 * R2 / n + 2 * c * c * (n * t - n + 3 * t * t - 7 * t + 5),
        "IP_H_HTILDE": 2 * c * c * (14 - 3 * t),
        "NORM_HTILDE": -12 * c * c,
    }


def assemble_tt_remainder(model: CurvatureModel) -> QuadForm:
    """Trace-free remainder form for the sign of the model's curvature
    scale."""
    return assemble_quadform(model, compact_tt_coefficients if model.compact
                             else noncompact_tt_coefficients)


@dataclass
class SpectralCertificate:
    eig_min: float
    eig_max: float
    rayleigh_min: float
    rotations: int
    samples: int
    seed: int
    consistent: bool
    residual_bound: float


def _refine_rayleigh(M: np.ndarray, x: np.ndarray) -> tuple:
    """Drive a unit vector down the Rayleigh quotient.

    Each step minimizes the quotient exactly over span{x, residual, previous
    step} (a three-dimensional Rayleigh-Ritz problem), so the iteration is
    parameter free and monotone.  From a generic start it converges to the
    minimal eigenpair: the only stable critical points of the quotient on
    the sphere are the bottom eigenvectors.  Deterministic for a fixed start.

    Every stop rule is scale free: the two quotient rules are relative to
    |rho|, or to eps ||M||_F where the quotient is zero at working
    precision, and a direction joins the search space when its part
    outside the space is not below 1e-12 of its own length.  Scaling M
    scales every test with it, so the iteration does the same at every
    curvature scale.
    """
    floor = float(np.finfo(float).eps * np.linalg.norm(M))
    x = x / np.linalg.norm(x)
    rho = float(x @ M @ x)
    prev = None
    for _ in range(REFINE_MAX_ITER):
        grad = M @ x - rho * x
        if float(np.linalg.norm(grad)) < 1e-14 * max(floor, abs(rho)):
            break
        cols = [x, grad] if prev is None else [x, grad, prev]
        basis = []
        for v in cols:
            w = v.copy()
            for b in basis:
                w -= (b @ w) * b
            nw = float(np.linalg.norm(w))
            if nw > 1e-12 * float(np.linalg.norm(v)):
                basis.append(w / nw)
        B = np.column_stack(basis)
        small = B.T @ M @ B
        small = 0.5 * (small + small.T)
        sub = jacobi_eigs(small)
        y = B @ sub.eigenvectors[:, 0]
        y /= np.linalg.norm(y)
        new_rho = float(y @ M @ y)
        if new_rho >= rho - 1e-15 * max(floor, abs(rho)):
            x, rho = y, min(rho, new_rho)
            break
        prev = y - (x @ y) * x
        x, rho = y, new_rho
    return rho, x


def min_eigen_tt(qf: QuadForm, samples: int = 100_000,
                 seed: int = 0) -> SpectralCertificate:
    """Minimal eigenvalue with a two-sided sanity certificate, block by
    block.

    Each distinct block k of ``qf.blocks`` is certified on its own.  The
    Jacobi solver finds its eigenvalues, and independently ``samples``
    seeded random directions of the block's size sample its Rayleigh
    quotient; the best sample is refined by projected descent
    (``_refine_rayleigh``) on the block.  ``rotations`` sums the Jacobi
    rotations, ``eig_min`` and ``eig_max`` are taken over all block
    eigenvalues, and ``rayleigh_min`` is the smallest refined quotient.
    Every occurrence of a block has the block's spectrum, so these are
    those of the whole form; no dense form is built.  All of it runs at
    unit scale; the eigenvalues, the refined quotient and the residual
    bound are then multiplied by ``qf.scale`` = c^2, so the certificate at
    c is exactly c^2 times the one at c = sign(c), with the same rotation
    count and the same consistency decision.

    Sampling: block k draws its centred uniforms, ``Generator.random``
    minus 0.5, from its own stream, ``SeedSequence(seed).spawn(len(
    qf.blocks))[k]`` through PCG64, one sample per row, in chunks of
    ``RAYLEIGH_CHUNK`` rows (the last one shorter), serially; the best
    quotient is kept with a strict ``<``.  At most a chunk of draws and
    its product with the block are held at once, and the certificate
    depends on ``seed`` and ``samples`` alone.  A sample only picks the
    start of the refinement, which needs a nonzero component in the
    block's bottom eigenspace.  The cube's law has a positive density on
    every direction, so, as with normals, the best sample has one with
    probability one; a uniform costs a fraction of a normal.  Discrete
    draws (random signs, small integers) would not do: they can all be
    orthogonal to an integer eigenvector such as (e_1 - e_2)/sqrt 2.

    Consistency: for the refined unit vector x with quotient rho on the
    winning block B, some eigenvalue of B lies within ||B x - rho x|| of
    rho (Parlett, The Symmetric Eigenvalue Problem, ch. 4).  The
    certificate is consistent when |rho - eig_min| <= ||B x - rho x|| +
    1e-12 ||B||_F, the second term being the Jacobi stopping tolerance.
    The rule is decided at unit scale, and the bound, times c^2, is stored
    as ``residual_bound``.

    ``samples`` below 1 raises ValueError before any work is done.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    spectra, refined = [], []
    streams = np.random.SeedSequence(seed).spawn(len(qf.blocks))
    for (block, _), stream in zip(qf.blocks, streams):
        spectra.append(jacobi_eigs(block))
        rng = np.random.Generator(np.random.PCG64(stream))
        best_val, best = np.inf, None
        for done in range(0, samples, RAYLEIGH_CHUNK):
            V = rng.random((min(RAYLEIGH_CHUNK, samples - done), len(block)))
            V -= 0.5
            vals = (np.einsum("ij,ij->i", V, V @ block)
                    / np.einsum("ij,ij->i", V, V))
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val, best = vals[i], V[i].copy()
        rho, x = _refine_rayleigh(block, best)
        refined.append((rho, float(np.linalg.norm(block @ x - rho * x))
                        + 1e-12 * float(np.linalg.norm(block))))
    ray_min, bound = min(refined, key=lambda found: found[0])
    eigenvalues = np.concatenate([spec.eigenvalues for spec in spectra])
    eig_min, eig_max = float(eigenvalues.min()), float(eigenvalues.max())
    c2 = qf.scale
    return SpectralCertificate(
        eig_min=c2 * eig_min,
        eig_max=c2 * eig_max,
        rayleigh_min=c2 * ray_min,
        rotations=sum(spec.iterations for spec in spectra),
        samples=samples,
        seed=seed,
        consistent=abs(ray_min - eig_min) <= bound,
        residual_bound=c2 * bound,
    )


# ---------------------------------------------------------------------------
# conformal direction
# ---------------------------------------------------------------------------

def conformal_coefficients(n, lam, R2) -> tuple:
    """Coefficients of mu^2, mu and 1 in the conformal-direction quadratic
    q(mu) = 2 (n - 1) mu^2 - 8 lam mu + (4 - n) |R|^2."""
    return 2 * (n - 1), -8 * lam, (4 - n) * R2


def conformal_value(model: CurvatureModel, mu=None, p: int = 2,
                    norm_source: str = "claimed"):
    """Value of the conformal-direction quadratic q(mu)
    (``conformal_coefficients``) at Laplace eigenvalue mu.

    mu defaults to the first positive Laplace eigenvalue of the compact
    model from the embedded reference table; passing mu explicitly is
    required for non-compact models (NoSpectralDataError otherwise).
    Exponents other than 2 have no tabulated spectral reference, so p != 2
    raises UnsupportedExponentError.  The value is computed exactly, in
    rationals, from the exact value of the float c at every scale, so its
    sign is exact and the round sphere gives exactly 0.  It is returned as
    a Fraction when c is integral and mu is the reference or rational, and
    otherwise as the float nearest the exact value.
    """
    if p != 2:
        raise UnsupportedExponentError(
            "conformal certification is only available for exponent p = 2; "
            "no spectral reference values are tabulated for other exponents"
        )
    if norm_source not in ("claimed", "computed"):
        raise ValueError(f"unknown norm_source {norm_source!r}")
    n, tau, c = model.n, model.tau, Fraction(model.c)
    lam = einstein_constant(n, tau, c)
    if mu is None:
        if not model.compact:
            raise NoSpectralDataError(
                "no spectral reference data for non-compact duals; "
                "pass mu explicitly"
            )
        mu_exact = reference_mu_over_lambda(model.family, model.m, n=n) * lam
    else:
        mu_exact = Fraction(mu)
    form = (norm2_closed_claimed if norm_source == "claimed"
            else norm2_closed_derived)
    a, b, k = conformal_coefficients(n, lam, form(n, tau, c))
    q = a * mu_exact * mu_exact + b * mu_exact + k
    if c.denominator == 1 and (mu is None or isinstance(mu, Rational)):
        return q
    return float(q)


def hp_scale(p: float, R_norm2: float) -> float:
    """Scale factor (p/2) |R|^(p-2) relating the exponent-p form to the
    exponent-2 form at a critical model; defined for p >= 2.  A factor
    beyond the double range is inf, not an OverflowError."""
    if p < 2:
        raise ValueError("scale factor is defined for p >= 2 only")
    if R_norm2 <= 0:
        raise ValueError("need a positive squared norm")
    try:
        return (p / 2.0) * R_norm2 ** ((p - 2) / 2.0)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def _threshold_claim(model: CurvatureModel) -> str:
    if not model.compact:
        return f"p >= n/2 = {model.n / 2:g}"
    if model.family in ("sphere", "complex"):
        return "p >= 2"
    if model.family == "quaternionic":
        return f"p >= 2m = {2 * model.m}"
    return "p >= 6"


@dataclass
class StabilityReport:
    label: str
    p: float
    regime: str
    tt_min_eig: float
    rayleigh_min: float
    epsilon: float | None
    tt_verdict: str
    conformal: dict
    threshold_claim: str
    verdict_flags: list
    discrepancy_notes: list
    rotations: int
    samples: int
    seed: int
    consistent: bool  # ``SpectralCertificate.consistent`` of the trace-free form


def stability_verdict(model: CurvatureModel, p: float = 2, seed: int = 0,
                      samples: int = 100_000) -> StabilityReport:
    """Certify the trace-free remainder and the conformal direction.

    Trace-free: a positive minimal eigenvalue yields the strict coefficient
    epsilon = (p/2) |R|^(p-2) * eig_min; otherwise the algebraic
    certificate is inconclusive (a negative eigenvalue of the dropped-term
    remainder does not by itself produce a destabilizing variation).

    Conformal: evaluated at p = 2 for both norm sources; for p > 2 the
    absence of tabulated reference data is recorded rather than silently
    skipped.
    """
    if p < 2:
        raise ValueError("verdicts are tabulated for p >= 2 only")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    regime = "compact" if model.compact else "noncompact"
    qf = assemble_tt_remainder(model)
    cert = min_eigen_tt(qf, samples=samples, seed=seed)
    flags: list[str] = []
    notes: list[str] = []
    if not cert.consistent:
        notes.append("rayleigh sample fell below the jacobi minimum")

    if cert.eig_min > 0:
        eps = hp_scale(p, model.R_norm2) * cert.eig_min
        tt_verdict = "stable-strict"
    else:
        eps = None
        tt_verdict = "algebraic certificate inconclusive"

    conformal: dict = {}
    if p == 2:
        if model.compact:
            claimed = conformal_value(model, p=2, norm_source="claimed")
            computed = conformal_value(model, p=2, norm_source="computed")
            conformal = {
                "claimed": claimed,
                "computed": computed,
                "mu_over_lambda": reference_mu_over_lambda(
                    model.family, model.m, n=model.n),
            }
            if claimed * computed < 0:
                flags.append("conformal sign depends on the norm source")
            if computed < 0:
                flags.append(
                    "conformal direction negative at p = 2: consistent with "
                    "the claimed instability range below the threshold"
                )
            elif computed == 0:
                flags.append("conformal direction exactly neutral")
            if claimed != computed:
                notes.append(
                    "claimed and computed squared norms differ for this "
                    "family; both conformal values are reported"
                )
        else:
            conformal = {
                "note": "no spectral reference data for non-compact duals",
            }
    else:
        conformal = {
            "note": "UNAVAILABLE: no conformal reference data for p > 2",
        }

    return StabilityReport(
        label=model.label,
        p=p,
        regime=regime,
        tt_min_eig=cert.eig_min,
        rayleigh_min=cert.rayleigh_min,
        epsilon=eps,
        tt_verdict=tt_verdict,
        conformal=conformal,
        threshold_claim=_threshold_claim(model),
        verdict_flags=flags,
        discrepancy_notes=notes,
        rotations=cert.rotations,
        samples=cert.samples,
        seed=seed,
        consistent=cert.consistent,
    )
