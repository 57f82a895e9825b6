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

Assembly reads the nonzeros of R the model holds and makes no array of
n^4 entries.  Each basis quantity is a list of (row, column, value)
entries of its n^2 x n^2 matrix on vec(h), of three kinds: sums of K (x)
K over signed permutations (pi, s), namely the identity for |h|^2, the
structure operators for the structure average G: h -> ht and their
products for |ht|^2 = |G h|^2; the curvature action L: h -> B from the
nonzeros of R; and products of two nonzeros of R that share the
contracted slots for K_PAIR, RR_KN and |B|^2, which is K_PAIR read in
another index layout.  The identity catalog applies the same G and L and
the same pairings.  Each vec position lies on one pair coordinate (E_ij +
E_ji)/sqrt 2 of the trace-free basis or on the diagonal, its place, and
the weighted entries are added per pair of places into a form C.

Coordinate (alpha, i) lies on line i of the m lines (each coordinate of
the sphere is a line).  Each structure operator is one division-algebra
row repeated over the lines, so a permutation of the lines commutes with
every J_a and keeps R and C: the symmetry-adapted reduction of Faessler
and Stiefel (Group Theoretical Methods and Their Applications, 1992,
ch. 5).  A nonzero of R touches at most two lines (a gate of the frame
audit), and so does an entry of C, which the tests check against the sum
over every pair of nonzeros.  So C is one dense array on the places of
lines 0 and 1, at most 136, its contracted slots on lines 0..2, line 2
standing, with weight m - 2, for every line off lines 0 and 1.  The form
on the pairs is exactly C / 2.  D, the part of C on the diagonal places,
is the same on every line and between every two lines, and on the
diagonal columns of the trace-free basis, the ladder over the lines times
the units, it is m - 1 copies of one block and a tau x tau block
(``_diagonal_entries``).  No model has an entry of C between the diagonal
and a pair.  By the isotypic splitting of the trace-free tensors under
the isotropy group (Koiso, Osaka J. Math. 17, 1980; Besse, Einstein
Manifolds, 12.H) the form falls into blocks of at most tau + 1 rows, a
handful of classes at every m, and it is held as one block per class
with its occurrence count; their places are made on demand.  C is built
at unit scale, from the R at c = sign(c) that the model holds and the
coefficients there, and the form is kept at that scale beside the factor
c^2, which the certificate applies to its results.  Every entry of C is
an integer or a half-integer, so the unit form does not depend on the
order of summation or on the scale.

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
from numbers import Integral, Rational, Real

import numpy as np

from crosscurv import jacobi
from crosscurv.jacobi import jacobi_eigs
from crosscurv.tensors import _pair_lookup, pairs_by_key
from crosscurv.models import (
    CurvatureModel,
    NoSpectralDataError,
    _line_weights,
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
    "assemble_quadform",
    "assemble_tt_remainder",
    "min_eigen_tt",
    "conformal_value",
    "hp_scale",
    "stability_verdict",
    "TERM_KEYS",
]

#: basis quantities that have a quadratic-form realization on variations
TERM_KEYS = ("NORM_H", "IP_H_HTILDE", "NORM_HTILDE", "IP_RRING_H",
             "NORM_RRING", "K_PAIR", "RR_KN")

#: Rayleigh samples drawn at once for every block in ``min_eigen_tt``
RAYLEIGH_CHUNK = 5_000

#: step budget of ``_refine_rayleigh``
REFINE_MAX_ITER = 2000


def _require_count(name: str, value, least: int = 1) -> None:
    """ValueError unless ``value`` is an integer, not a bool, of at least
    ``least``: a number of samples or trials, or a seed (``least`` 0)."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or value < least):
        raise ValueError(f"{name} must be an integer of at least {least}, "
                         f"got {value!r}")


def _require_real(name: str, value, above: bool = False) -> None:
    """ValueError unless ``value`` is a finite ``numbers.Real``, not a bool,
    of at least 0, or above 0 when ``above``: a Laplace eigenvalue or a
    tolerance (``above``)."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not 0 <= value < math.inf or (above and value == 0)):
        raise ValueError(f"{name} must be a finite real "
                         f"{'above' if above else 'of at least'} 0, "
                         f"got {value!r}")


def _ladder(n: int) -> np.ndarray:
    """The ladder on n entries as an n x (n-1) array, orthonormal columns
    orthogonal to the ones: column k - 1 is (1, ..., 1, -k, 0, ..., 0) /
    sqrt(k (k+1)), k = 1..n-1.
    """
    k = np.arange(1, n)
    s = np.sqrt(k * (k + 1.0))
    L = np.triu(np.ones((n, n - 1))) / s
    L[k, k - 1] = -k / s
    return L


def _term_entries(model: CurvatureModel, key: str, nz: tuple,
                  near: np.ndarray | None = None,
                  line: np.ndarray | None = None) -> tuple:
    """Rows, columns and values of the entries of an n^2 x n^2 matrix that
    realizes one basis quantity on vec(h) of a symmetric h, row-major;
    repeated positions add up.

    Three kinds of list realize the seven quantities.  A sum of K (x) K
    over signed permutations K e_x = s_x e_pi_x, s_x s_y at (pi_x n +
    pi_y, x n + y): the identity for NORM_H, the structure operators J_a
    for IP_H_HTILDE (the structure average G: h -> sum_J J^T h J; G is
    symmetric, as J^T = -J) and their products J_a J_b
    (``compose_signed``) for NORM_HTILDE, as G^T G = G G.  The curvature
    action L: h -> B, one entry per nonzero of R, for IP_RRING_H.  And one
    pairing of the nonzeros of R with equal contracted slots: K_PAIR[(p,
    q), (m, n)] sums R[p,i,m,j] R[q,i,n,j] over the pairs that share (i,
    j), and RR_KN is (1/2) sum_ij R[p,m,i,j] R[q,n,i,j].  The pairs (s, t)
    and (t, s) sit at transposed positions, (p, q) against (q, p) and (m,
    n) against (n, m), which a symmetric h does not tell apart: each pair
    is taken once, at twice the weight off s = t.  NORM_RRING, |B|^2 = L^T
    L[(p, m), (q, n)], reads the K_PAIR entries at ((p, m), (q, n)), each
    pair in both orders at half its weight.  The identity catalog applies
    G and L and the K_PAIR and RR_KN lists.  ``nz`` holds the four index
    arrays of the nonzeros of R and their values.

    ``near``, a boolean mask of the coordinates (all of them by default),
    keeps the entries whose row and column x n + y have x and y near.  The
    permutation lists are built only there (each J_a keeps the lines, so
    its rows are near too), and the pairing pairs only the nonzeros whose
    free slots, those that make the rows and columns, are near; the
    contracted slots range over the nonzeros given.  With ``line``, the
    line of each coordinate, a pair is weighted for its contracted slots
    on lines 0..2 (``models._line_weights``).
    """
    n = model.n
    near = np.ones(n, dtype=bool) if near is None else near
    if key in ("NORM_H", "IP_H_HTILDE", "NORM_HTILDE"):
        perms = model.J.perms
        if key == "NORM_H":
            perms = [(np.arange(n), np.ones(n))]
        elif key == "NORM_HTILDE":
            perms = [compose_signed(p, q) for p in perms for q in perms]
        x = np.flatnonzero(near)
        pi = np.array([p[x] for p, _ in perms], dtype=np.intp)
        pi = pi.reshape(len(perms), x.size, 1)
        sign = np.array([q[x] for _, q in perms]).reshape(pi.shape)
        return ((pi * n + pi.transpose(0, 2, 1)).ravel(),
                np.tile((x[:, None] * n + x).ravel(), len(perms)),
                (sign * sign.transpose(0, 2, 1)).ravel())
    i0, i1, i2, i3, v = nz
    if key == "IP_RRING_H":
        at = near[i0] & near[i1] & near[i2] & near[i3]
        return i1[at] * n + i3[at], i0[at] * n + i2[at], v[at]
    if key not in ("K_PAIR", "RR_KN", "NORM_RRING"):
        raise KeyError(f"no quadratic-form realization for {key!r}")
    # the free slots, the contracted ones and the weight
    (a, b), (x, y), weight = (((i0, i1), (i2, i3), 0.5) if key == "RR_KN"
                              else ((i0, i2), (i1, i3), 1.0))
    at = np.flatnonzero(near[a] & near[b])
    s, t = pairs_by_key(x[at] * n + y[at])
    s, t = at[s], at[t]
    w = np.where(s == t, weight, 2 * weight) * (v[s] * v[t])
    if line is not None:  # the weight of each nonzero's contracted slots
        w *= _line_weights(n // (model.tau + 1), line, [a, b], [x, y])[s]
    if key != "NORM_RRING":
        return a[s] * n + a[t], b[s] * n + b[t], w
    ps, qt = a[s] * n + b[s], a[t] * n + b[t]
    w *= 0.5
    return (np.concatenate([ps, qt]), np.concatenate([qt, ps]),
            np.concatenate([w, w]))


def _distinct_blocks(form: np.ndarray) -> list:
    """The connected components of the pattern of a small dense form,
    grouped by bit-identical block: (block, index array of shape
    occurrences x size) in the order of first occurrence, each
    component's indices ascending."""
    rows, cols = np.nonzero(form)
    label = np.arange(len(form))
    while True:  # each label falls to the smallest index of its component
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        if np.array_equal(low, label):
            break
        label = low
    groups: dict = {}
    for first in np.flatnonzero(label == np.arange(len(form))):
        idx = np.flatnonzero(label == first)
        block = form[np.ix_(idx, idx)]
        groups.setdefault(block.tobytes(), (block, []))[1].append(idx)
    return [(block, np.array(occ)) for block, occ in groups.values()]


@dataclass(eq=False)
class QuadForm:
    """Quadratic form on an orthonormal basis of the trace-free symmetric
    2-tensors of one model, the pair tensors (E_ij + E_ji)/sqrt 2, i < j,
    ascending by i n + j, and then the diagonal columns of
    ``_diagonal_entries``: its distinct blocks at c = sign(c) and the
    factor ``scale`` = c^2 that takes it to the model's scale.  Each (block,
    count) of ``blocks`` occurs ``count`` times; ``origins`` lists, per
    block, the components it was read from, as (kind, pair keys x n + y
    or diagonal places), which ``places`` puts on the basis."""

    n: int
    tau: int
    dim: int
    blocks: list = field(repr=False)
    scale: float = 1.0
    origins: list = field(default_factory=list, repr=False)

    def places(self) -> list:
        """Per block, the basis rows of its occurrences, occurrences x
        size, each row ascending, rows by first index; together they
        partition range(dim).  A "line" component lies on line 0 and
        occurs on every line, a "pair" one on lines 0 and 1 and occurs on
        every two lines a < b (line 0 to a, line 1 to b), "each" is the
        first of the m - 1 copies of A - B and "top" the tau x tau block."""
        n, units = self.n, self.tau + 1
        lines, pair = n // units, _pair_lookup(n)

        def copies(kind, base):
            if kind in ("each", "top"):
                count = lines - 1 if kind == "each" else 1
                return base + units * np.arange(count)[:, None]
            a, b = ((np.arange(lines),) * 2 if kind == "line"
                    else np.triu_indices(lines, 1))
            x, y = (z + np.where(z % lines == 0, a[:, None], b[:, None] - 1)
                    for z in np.divmod(base, n))
            return pair[x, y]

        rows = [np.concatenate([copies(*part) for part in parts])
                for parts in self.origins]
        return [r[np.argsort(r[:, 0])] for r in rows]

    @property
    def unit(self) -> np.ndarray:
        """The dense form at c = sign(c); a new array on every call."""
        U = np.zeros((self.dim, self.dim))
        for (block, _), idx in zip(self.blocks, self.places()):
            U[idx[:, :, None], idx[:, None, :]] = block
        return U

    @property
    def matrix(self) -> np.ndarray:
        """The dense form at the model's scale, ``scale * unit``; a new
        array on every call."""
        return self.scale * self.unit


def _places(n: int, lines: int) -> tuple:
    """The places on lines 0 and 1, numbered in ``np.triu_indices(k)``
    order of the ranks of the k coordinates there, so that the pairs
    ascend by x n + y: the coordinates x <= y of each place, the rank of
    every coordinate (k off lines 0 and 1) and the (k + 1) x (k + 1)
    table of place numbers by rank, -1 in row and column k."""
    near = np.flatnonzero(np.arange(n) % lines < 2)
    k = near.size
    rank = np.full(n, k, dtype=np.int8)  # k <= 16
    rank[near] = np.arange(k)
    x, y = np.triu_indices(k)
    table = np.full((k + 1, k + 1), -1)
    table[x, y] = table[y, x] = np.arange(x.size)
    return near[x], near[y], rank, table


def assemble_quadform(model: CurvatureModel, weights: dict) -> QuadForm:
    """Weighted sum of the basis quantities, compressed to the trace-free
    basis.

    The form is assembled at unit scale and kept there, with c^2 as its
    ``scale``.  The curvature terms read the nonzeros the model holds, the
    small integers of the tensor at c = sign(c), and ``weights`` maps
    basis quantities to their weights at c = sign(c).  The coefficient
    sets are homogeneous of degree 2 in c, so c^2 times the unit form is
    the form at c; its nonzero pattern is the one at c = sign(c).

    Each term's weighted entries between the places on lines 0 and 1,
    from the nonzeros of R whose free slots lie there and whose
    contracted slots lie on lines 0..2 (``_term_entries``), are added into
    C, one dense array on those places (``_places``), and ``_split_form``
    reads the blocks off it.  ValueError for an entry whose row or column
    reaches a third line.
    """
    n = model.n
    lines = n // (model.tau + 1)
    line = np.arange(n) % lines
    near = line < 2
    # the terms read only the nonzeros whose free slots are near: (i0, i1)
    # for RR_KN, (i0, i2) for K_PAIR and the columns of L
    nz = model.nz
    i0, i1, i2, i3 = nz.slots
    top = np.maximum(np.maximum(line[i0], line[i1]),
                     np.maximum(line[i2], line[i3]))
    at = np.flatnonzero(near[i0] & (near[i1] | near[i2]) & (top <= 2))
    unit = (i0[at], i1[at], i2[at], i3[at], nz.values[at])
    places = _places(n, lines)
    x, _, rank, table = places
    size = x.size
    C = np.zeros(size * size)
    for key, w in weights.items():
        if w == 0:
            continue
        rows, cols, v = _term_entries(model, key, unit, near, line)
        rows, cols = (table[rank[vec // n], rank[vec % n]]  # their places
                      for vec in (rows, cols))
        if np.any(rows < 0) or np.any(cols < 0):
            raise ValueError(f"{model.label}: the form couples lines 0 and 1 "
                             "with a third line")
        C += np.bincount(rows * size + cols, v * float(w), minlength=C.size)
    return _split_form(model, C.reshape(size, size), places)


def _diagonal_entries(model: CurvatureModel, D: np.ndarray) -> tuple:
    """The blocks of the form on the diagonal columns of the trace-free
    basis: A - B, which occurs m - 1 times, and the tau x tau block U^T (A
    + (m - 1) B) U, U = ``_ladder(tau + 1)``, from D, the part of C on the
    diagonal places of the coordinates on lines 0 and 1 (ascending),
    symmetrized.  Coordinate (alpha, i), on line i of the m lines, is
    alpha m + i.  With w = (1/sqrt m, ``_ladder(m)``) over the lines and
    the columns u_a of U over the units, the diagonal columns are e_alpha
    (x) w_b for b = 1..m-1, alpha = 0..tau, and then u_a (x) w_0 for a =
    1..tau; for the sphere (tau = 0) they are ``_ladder(n)``.

    With m lines, the whole D is A (x) I_m + B (x) (J_m - I_m): A is D on
    line 0 and B is D between lines 0 and 1, both (tau + 1) x (tau + 1).
    Each column e_alpha (x) w_b, b >= 1, is orthogonal to the ones of J_m,
    so those of one b carry A - B, exact where D is, and the columns u_a
    (x) w_0 carry the tau x tau block.  B must be symmetric, as the swap
    of lines 0 and 1 keeps C; otherwise ValueError.
    """
    units = model.tau + 1
    lines = model.n // units
    step = min(lines, 2)
    D = 0.5 * (D + D.T)
    A = D[::step, ::step]
    B = D[::step, 1::step] if lines > 1 else np.zeros_like(A)
    if not np.array_equal(B, B.T):
        raise ValueError(f"{model.label}: the diagonal part between lines 0 "
                         "and 1 is not symmetric")
    U = _ladder(units)
    top = U.T @ (A + (lines - 1) * B) @ U
    return A - B, 0.5 * (top + top.T)


def _split_form(model: CurvatureModel, C: np.ndarray,
                places: tuple) -> QuadForm:
    """The form from C, the dense array on the ``places`` on lines 0 and 1
    (``_places``).  The block on line 1 alone, checked to be the image of
    the one on line 0, is dropped.  C / 2 on the pairs of line 0 and of
    lines 0 and 1, one copy of A - B and the tau x tau block
    (``_diagonal_entries``) make a small form, whose components, grouped
    by bit-identical block (``_distinct_blocks``), are the classes.  Each
    component occurs first on lines 0 and 1, so they come in the order of
    first occurrence in the whole form.  ValueError for a line 1 that is
    not the image of line 0, or an entry between the diagonal and a pair
    or between the pairs of one line and of two.
    """
    n, units = model.n, model.tau + 1
    lines = n // units
    x, y, rank, table = places
    side = 1 << x % lines | 1 << y % lines  # 1, 2: line 0, 1 alone; 3: both
    one = np.flatnonzero(side == 2)
    image = table[rank[x[one] - 1], rank[y[one] - 1]]
    if not np.array_equal(C[np.ix_(one, one)], C[np.ix_(image, image)]):
        raise ValueError(f"{model.label}: the form on line 1 is not its "
                         "image of line 0")
    diag = x == y
    if np.any(C[diag[:, None] != diag]):
        raise ValueError(f"{model.label}: the form couples the diagonal with "
                         "an off-diagonal pair")
    if np.any(C[~diag[:, None] & (side[:, None] != side)]):
        raise ValueError(f"{model.label}: the form couples the pairs on one "
                         "line with those on two lines")
    each, top = _diagonal_entries(model, C[np.ix_(diag, diag)])

    # the small form on its places: the pairs x n + y, x < y, of line 0 and
    # of lines 0 and 1, ascending as the basis orders them, then the first
    # copy of A - B and the tau x tau block, at their diagonal places
    off = n * (n - 1) // 2
    pairs = ~diag & (side != 2)
    k = np.count_nonzero(pairs)
    copies = units * (lines > 1)
    base = np.concatenate([x[pairs] * n + y[pairs], off + np.arange(copies),
                           off + units * (lines - 1) + np.arange(units - 1)])
    kind = np.concatenate([np.where(side[pairs] == 1, "line", "pair"),
                           ["each"] * copies, ["top"] * (units - 1)])
    form = np.zeros((base.size, base.size))
    form[:k, :k] = 0.5 * C[np.ix_(pairs, pairs)]
    # (+ 0.0 turns a signed zero into the zero of an empty place)
    form[k:k + copies, k:k + copies] = each[:copies, :copies] + 0.0
    form[k + copies:, k + copies:] = top + 0.0
    count = {"line": lines, "pair": lines * (lines - 1) // 2,
             "each": lines - 1, "top": 1}
    blocks = _distinct_blocks(form)
    return QuadForm(
        n=n, tau=model.tau, dim=off + n - 1,
        blocks=[(block, sum(count[kind[comp[0]]] for comp in idx))
                for block, idx in blocks],
        scale=model.c * model.c,
        origins=[[(kind[comp[0]], base[comp]) for comp in idx]
                 for _, idx in blocks])


def compact_tt_coefficients(n, tau, c, R2) -> dict:
    """Displayed coefficient set for the compact trace-free remainder."""
    return {
        "K_PAIR": 4,
        "NORM_RRING": Fraction(-1, 2),
        "NORM_H": 2 * R2 / n + 2 * c * c * (3 * tau * tau + n * tau
                                            - 8 * tau - 1),
        "IP_H_HTILDE": 2 * c * c * (3 * n - 3 * tau + 11),
        "NORM_HTILDE": -48 * c * c,
    }


def noncompact_tt_coefficients(n, tau, c, R2) -> dict:
    """Displayed coefficient set for the negative-scale remainder."""
    return {
        "NORM_RRING": Fraction(-1, 2),
        "K_PAIR": 4,
        "RR_KN": 2,
        "NORM_H": 2 * R2 / n + 2 * c * c * (n * tau - n + 3 * tau * tau
                                            - 7 * tau + 5),
        "IP_H_HTILDE": 2 * c * c * (14 - 3 * tau),
        "NORM_HTILDE": -12 * c * c,
    }


def assemble_tt_remainder(model: CurvatureModel) -> QuadForm:
    """Trace-free remainder form for the sign of the model's curvature
    scale: the display evaluated at c = sign(c) and the |R|^2 there
    (``_Nonzeros.unit_norm2``)."""
    display = (compact_tt_coefficients if model.compact
               else noncompact_tt_coefficients)
    return assemble_quadform(model, display(
        model.n, model.tau, model.sign, model.nz.unit_norm2()))


@dataclass
class SpectralCertificate:
    eig_min: float
    rayleigh_min: float
    rotations: int
    samples: int
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
    rotations, ``eig_min`` is taken over all block eigenvalues, and
    ``rayleigh_min`` is the smallest refined quotient.
    Every occurrence of a block has the block's spectrum, so these are
    those of the whole form; no dense form is built.  All of it runs at
    unit scale; the eigenvalues, the refined quotient and the residual
    bound are then multiplied by ``qf.scale`` = c^2, so the certificate at
    c is exactly c^2 times the one at c = sign(c), with the same rotation
    count and the same consistency decision.

    A 1 x 1 block (b) is not sampled: every sample x refines to the unit
    vector x / |x| = +-1, whose quotient is b and whose residual is 0, so
    it is recorded as the quotient b with the bound ``jacobi.TOL`` |b|.

    Sampling: the form draws one stream, ``np.random.default_rng(seed)``
    (PCG64 seeded through ``SeedSequence(seed)``), and only if it has a
    block of more than one row.  It draws its centred uniforms,
    ``Generator.random`` minus 0.5, in chunks of ``RAYLEIGH_CHUNK`` samples
    (the last one shorter), serially, each sample as wide as the widest
    sampled block.  Each chunk is centred and transposed in one pass to one
    sample per column, and every sampled block reads its samples from the
    leading ``len(block)`` rows of it: the block multiplies them in one
    GEMM, its numerators and denominators are summed down the columns, and
    its best quotient is kept with a strict ``<``.  The leading coordinates
    of a sample of the cube are a sample of the smaller cube, so each block
    is sampled as by a draw of its own.  Summing a quotient in another
    order moves it by rounding only, so the choice of the best sample
    depends on the order only where quotients tie to rounding, on a block
    that is lambda I to rounding.  At most a chunk of draws, its centred
    transpose and one block's product with it are held at once, and the
    certificate depends on ``seed`` and ``samples`` alone.  A sample only
    picks the start of the refinement, which needs a nonzero component in
    the block's bottom eigenspace.  The cube's law has a positive density
    on every direction, so, as with normals, the best sample has one with
    probability one; a uniform costs a fraction of a normal.  Discrete
    draws (random signs, small integers) would not do: they can all be
    orthogonal to an integer eigenvector such as (e_1 - e_2)/sqrt 2.

    Consistency: for the refined unit vector x with quotient rho on the
    winning block B, some eigenvalue of B lies within ||B x - rho x|| of
    rho (Parlett, The Symmetric Eigenvalue Problem, ch. 4).  The
    certificate is consistent when |rho - eig_min| <= ||B x - rho x|| +
    ``jacobi.TOL`` ||B||_F, the second term the Jacobi stopping tolerance.
    The rule is decided at unit scale, and the bound, times c^2, is stored
    as ``residual_bound``.

    ``samples`` that is not an integer of at least 1, or ``seed`` that is
    not one of at least 0 (a bool is neither), raises ValueError before
    any work is done.
    """
    _require_count("samples", samples)
    _require_count("seed", seed, least=0)
    spectra = [jacobi_eigs(block) for block, _ in qf.blocks]
    sampled = [block for block, _ in qf.blocks if len(block) > 1]
    best_vals, best = [np.inf] * len(sampled), [None] * len(sampled)
    if sampled:
        width = max(len(block) for block in sampled)
        rng = np.random.default_rng(seed)
        for done in range(0, samples, RAYLEIGH_CHUNK):
            V = np.subtract(rng.random((min(RAYLEIGH_CHUNK, samples - done),
                                        width)).T, 0.5, order="C")
            for k, block in enumerate(sampled):
                U = V[:len(block)]
                vals = (np.einsum("ij,ij->j", U, block @ U)
                        / np.einsum("ij,ij->j", U, U))
                i = int(np.argmin(vals))
                if vals[i] < best_vals[k]:
                    best_vals[k], best[k] = vals[i], U[:, i].copy()
    starts = iter(best)
    refined = []
    for block, _ in qf.blocks:
        if len(block) == 1:  # the refinement of any sample returns b
            b = float(block[0, 0])
            refined.append((b, jacobi.TOL * abs(b)))
            continue
        rho, x = _refine_rayleigh(block, next(starts))
        refined.append((rho, float(np.linalg.norm(block @ x - rho * x))
                        + jacobi.TOL * float(np.linalg.norm(block))))
    ray_min, bound = min(refined, key=lambda found: found[0])
    eig_min = float(np.concatenate([spec.eigenvalues
                                    for spec in spectra]).min())
    c2 = qf.scale
    return SpectralCertificate(
        eig_min=c2 * eig_min,
        rayleigh_min=c2 * ray_min,
        rotations=sum(spec.iterations for spec in spectra),
        samples=samples,
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


def conformal_value(model: CurvatureModel, mu=None,
                    norm_source: str = "claimed"):
    """Value of the conformal-direction quadratic q(mu)
    (``conformal_coefficients``) of exponent p = 2 at Laplace eigenvalue mu.

    mu defaults to the first positive Laplace eigenvalue of the compact
    model from the embedded reference table; passing mu explicitly is
    required for non-compact models (NoSpectralDataError otherwise).
    No other exponent has tabulated spectral reference values, so
    ``stability_verdict`` calls this at p = 2 only.  The value is computed
    exactly, in rationals, from the exact value of the float c at every
    scale, so its sign is exact and the round sphere gives exactly 0.  It
    is returned as a Fraction when c is integral and mu is the reference or
    rational, and otherwise as the float nearest the exact value.  A mu
    that is not a finite real >= 0, or is a bool, raises ValueError first.
    """
    if norm_source not in ("claimed", "computed"):
        raise ValueError(f"unknown norm_source {norm_source!r}")
    if mu is not None:
        _require_real("mu", mu)
    n, tau, c = model.n, model.tau, Fraction(model.c)
    lam = einstein_constant(n, tau, c)
    if mu is None:
        if not model.compact:
            raise NoSpectralDataError("no spectral reference data for "
                                      "non-compact duals; pass mu explicitly")
        mu_exact = reference_mu_over_lambda(model.family, model.m, n=n) * lam
    else:
        mu_exact = Fraction(mu if isinstance(mu, Rational) else float(mu))
    form = (norm2_closed_claimed if norm_source == "claimed"
            else norm2_closed_derived)
    a, b, k = conformal_coefficients(n, lam, form(n, tau, c))
    q = a * mu_exact * mu_exact + b * mu_exact + k
    if c.denominator == 1 and (mu is None or isinstance(mu, Rational)):
        return q
    return float(q)


def hp_scale(p: float, R_norm2: float) -> float:
    """Scale factor (p/2) |R|^(p-2) relating the exponent-p form to the
    exponent-2 form at a critical model; defined for finite p >= 2 and
    finite R_norm2 > 0.  A factor beyond the double range is inf."""
    if not 2 <= p < math.inf:
        raise ValueError("scale factor is defined for finite p >= 2 only")
    if not 0 < R_norm2 < math.inf:
        raise ValueError("need a finite positive squared norm")
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

    A bad ``p`` (``hp_scale``), ``samples`` or ``seed`` (as in
    ``min_eigen_tt``) raises ValueError before the form is assembled.
    """
    scale = hp_scale(p, model.R_norm2)
    _require_count("samples", samples)
    _require_count("seed", seed, least=0)
    qf = assemble_tt_remainder(model)
    cert = min_eigen_tt(qf, samples=samples, seed=seed)
    flags: list[str] = []
    notes: list[str] = []
    if not cert.consistent:
        notes.append("rayleigh sample fell below the jacobi minimum")

    if cert.eig_min > 0:
        eps = scale * cert.eig_min
        tt_verdict = "stable-strict"
    else:
        eps = None
        tt_verdict = "algebraic certificate inconclusive"

    conformal: dict = {}
    if p == 2:
        if model.compact:
            claimed = conformal_value(model, norm_source="claimed")
            computed = conformal_value(model, norm_source="computed")
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
        consistent=cert.consistent,
    )
