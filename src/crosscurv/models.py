"""Curvature models of the rank-one symmetric families at a tangent space.

Four families are supported: the constant-curvature sphere (tau = 0), the
complex projective family (tau = 1, n = 2m), the quaternionic projective
family (tau = 3, n = 4m) and the 16-dimensional octonionic plane (tau = 7).
Negatively curved duals use the same formulas with c < 0.

The structure operators J_1..J_tau are built from division-algebra
multiplication: the complex and quaternionic families act by right unit
multiplication per coordinate, the octonionic family by left multiplication
with the seven imaginary units acting diagonally on two octonion
coordinates.  Each is a signed permutation, J e_x = s_x e_pi(x), read
straight from a row of the multiplication table and kept as (pi, s).  All
of them square to -Id and anticommute pairwise, which the constructor
certifies exactly on the permutations and signs.

The curvature tensor itself comes from one closed formula,

    R(x,y,z,w) = c [ <x,z><y,w> - <x,w><y,z>
                     + sum_a ( <J_a x,z><J_a y,w> - <J_a x,w><J_a y,z>
                               + 2 <J_a x,y><J_a z,w> ) ]

and every constructed model is gated on an adapted-frame audit plus the
Einstein and criticality identities before it is returned.  R is c times
a tensor of small integers, the one at c = sign(c), which a model holds
and its gates read: each gate is an exact equality.  |c| is applied only
to what is reported at c (``R``, ``R_norm2``, lambda).

Since every J_a is a signed permutation, each term of the formula is a
list of n^2 entries, and R is built, checked and audited as its
nonzeros: the C-order flat indices of its nonzero entries, their slot
arrays and their values, about 10 n^2 of the n^4 entries.  The audit
reads its entry rules as gathers from that list on grids of unit labels
and lines.  The pullbacks it takes are signed permutations of the list,
and each of their residuals is the largest entry of one per-key sum of
lists (``tensors.sum_entries``), with the bits of the dense computation.

Each structure operator is one division-algebra row repeated over the m
coordinate lines, so every permutation of the lines commutes with the J_a
and keeps R.  The build gates on that for the J_a and builds only the
nonzeros on lines 0..min(m, 4) - 1, each standing for its orbit
(``_choose_nonzeros``), so a model costs the same at every m.  The whole
list and the dense R are made on first use (``CurvatureModel.R_unit``,
``CurvatureModel.R``) for the identity catalog, the tests and the
benchmark; the dense structure operators and contractions are the tests'
oracle (``tests/dense_oracle.py``).

Adapted basis convention: index (alpha, i) -> alpha * m + i, where alpha
runs over the algebra units 0..tau and i over the coordinates 0..m-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from crosscurv.division_algebras import (
    complex_table,
    quaternion_table,
    octonion_table,
)
from crosscurv.tensors import (
    MAX_DIMENSION,
    CurvTensor4,
    check_curvature_rules,
    flat_index,
    gather,
    pairs_by_key,
    sum_entries,
)

__all__ = [
    "JStructure",
    "CurvatureModel",
    "FrameAudit",
    "ModelValidationError",
    "NoSpectralDataError",
    "build_j_structure",
    "build_model",
    "family_dimension",
    "frame_rule_audit",
    "model_constants",
    "norm2_closed_claimed",
    "norm2_closed_derived",
    "reference_constants",
    "reference_mu_over_lambda",
]

_TAU = {"sphere": 0, "complex": 1, "quaternionic": 3, "octonionic": 7}

#: the curvature scales |c| the certificates are verified for: the range
#: over which the tests check that every gate decision and catalog outcome
#: is the one at c = sign(c) and the form is c^2 times the unit form
SCALE_RANGE = (1e-6, 1e6)


class ModelValidationError(RuntimeError):
    """A construction gate failed; carries the rule name and residual."""


class NoSpectralDataError(LookupError):
    """No spectral reference data exists for the requested model."""


def compose_signed(p: tuple, q: tuple) -> tuple:
    """The signed permutation of J_p J_q for J_p = (pi_p, s_p) and
    J_q = (pi_q, s_q): J_p J_q e_x = s_q[x] s_p[pi_q x] e_{pi_p pi_q x}."""
    (pp, sp), (pq, sq) = p, q
    return pp[pq], sq * sp[pq]


@dataclass(eq=False)
class JStructure:
    """Family of anticommuting complex structures, each a signed
    permutation: ``perms[a]`` is (pi, s), an index array and float signs,
    with J_a e_x = s[x] e_pi[x]."""

    n: int
    tau: int
    perms: list = field(repr=False)

    def max_structure_residual(self) -> float:
        """Largest entry of J_a^2 + Id and of J_a J_b + J_b J_a, exact on
        the permutations: 0 when the relations hold, else 1 or 2.  A signed
        permutation is orthogonal, so J^2 = -Id also makes it skew."""
        eye = (np.arange(self.n), np.ones(self.n))
        sums = [(compose_signed(Ja, Ja), eye) for Ja in self.perms] + [
            (compose_signed(Ja, Jb), compose_signed(Jb, Ja))
            for a, Ja in enumerate(self.perms) for Jb in self.perms[a + 1:]]
        # J_p + J_q has |s_p + s_q| in a column where pi_p and pi_q agree
        return max((float(np.max(np.where(pp == pq, np.abs(sp + sq), 1.0)))
                    for (pp, sp), (pq, sq) in sums), default=0.0)


@dataclass(eq=False)
class CurvatureModel:
    """A validated model tensor with its derived constants.

    The tensor is held at c = sign(c) as the nonzeros its gates and form
    read, ``nz`` (``_choose_nonzeros``); all of them, ``R_unit``, are the
    held ones when m <= 4 and else made on first use.  The dense ``R`` is
    the tensor at c.
    """

    family: str
    m: int
    n: int
    tau: int
    c: float
    nz: _Nonzeros = field(repr=False)
    J: JStructure = field(repr=False)
    lam: float = 0.0
    s: float = 0.0
    R_norm2: float = 0.0
    audit: FrameAudit | None = field(default=None, repr=False)

    @cached_property
    def R_unit(self) -> tuple:
        """Keys, slot arrays and values of every nonzero of R at
        c = sign(c)."""
        nz = self.nz
        if nz.lines == self.n // (self.tau + 1):
            return nz.keys, nz.slots, nz.values
        keys, values = _curvature_nonzeros(self.J, self.sign,
                                           np.arange(self.n))
        return keys, np.unravel_index(keys, (self.n,) * 4), values

    @cached_property
    def R(self) -> CurvTensor4:
        """The dense tensor, scattered from the nonzeros at |c| on first
        use.  Only the tests and the benchmark read it; no command makes
        it."""
        keys, _, values = self.R_unit
        values = values * abs(self.c)  # before the n^4 array
        T = np.zeros(self.n**4)
        T[keys] = values
        return CurvTensor4(T.reshape((self.n,) * 4))

    @property
    def compact(self) -> bool:
        return self.c > 0

    @property
    def sign(self) -> int:
        return 1 if self.c > 0 else -1

    @property
    def label(self) -> str:
        base = {"sphere": f"sphere{self.n}", "complex": f"cp{self.m}",
                "quaternionic": f"hp{self.m}", "octonionic": "op2"}[self.family]
        return base if self.compact else base + "-dual"


def family_dimension(family: str, m: int, n: int | None = None) -> int:
    """Dimension of one family member; ValueError if it does not exist or
    its dimension is above ``tensors.MAX_DIMENSION`` (55108), where the
    n^4 flat indices of R overflow int64.

    sphere: any n >= 3 (m ignored).  complex: n = 2m, m >= 2.
    quaternionic: n = 4m, m >= 1.  octonionic: n = 16, m = 2 only.  An
    explicit n is accepted for the sphere only.  m (but for the sphere)
    and an explicit n must be integers, not bools.
    """
    sizes = ([] if family == "sphere" else [m]) + ([] if n is None else [n])
    if any(isinstance(k, bool) or not isinstance(k, Integral) for k in sizes):
        raise ValueError(f"m and n must be integers, got m={m!r}, n={n!r}")
    if family == "sphere":
        if n is None or n < 3:
            raise ValueError("sphere needs an explicit dimension n >= 3")
        dim = n
    else:
        if family not in _TAU:
            raise ValueError(f"unknown family {family!r}")
        if n is not None:
            raise ValueError("an explicit dimension n applies to the sphere "
                             "only")
        if family == "complex" and m < 2:
            raise ValueError("complex family needs m >= 2")
        if family == "quaternionic" and m < 1:
            raise ValueError("quaternionic family needs m >= 1")
        if family == "octonionic" and m != 2:
            raise ValueError("octonionic family exists only for m = 2")
        dim = (_TAU[family] + 1) * m
    if dim > MAX_DIMENSION:
        raise ValueError(f"dimension {dim} is above {MAX_DIMENSION}, the "
                         f"largest whose n^4 flat indices fit in int64")
    return dim


def build_j_structure(family: str, m: int, n: int | None = None) -> JStructure:
    """Construct the structure family of a member that ``family_dimension``
    admits; validates all operator invariants."""
    nn = family_dimension(family, m, n)
    if family == "sphere":
        return JStructure(n=nn, tau=0, perms=[])
    table, side = {"complex": (complex_table, "right"),
                   "quaternionic": (quaternion_table, "right"),
                   "octonionic": (octonion_table, "left")}[family]
    idx, sgn = table()
    if side == "right":  # x e_b is left multiplication in the transposed table
        idx, sgn = idx.T, sgn.T
    # unit u acts as row u on the unit label alpha of (alpha, i) -> alpha m + i
    perms = [((idx[u][:, None] * m + np.arange(m)).ravel(),
              np.repeat(sgn[u], m).astype(float)) for u in range(1, len(idx))]
    J = JStructure(n=nn, tau=len(perms), perms=perms)
    res = J.max_structure_residual()
    if res != 0:
        raise ModelValidationError(f"structure operator invariants fail: {res:.3e}")
    return J


def _aform_entries(n: int, pi: np.ndarray, s: np.ndarray,
                   near: np.ndarray) -> tuple:
    """A_K(x,y,z,w) = <Kx,z><Ky,w> - <Kx,w><Ky,z> for K = (pi, s) as an
    entry list: s_x s_y at (x, y, pi x, pi y), -s_x s_y at (x, y, pi y,
    pi x); the two cancel where x = y.  x and y range over the coordinates
    ``near``, x major."""
    x, y = np.repeat(near, near.size), np.tile(near, near.size)
    v = s[x] * s[y]
    return (np.concatenate([flat_index(n, (x, y, pi[x], pi[y])),
                            flat_index(n, (x, y, pi[y], pi[x]))]),
            np.concatenate([v, -v]))


def _pairform_entries(n: int, pi: np.ndarray, s: np.ndarray,
                      weight: float, near: np.ndarray) -> tuple:
    """weight k (x) k for the pair form k(x, y) = <K x, y> of K = (pi, s)
    as an entry list: weight s_x s_z at (x, pi x, z, pi z), x and z over
    the coordinates ``near``, x major."""
    x, z = np.repeat(near, near.size), np.tile(near, near.size)
    return flat_index(n, (x, pi[x], z, pi[z])), weight * s[x] * s[z]


def _curvature_nonzeros(J: JStructure, sign: int, near: np.ndarray) -> tuple:
    """Flat indices and values of the nonzeros of R at c = sign = +-1
    whose four slots lie on the coordinates ``near``, whole coordinate
    lines: the entry lists of A_I, A_{J_a} and 2 w_a (x) w_a summed per
    key, exact zeros dropped.  ``np.arange(n)`` gives every nonzero.

    The entries are small integers, so every sum is exact; they are
    returned as integers.
    """
    n = J.n
    perms = [(np.arange(n), np.ones(n)), *J.perms]
    keys, vals = sum_entries(
        [_aform_entries(n, *p, near) for p in perms]
        + [_pairform_entries(n, *p, 2.0, near) for p in perms[1:]])
    return keys, vals.astype(np.int64) * sign


def _largest_sum(parts: list) -> float:
    """Largest |value| of the per-key sum of entry lists (0 for none)."""
    return float(np.max(np.abs(sum_entries(parts)[1]), initial=0.0))


class _Nonzeros(NamedTuple):
    """Nonzeros of R at c = sign(c): keys (ascending), small integer
    values, slot arrays, ``weights`` (how many nonzeros of R each stands
    for), ``lines`` (how many lines they cover, from line 0) and
    ``touches``, how many lines the four slots of each touch."""

    keys: np.ndarray
    values: np.ndarray
    slots: tuple
    weights: np.ndarray
    lines: int
    touches: np.ndarray

    def at(self, n: int, slots) -> np.ndarray:
        """Entries of R at four slot arrays on the lines held."""
        return gather(self.keys, self.values, flat_index(n, slots))

    def unit_norm2(self) -> float:
        """|R|^2 at c = sign(c), the squared values times their weights,
        summed: an exact integer, as the values are small integers."""
        return float(self.weights @ (self.values * self.values))


def _nonzeros(n: int, m: int, keys: np.ndarray,
              values: np.ndarray) -> _Nonzeros:
    """``_Nonzeros`` of the nonzeros of R on lines 0..min(m, 4) - 1: one
    whose slots touch exactly lines 0..k-1 stands for the C(m, k) of its
    orbit that touch k given lines, and every other one, whose orbit has
    such a member, for none.  The slot arrays and the number of lines each
    one touches are made here, once."""
    slots = np.unravel_index(keys, (n,) * 4)
    touched = np.bitwise_or.reduce([1 << (k % m) for k in slots])
    k = np.array([bin(t).count("1") for t in range(16)])[touched]
    weights = np.where(touched + 1 == 1 << k,
                       np.array([math.comb(m, j) for j in range(5)])[k], 0)
    return _Nonzeros(keys, values, slots, weights.astype(float), min(m, 4), k)


def _line_symmetric(J: JStructure) -> bool:
    """Whether every J_a commutes exactly with every permutation of the m
    coordinate lines, (alpha, i) -> (alpha, sigma i).

    The transposition (0 1) and the cycle i -> i + 1 mod m generate the
    permutations, so each is checked alone: J_a = (pi, s) commutes with
    the coordinate permutation p when pi[p] = p[pi] and s[p] = s.  R is a
    sum of products of <.,.> and the J_a, so it is then invariant too.
    """
    n = J.n
    m = n // (J.tau + 1)
    alpha, line = np.divmod(np.arange(n), m)
    return all(np.array_equal(pi[p], p[pi]) and np.array_equal(s[p], s)
               for p in (alpha * m + np.where(line < 2, 1 - line, line) % m,
                         alpha * m + (line + 1) % m)
               for pi, s in J.perms)


def _choose_nonzeros(J: JStructure, sign: int) -> _Nonzeros:
    """The nonzeros of R at c = sign that a model holds and every gate
    reads: those on lines 0..min(m, 4) - 1, with their orbit weights, once
    the J_a pass ``_line_symmetric`` (else ModelValidationError).  A key
    touches at most four lines, so its orbit meets those lines, and each
    audit residual is constant on the orbits: its largest value there is
    the largest over all keys."""
    if not _line_symmetric(J):
        raise ModelValidationError("line symmetry fails: the J_a do not "
                                   "commute with the line permutations")
    n = J.n
    m = n // (J.tau + 1)
    near = np.flatnonzero(np.arange(n) % m < 4)
    return _nonzeros(n, m, *_curvature_nonzeros(J, sign, near))


def _line_weights(lines: int, line: np.ndarray, free: list,
                 contracted: list) -> np.ndarray:
    """Weight of each term of a contraction of line-symmetric tensors read
    at ``free`` indices on lines 0 and 1 with the ``contracted`` ones on
    lines 0..2: lines - 2 where a contracted index is on line 2, which
    stands for each line off lines 0 and 1, 0 off those lines, else 1.
    Exact when each factor touches at most two lines, so that the
    contracted indices reach at most one line off the free ones."""
    top = np.max([line[k] for k in free], axis=0)
    far = np.max([line[k] for k in contracted], axis=0)
    return np.where((top > 1) | (far > 2), 0,
                    np.where(far == 2, lines - 2, 1))


def _invariance_gaps(model: "CurvatureModel", nz: _Nonzeros,
                     g: int) -> np.ndarray:
    """Residuals of the pullbacks by J_g: four-slot invariance, two-slot
    invariance, the two-slot defect and its pair-form part.

    ``nz`` holds the nonzeros of R that are read, and J_g is its (pi, s)
    in ``model.J.perms``.  J_g keeps each coordinate line, so the
    pullbacks of the nonzeros on the lines read lie on them too.  The
    pullbacks are signed permutations of the nonzeros: R(J x, J y, J z,
    J w) is s_x s_y s_z s_w R(pi x, pi y, pi z, pi w).  The two-slot
    pullback E = R(., ., J_g ., J_g .) - R is compared with zero, with its
    exact defect and with the defect's pair-form part.  At c = sign(c),
    where R is held, the exact defect is sign(c) times the integer tensor

        sum_{a != g} [A(-J_g J_a) - A(J_a)] - 4 sum_{a != g} w_a (x) w_a,

    summed from its entry lists, built on the coordinates of the
    ``nz.lines`` lines held.
    For the associative families -J_g J_a is (up to sign) another member
    of the family and the A terms cancel pairwise, leaving the pair-form
    part alone; for the octonionic family they do not.  Each residual is
    the largest |value| of one ``sum_entries`` of two lists, the second
    negated: P - R for the four-slot pullback P, E - sign(c) D for a
    defect D.  Every value is a small integer, so each residual is exact.
    """
    n = model.n
    vals, slots, perms = nz.values, nz.slots, model.J.perms
    near = np.flatnonzero(np.arange(n) % (n // (model.tau + 1)) < nz.lines)
    minus_R = (nz.keys, -vals)
    pi, s = perms[g]
    inv = np.argsort(pi)  # the entry at a moves to inv[a]
    moved = [inv[a] for a in slots]
    sign = s[moved[2]] * s[moved[3]]
    four = _largest_sum([(flat_index(n, moved),
                          vals * (s[moved[0]] * s[moved[1]] * sign)),
                         minus_R])
    E = sum_entries([(flat_index(n, (*slots[:2], *moved[2:])), vals * sign),
                     minus_R])
    del moved, sign
    others = [p for a, p in enumerate(perms) if a != g]
    composed = [compose_signed((pi, -s), p) for p in others]  # -J_g J_a
    pairform = sum_entries([_pairform_entries(n, *p, -4.0, near)
                            for p in others])
    defect = sum_entries([_aform_entries(n, *p, near) for p in composed]
                         + [(k, -v) for k, v in (_aform_entries(n, *p, near)
                                                 for p in others)]
                         + [pairform])
    return np.array([four, float(np.max(np.abs(E[1]), initial=0.0))]
                    + [_largest_sum([E, (k, -model.sign * v)])
                       for k, v in (defect, pairform)])


@dataclass(eq=False)
class FrameAudit:
    """Residuals of the adapted-frame rules, keyed by rule name.

    ``gated`` lists the rules that must hold for a model to be accepted;
    ``reported`` holds informational rules whose failure is a finding, not a
    defect of the construction (see ``two_slot_invariance``).
    """

    residuals: dict
    notes: dict
    gated: tuple
    reported: tuple

    def max_gated_residual(self) -> float:
        return max(self.residuals[k] for k in self.gated)

    def passed(self) -> bool:
        return self.max_gated_residual() == 0


def frame_rule_audit(model: "CurvatureModel") -> FrameAudit:
    """Check the adapted-frame component rules of the model tensor.

    Gated rules (exact for every family):
      zero_three_coordinates   components with >= 3 distinct coordinate
                               lines vanish
      single_line_round        R(e_ai, e_bi, e_ei, e_fi) = 4c (d_ae d_bf -
                               d_af d_be): restricted to one coordinate line
                               the tensor is the constant-curvature tensor
                               of 4c
      same_coordinate_4c       R(e_ai, e_bi, e_ai, e_bi) = 4c, a != b
      cross_line_sectional_c   R(e_ai, e_bj, e_ai, e_bj) = c, i != j
      paired_plane_2c          R(e_ai, e_bi, e_aj, e_bj) = 2c, a != b, i != j
      cross_quad_c             R(e_ai, e_aj, e_bi, e_bj) = c, a != b, i != j
      four_slot_invariance     R(Jx, Jy, Jz, Jw) = R(x, y, z, w)
      two_slot_defect          the two-slot pullback defect equals
                               -4c sum_{b != a} w_b (x) w_b exactly

    Reported rule:
      two_slot_invariance      R(x, y, J_a z, J_a w) = R(x, y, z, w);
                               exact when tau <= 1, fails with the predicted
                               defect for the tau >= 3 families

    The rules read the nonzeros the model holds (``_choose_nonzeros``),
    those on lines 0..min(m, 4) - 1, on every family alike:
    zero_three_coordinates by the number of lines each one touches, the
    five entry rules each as one gather over a grid of unit labels and the
    held lines i, j, and the defect lists on the coordinates of those
    lines.  Each residual is its maximum over all n^4 components, bit for
    bit.  They read the held tensor at c = sign(c), of small integers, so
    each residual is exact, a gated rule holds when it is 0, and the
    residual at c is |c| times it.
    """
    n, tau, sign = model.n, model.tau, model.sign
    m = n // (tau + 1)
    nz = model.nz

    res: dict[str, float] = {}
    notes: dict[str, str] = {}
    # off the nonzeros |R| is 0
    res["zero_three_coordinates"] = float(np.max(
        np.abs(nz.values[nz.touches >= 3]), initial=0.0))

    def deviation(at, want, mask=True):
        entries = nz.at(n, at)
        return float(np.max(np.where(mask, np.abs(entries - want), 0.0),
                            initial=0.0))

    # the entry rules on open grids of unit labels and held lines; basis
    # index (alpha, i) -> alpha * m + i.  On line i, R against the round
    # tensor of 4c, 4c (d_ae d_bf - d_af d_be), at c = sign
    a, b, e, f, i = np.indices((tau + 1,) * 4 + (nz.lines,), sparse=True)
    res["single_line_round"] = deviation(
        tuple(u * m + i for u in (a, b, e, f)),
        4 * sign * ((a == e) & (b == f)) - 4 * sign * ((a == f) & (b == e)))

    a, b, i, j = np.indices((tau + 1, tau + 1, nz.lines, nz.lines),
                            sparse=True)
    ai, bi, aj, bj = a * m + i, b * m + i, a * m + j, b * m + j
    res["same_coordinate_4c"] = deviation((ai, bi, ai, bi), 4 * sign, a != b)
    res["cross_line_sectional_c"] = deviation((ai, bj, ai, bj), sign, i != j)
    apart = (a != b) & (i != j)
    res["paired_plane_2c"] = deviation((ai, bi, aj, bj), 2 * sign, apart)
    res["cross_quad_c"] = deviation((ai, aj, bi, bj), sign, apart)

    # invariance rules, one pass per structure operator
    worst = np.zeros(4)
    for g in range(tau):
        worst = np.maximum(worst, _invariance_gaps(model, nz, g))
    worst4s, worst2s, worstdef, worstpair = map(float, worst)
    res["four_slot_invariance"] = worst4s
    res["two_slot_invariance"] = worst2s
    res["two_slot_defect"] = worstdef
    res["two_slot_defect_pairform"] = worstpair
    if tau >= 3 and worst2s > 0:
        notes["two_slot_invariance"] = (
            "two-slot pullback is not an invariance for this family; the "
            "deviation equals the predicted defect exactly"
        )
    if tau == 7 and worstpair > 0:
        notes["two_slot_defect_pairform"] = (
            "the pair-form reduction of the defect relies on closure of "
            "structure compositions and fails for the octonionic family"
        )

    gated = (
        "zero_three_coordinates",
        "single_line_round",
        "same_coordinate_4c",
        "cross_line_sectional_c",
        "paired_plane_2c",
        "cross_quad_c",
        "four_slot_invariance",
        "two_slot_defect",
    )
    return FrameAudit(residuals=res, notes=notes, gated=gated,
                      reported=("two_slot_invariance", "two_slot_defect_pairform"))


def _contractions(model: CurvatureModel) -> tuple:
    """(near, r, chk, trace): the Ricci contraction r(a, b) = sum_i
    R(a,i,b,i) and the self-contraction chk(a, b) = sum_ijk R(a,i,j,k)
    R(b,i,j,k) at the coordinates ``near`` on lines 0 and 1 of the lines
    held (``_line_weights``); and the trace of chk over every coordinate.
    chk sums the pairs of nonzeros that share their last three slots once,
    then transposed."""
    n = model.n
    nz = model.nz
    i0, i1, i2, i3 = nz.slots
    vals = nz.values
    lines = n // (model.tau + 1)
    line = np.arange(n) % lines
    near = np.flatnonzero(line < 2)
    k = near.size
    loc = np.searchsorted(near, np.arange(n))
    w = _line_weights(lines, line, [i0, i2], [i1])
    on = np.flatnonzero((i1 == i3) & (w != 0))
    ric = np.bincount(loc[i0[on]] * k + loc[i2[on]], weights=vals[on] * w[on],
                      minlength=k * k).reshape(k, k)
    w = _line_weights(lines, line, [i0], [i1, i2, i3])
    at = np.flatnonzero(w != 0)
    s, t = pairs_by_key(nz.keys[at] % n**3)
    s, t = at[s], at[t]
    chk = np.bincount(loc[i0[s]] * k + loc[i0[t]],
                      weights=vals[s] * vals[t] * w[s],
                      minlength=k * k).reshape(k, k)
    # the pairs s = t, each nonzero with itself, lie on the diagonal once
    chk += chk.T - np.diag(np.bincount(loc[i0[at]], weights=(
        vals[at] * vals[at] * w[at]), minlength=k))
    return near, ric, chk, lines * float(np.sum(np.diag(chk)[line[near] == 0]))


def build_model(family: str, m: int, c: float, n: int | None = None) -> CurvatureModel:
    """Build and validate a model tensor at ``float(c)``: c > 0 compact,
    c < 0 dual; ValueError first for a c that is a bool or not a Real.

    Validation gates, any failure raises ModelValidationError: the scale
    range |c| in SCALE_RANGE, structure-operator invariants and line
    symmetry (exact), curvature symmetries and Bianchi
    (``check_curvature_rules`` on the nonzeros the model holds, relative
    to the largest entry), and four gates read at c = sign(c), where every
    entry of R is a small integer and every sum they take is exact, so
    each is an exact equality and its decision is the same at every scale:

      adapted-frame audit    every gated residual is 0
      Einstein identity      r = lam_1 g, lam_1 = sign(c) (3 tau + n - 1)
      criticality identity   n times the self-contraction = |R|_1^2 g
      norm consistency       the three ways of computing |R|_1^2 agree

    Every gate reads the nonzeros the model holds (``_choose_nonzeros``,
    ``_contractions``); no n^4 array is made.  ``R_norm2`` is c^2 times
    the exact integer |R|_1^2 (``_Nonzeros.unit_norm2``), whatever lines
    are held.
    """
    if isinstance(c, bool) or not isinstance(c, Real):
        raise ValueError(f"curvature scale c must be a real number, got {c!r}")
    try:
        c = float(c)
    except OverflowError:  # a Real beyond the float range
        c = math.inf
    if c == 0 or not math.isfinite(c):
        raise ValueError(f"curvature scale c must be finite and nonzero, got {c}")
    low, high = SCALE_RANGE
    if not low <= abs(c) <= high:
        raise ModelValidationError(
            f"curvature scale |c| = {abs(c):g} is outside the certified "
            f"range [{low:g}, {high:g}]"
        )
    J = build_j_structure(family, m, n=n)
    nn = J.n
    tau = J.tau
    nz = _choose_nonzeros(J, 1 if c > 0 else -1)
    model = CurvatureModel(family=family, m=(m if family != "sphere" else 0),
                           n=nn, tau=tau, c=c, nz=nz, J=J)
    try:
        check_curvature_rules(nn, nz.keys, nz.slots, nz.values)
    except ValueError as exc:
        raise ModelValidationError(f"curvature rules fail: {exc}") from exc

    audit = model.audit = frame_rule_audit(model)
    if not audit.passed():
        worst = max(audit.gated, key=lambda k: audit.residuals[k])
        raise ModelValidationError(
            f"frame audit failed: rule {worst} residual {audit.residuals[worst]:.3e}"
        )

    near, ric, chk, norm_trace = _contractions(model)
    eye = np.eye(near.size)
    norm1 = nz.unit_norm2()
    # 4 tr(P^2) for the operator P on 2-vectors: the nonzeros against their
    # pair exchange (by the antisymmetries, four times the sum over i0 < i1
    # and i2 < i3)
    exchanged = nz.at(nn, nz.slots[2:] + nz.slots[:2])
    norm_operator = float(np.sum(nz.weights * nz.values * exchanged))
    lam1 = einstein_constant(nn, tau, model.sign)
    gaps = {"Einstein identity": ric - lam1 * eye,
            "criticality identity": nn * chk - norm1 * eye,
            "norm consistency": np.array([norm_operator, norm_trace]) - norm1}
    for gate, gap in gaps.items():
        if np.any(gap != 0):
            raise ModelValidationError(
                f"{gate} fails: residual {np.max(np.abs(gap)):.3e}")

    model.lam = einstein_constant(nn, tau, c)
    model.s = nn * model.lam
    model.R_norm2 = c * c * norm1
    return model


# ---------------------------------------------------------------------------
# closed forms and reference data
# ---------------------------------------------------------------------------
# Each closed form is written once with integer literals, so floats, exact
# Fractions and the ledger's symbols all go through the same arithmetic.  Keep the
# float evaluation order (2 * c * c, not c ** 2): the documents pin its bits.

def einstein_constant(n, tau, c):
    """Einstein constant lam = c (3 tau + n - 1) of the model tensor."""
    return c * (3 * tau + n - 1)


def norm2_closed_claimed(n: int, tau: int, c: float = 1.0) -> float:
    """The claimed closed form 2 c^2 n (5 tau^2 + 3 n tau + 4 tau + n - 1)."""
    return 2 * c * c * n * (5 * tau * tau + 3 * n * tau + 4 * tau + n - 1)


def norm2_closed_derived(n: int, tau: int, c: float = 1.0) -> float:
    """Independently derived closed form for the model tensors,

        |R|^2 = 2 c^2 n (n - 1 + 3 n tau + 12 tau - 3 tau^2).

    Agrees with the claimed form exactly when tau <= 1 and differs by
    16 c^2 n tau (tau - 1) for the quaternionic and octonionic families.
    """
    return 2 * c * c * n * (n - 1 + 3 * n * tau + 12 * tau - 3 * tau * tau)


def _ratio_table(family: str, m: int, n: int) -> Fraction:
    """Published ratio |R|^2 / lambda^2, row by row as tabulated."""
    if family == "sphere":
        return Fraction(2 * n, n - 1)
    if family == "complex":
        return Fraction(m, m + 1)
    if family == "quaternionic":
        return Fraction(4 * m * (5 * m + 7), (m + 2) ** 2)
    return Fraction(416, 27)


def reference_mu_over_lambda(family: str, m: int, n: int | None = None) -> Fraction:
    """First positive Laplace eigenvalue over the Einstein constant, from
    the embedded spectral reference table (compact models only)."""
    if family == "sphere":
        if n is None:
            raise ValueError("sphere needs n")
        return Fraction(n, n - 1)
    if family == "complex":
        return Fraction(2)
    if family == "quaternionic":
        return Fraction(2 * (m + 1), m + 2)
    if family == "octonionic":
        return Fraction(4, 3)
    raise ValueError(f"unknown family {family!r}")


def reference_constants(family: str, m: int, n: int | None = None) -> dict:
    """Embedded reference row for a family: three ratios |R|^2 / lambda^2
    (from the claimed norm closed form, from the published table, and from
    the independent derivation matching direct contraction), plus
    mu / lambda for the compact member.

    Two discrepancies are flagged rather than repaired: the complex-family
    table row m/(m+1) conflicts with the closed form 8m/(m+1), and for the
    tau >= 3 families the closed form itself disagrees with the directly
    computed tensor norm.
    """
    nn = family_dimension(family, m, n)
    tau = _TAU[family]
    lam2 = einstein_constant(nn, tau, 1) ** 2
    closed = Fraction(norm2_closed_claimed(nn, tau, 1), lam2)
    table = _ratio_table(family, m, nn)
    derived = Fraction(norm2_closed_derived(nn, tau, 1), lam2)
    table_flag = None
    computed_flag = None
    if table != closed:
        table_flag = (
            f"tabulated ratio {table} conflicts with the norm closed form "
            f"{closed}; the closed form matches direct contraction here"
        )
    if derived != closed:
        computed_flag = (
            f"claimed closed-form ratio {closed} disagrees with direct "
            f"contraction, which gives {derived}"
        )
    return {
        "family": family,
        "m": m,
        "n": nn,
        "tau": tau,
        "ratio_closed_form": closed,
        "ratio_table": table,
        "ratio_derived": derived,
        "table_flag": table_flag,
        "computed_flag": computed_flag,
        "mu_over_lambda": reference_mu_over_lambda(family, m, nn),
    }


def model_constants(model: CurvatureModel) -> dict:
    """Constants record: lambda, s, |R|^2 (direct and both closed forms),
    the three exact ratios, discrepancy flags, and reference spectral data.
    mu fields are None for non-compact models; use
    ``reference_mu_over_lambda`` directly to get the explicit error."""
    n, tau, c = model.n, model.tau, model.c
    ref = reference_constants(model.family, model.m,
                              n=n if model.family == "sphere" else None)
    lam2 = model.lam * model.lam
    out = {
        "family": model.family,
        "label": model.label,
        "m": model.m,
        "n": n,
        "tau": tau,
        "c": c,
        "lambda": model.lam,
        "s": model.s,
        "R_norm2": model.R_norm2,
        "R_norm2_closed_claimed": norm2_closed_claimed(n, tau, c),
        "R_norm2_closed_derived": norm2_closed_derived(n, tau, c),
        "ratio": ref["ratio_closed_form"],
        "ratio_table": ref["ratio_table"],
        "ratio_derived": ref["ratio_derived"],
        "ratio_computed": model.R_norm2 / lam2,
        "table_flag": ref["table_flag"],
        "computed_flag": ref["computed_flag"],
    }
    out["claimed_matches_direct"] = (
        norm2_closed_claimed(n, tau) == model.nz.unit_norm2())
    if model.compact:
        mu_ratio = ref["mu_over_lambda"]
        out["mu_over_lambda"] = mu_ratio
        out["mu"] = float(mu_ratio) * model.lam
    else:
        out["mu_over_lambda"] = None
        out["mu"] = None
        out["mu_note"] = "no spectral reference data for non-compact duals"
    return out
