"""Curvature models of the rank-one symmetric families at a tangent space.

Four families are supported: the constant-curvature sphere (tau = 0), the
complex projective family (tau = 1, n = 2m), the quaternionic projective
family (tau = 3, n = 4m) and the 16-dimensional octonionic plane (tau = 7).
Negatively curved duals use the same formulas with c < 0.

The structure operators J_1..J_tau are built from division-algebra
multiplication: the complex and quaternionic families act by right unit
multiplication per coordinate, the octonionic family by left multiplication
with the seven imaginary units acting diagonally on two octonion
coordinates.  All of them are skew orthogonal matrices squaring to -Id and
anticommuting pairwise, which the constructor certifies numerically.

The curvature tensor itself comes from one closed formula,

    R(x,y,z,w) = c [ <x,z><y,w> - <x,w><y,z>
                     + sum_a ( <J_a x,z><J_a y,w> - <J_a x,w><J_a y,z>
                               + 2 <J_a x,y><J_a z,w> ) ]

and every constructed model is gated on an adapted-frame audit plus the
Einstein and criticality identities before it is returned.

Adapted basis convention: index (alpha, i) -> alpha * m + i, where alpha
runs over the algebra units 0..tau and i over the coordinates 0..m-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from crosscurv.division_algebras import (
    complex_table,
    quaternion_table,
    octonion_table,
)
from crosscurv.tensors import (
    CurvTensor4,
    SymTensor2,
    check_tensor,
    lambda2_pushforward,
    pair_vector,
    ricci,
    to_lambda2,
)

__all__ = [
    "FAMILIES",
    "JStructure",
    "CurvatureModel",
    "FrameAudit",
    "ModelValidationError",
    "NoSpectralDataError",
    "build_j_structure",
    "build_model",
    "frame_rule_audit",
    "model_constants",
    "norm2_closed_claimed",
    "norm2_closed_derived",
    "reference_constants",
    "reference_mu_over_lambda",
]

FAMILIES = ("sphere", "complex", "quaternionic", "octonionic")

_TAU = {"sphere": 0, "complex": 1, "quaternionic": 3, "octonionic": 7}


class ModelValidationError(RuntimeError):
    """A construction gate failed; carries the rule name and residual."""


class NoSpectralDataError(LookupError):
    """No spectral reference data exists for the requested model."""


@dataclass(eq=False)
class JStructure:
    """Family of anticommuting skew orthogonal complex structures."""

    n: int
    tau: int
    operators: list = field(repr=False)
    family: str = "sphere"

    def max_structure_residual(self) -> float:
        """Worst residual over orthogonality, skewness, J^2 = -Id and
        pairwise anticommutation."""
        worst = 0.0
        eye = np.eye(self.n)
        for a, Ja in enumerate(self.operators):
            worst = max(worst, np.max(np.abs(Ja.T @ Ja - eye)))
            worst = max(worst, np.max(np.abs(Ja.T + Ja)))
            worst = max(worst, np.max(np.abs(Ja @ Ja + eye)))
            for Jb in self.operators[a + 1 :]:
                worst = max(worst, np.max(np.abs(Ja @ Jb + Jb @ Ja)))
        return float(worst)


@dataclass(eq=False)
class CurvatureModel:
    """A validated model tensor with its derived constants."""

    family: str
    m: int
    n: int
    tau: int
    c: float
    R: CurvTensor4 = field(repr=False)
    J: JStructure = field(repr=False)
    lam: float = 0.0
    s: float = 0.0
    R_norm2: float = 0.0
    audit: FrameAudit | None = field(default=None, repr=False)

    @property
    def compact(self) -> bool:
        return self.c > 0

    @property
    def label(self) -> str:
        base = {"sphere": f"sphere{self.n}", "complex": f"cp{self.m}",
                "quaternionic": f"hp{self.m}", "octonionic": "op2"}[self.family]
        return base if self.compact else base + "-dual"


def _structure_from_table(idx: np.ndarray, sgn: np.ndarray, m: int,
                          side: str) -> list[np.ndarray]:
    """Unit multiplications of a division algebra acting per coordinate.

    side="right": J_b e_{a i} = e_a e_b  (per coordinate i)
    side="left":  J_b e_{a i} = e_b e_a
    """
    dim = idx.shape[0]
    n = dim * m
    ops = []
    for b in range(1, dim):
        J = np.zeros((n, n))
        for a in range(dim):
            if side == "right":
                target, sign = idx[a, b], sgn[a, b]
            else:
                target, sign = idx[b, a], sgn[b, a]
            for i in range(m):
                J[target * m + i, a * m + i] = sign
        ops.append(J)
    return ops


def build_j_structure(family: str, m: int, n: int | None = None) -> JStructure:
    """Construct the structure family; validates all operator invariants.

    sphere: tau=0, any n >= 3 (m ignored).  complex: n=2m, m >= 2.
    quaternionic: n=4m, m >= 1.  octonionic: n=16, m=2 only.
    """
    if family == "sphere":
        if n is None or n < 3:
            raise ValueError("sphere needs an explicit dimension n >= 3")
        return JStructure(n=n, tau=0, operators=[], family=family)
    if family == "complex":
        if m < 2:
            raise ValueError("complex family needs m >= 2")
        ops = _structure_from_table(*complex_table(), m=m, side="right")
    elif family == "quaternionic":
        if m < 1:
            raise ValueError("quaternionic family needs m >= 1")
        ops = _structure_from_table(*quaternion_table(), m=m, side="right")
    elif family == "octonionic":
        if m != 2:
            raise ValueError("octonionic family exists only for m = 2")
        ops = _structure_from_table(*octonion_table(), m=m, side="left")
    else:
        raise ValueError(f"unknown family {family!r}")

    J = JStructure(n=ops[0].shape[0], tau=len(ops), operators=ops, family=family)
    res = J.max_structure_residual()
    if res > 1e-12:
        raise ModelValidationError(f"structure operator invariants fail: {res:.3e}")
    return J


def _curvature_from_structure(J: JStructure, c: float) -> CurvTensor4:
    n = J.n
    eye = np.eye(n)
    T = np.einsum("xz,yw->xyzw", eye, eye) - np.einsum("xw,yz->xyzw", eye, eye)
    for Jm in J.operators:
        # <J x, e_a> = J[a, index(x)] for basis vectors
        T += np.einsum("zx,wy->xyzw", Jm, Jm)
        T -= np.einsum("wx,zy->xyzw", Jm, Jm)
        T += 2.0 * np.einsum("yx,wz->xyzw", Jm, Jm)
    return CurvTensor4(c * T)


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

    def passed(self, tol: float = 1e-12) -> bool:
        return self.max_gated_residual() <= tol


def _adapted_coordinates(J: JStructure, m: int) -> np.ndarray:
    """coordinate label of each basis index under (alpha, i) -> alpha*m + i."""
    if J.tau == 0:
        return np.arange(J.n)  # every direction its own line
    return np.tile(np.arange(m), J.tau + 1)


def frame_rule_audit(model: "CurvatureModel") -> FrameAudit:
    """Check the adapted-frame component rules of the model tensor.

    Gated rules (exact for every family):
      zero_three_coordinates   components with >= 3 distinct coordinate
                               lines vanish
      single_line_round        restricted to one coordinate line the tensor
                               is the constant-curvature tensor of 4c
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
    """
    R = model.R.entries
    J = model.J
    n, tau, c = model.n, model.tau, model.c
    m = n // (tau + 1)
    coord = _adapted_coordinates(J, m)

    res: dict[str, float] = {}
    notes: dict[str, str] = {}

    # zero_three_coordinates: count distinct coordinate labels per nonzero
    # component; the maximum of |R| over the mask is its maximum over the
    # masked nonzeros
    nz = np.nonzero(R)
    labels = [coord[i] for i in nz]
    ncoords = np.zeros(len(nz[0]), dtype=int)
    for a in range(4):
        is_new = np.ones(len(nz[0]), dtype=bool)
        for b in range(a):
            is_new &= labels[a] != labels[b]
        ncoords += is_new
    hits = np.abs(R[nz][ncoords >= 3])
    res["zero_three_coordinates"] = float(np.max(hits)) if hits.size else 0.0

    # single_line_round: per coordinate line, compare with 4c * round tensor
    worst = 0.0
    for i in range(m):
        sel = np.flatnonzero(coord == i)
        block = R[np.ix_(sel, sel, sel, sel)]
        d = len(sel)
        eye = np.eye(d)
        round4c = 4.0 * c * (
            np.einsum("xz,yw->xyzw", eye, eye) - np.einsum("xw,yz->xyzw", eye, eye)
        )
        worst = max(worst, float(np.max(np.abs(block - round4c))))
        if tau == 0:
            break  # all lines are 1-dimensional and identical
    res["single_line_round"] = worst

    def _basis(alpha: int, i: int) -> int:
        return alpha * m + i

    worst4, worstc, worst2, worstq = 0.0, 0.0, 0.0, 0.0
    for a in range(tau + 1):
        for b in range(tau + 1):
            for i in range(m):
                x, y = _basis(a, i), _basis(b, i)
                if a != b:
                    worst4 = max(worst4, abs(R[x, y, x, y] - 4.0 * c))
                for j in range(m):
                    if i == j:
                        continue
                    u, v = _basis(a, i), _basis(b, j)
                    worstc = max(worstc, abs(R[u, v, u, v] - c))
                    if a != b:
                        worst2 = max(
                            worst2,
                            abs(R[_basis(a, i), _basis(b, i),
                                  _basis(a, j), _basis(b, j)] - 2.0 * c),
                        )
                        worstq = max(
                            worstq,
                            abs(R[_basis(a, i), _basis(a, j),
                                  _basis(b, i), _basis(b, j)] - c),
                        )
    res["same_coordinate_4c"] = worst4 if tau > 0 else 0.0
    res["cross_line_sectional_c"] = worstc if m > 1 else 0.0
    res["paired_plane_2c"] = worst2 if (tau > 0 and m > 1) else 0.0
    res["cross_quad_c"] = worstq if (tau > 0 and m > 1) else 0.0

    # invariance rules
    def _aform(K: np.ndarray) -> np.ndarray:
        # A_K(x,y,z,w) = <Kx,z><Ky,w> - <Kx,w><Ky,z>
        return (np.einsum("zx,wy->xyzw", K, K)
                - np.einsum("wx,zy->xyzw", K, K))

    worst4s, worst2s, worstdef, worstpair = 0.0, 0.0, 0.0, 0.0
    for g, Jm in enumerate(J.operators):
        R4 = np.einsum("ax,by,cz,dw,abcd->xyzw", Jm, Jm, Jm, Jm, R, optimize=True)
        worst4s = max(worst4s, float(np.max(np.abs(R4 - R))))
        R2 = np.einsum("cz,dw,abcd->abzw", Jm, Jm, R, optimize=True)
        worst2s = max(worst2s, float(np.max(np.abs(R2 - R))))
        # exact defect of the two-slot pullback:
        #   c sum_{a != g} [A(-J_g J_a) - A(J_a)] - 4c sum_{a != g} w_a (x) w_a
        # For the associative families -J_g J_a is (up to sign) another
        # member of the family and the A terms cancel pairwise, leaving the
        # pair-form part alone; for the octonionic family they do not.
        defect = np.zeros_like(R)
        pairform = np.zeros_like(R)
        for a, Ja in enumerate(J.operators):
            if a == g:
                continue
            w = Ja.T  # w(x, y) = <J x, y> = J[y, x]
            pairform -= 4.0 * c * np.einsum("xy,zw->xyzw", w, w)
            defect += c * (_aform(-(Jm @ Ja)) - _aform(Ja))
        defect += pairform
        worstdef = max(worstdef, float(np.max(np.abs((R2 - R) - defect))))
        worstpair = max(worstpair, float(np.max(np.abs((R2 - R) - pairform))))
    res["four_slot_invariance"] = worst4s
    res["two_slot_invariance"] = worst2s
    res["two_slot_defect"] = worstdef
    res["two_slot_defect_pairform"] = worstpair
    if tau >= 3 and worst2s > 1e-12:
        notes["two_slot_invariance"] = (
            "two-slot pullback is not an invariance for this family; the "
            "deviation equals the predicted defect exactly"
        )
    if tau == 7 and worstpair > 1e-12:
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


def build_model(family: str, m: int, c: float, n: int | None = None) -> CurvatureModel:
    """Build and validate a model tensor.  c > 0 compact, c < 0 dual.

    Validation gates, any failure raises ModelValidationError:
    structure-operator invariants, curvature symmetries and Bianchi (checked
    by the CurvTensor4 constructor), the adapted-frame audit, the Einstein
    identity r = c(3 tau + n - 1) g, the criticality identity
    (self-contraction proportional to g), and agreement of the three ways of
    computing |R|^2.
    """
    if c == 0 or not math.isfinite(c):
        raise ValueError(f"curvature scale c must be finite and nonzero, got {c}")
    J = build_j_structure(family, m, n=n)
    nn = J.n
    tau = J.tau
    R = _curvature_from_structure(J, c)
    model = CurvatureModel(family=family, m=(m if family != "sphere" else 0),
                           n=nn, tau=tau, c=float(c), R=R, J=J)

    audit = model.audit = frame_rule_audit(model)
    if not audit.passed(1e-12):
        worst = max(audit.gated, key=lambda k: audit.residuals[k])
        raise ModelValidationError(
            f"frame audit failed: rule {worst} residual {audit.residuals[worst]:.3e}"
        )

    lam = einstein_constant(nn, tau, c)
    ric = ricci(R).entries
    eres = float(np.max(np.abs(ric - lam * np.eye(nn))))
    if eres > 1e-12 * max(1.0, abs(lam)):
        raise ModelValidationError(f"Einstein identity fails: residual {eres:.3e}")

    with np.errstate(over="ignore"):
        norm_direct = R.norm2()
    if not math.isfinite(norm_direct):
        raise ModelValidationError(f"|R|^2 overflows: {norm_direct}")
    chk = check_tensor(R).entries
    crit = float(np.max(np.abs(chk - (norm_direct / nn) * np.eye(nn))))
    if crit > 1e-10 * max(1.0, norm_direct / nn):
        raise ModelValidationError(f"criticality identity fails: residual {crit:.3e}")

    P = to_lambda2(R).matrix
    norm_operator = 4.0 * float(np.trace(P @ P))
    norm_trace = float(np.trace(chk))
    span = max(1.0, abs(norm_direct))
    if abs(norm_operator - norm_direct) > 1e-10 * span or abs(
        norm_trace - norm_direct
    ) > 1e-10 * span:
        raise ModelValidationError(
            "norm consistency fails: "
            f"{norm_direct} vs {norm_operator} vs {norm_trace}"
        )

    model.lam = lam
    model.s = nn * lam
    model.R_norm2 = norm_direct
    return model


# ---------------------------------------------------------------------------
# closed forms and reference data
# ---------------------------------------------------------------------------
# Each closed form is written once with integer literals, so floats, exact
# Fractions and sympy symbols all go through the same arithmetic.  Keep the
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
    if family == "sphere" and n is None:
        raise ValueError("sphere needs n")
    nn = {"sphere": n, "complex": 2 * m, "quaternionic": 4 * m, "octonionic": 16}[family]
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
    ref = reference_constants(model.family, model.m, n=n)
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
        abs(out["R_norm2_closed_claimed"] - model.R_norm2)
        <= 1e-10 * max(1.0, abs(model.R_norm2))
    )
    if model.compact:
        mu_ratio = ref["mu_over_lambda"]
        out["mu_over_lambda"] = mu_ratio
        out["mu"] = float(mu_ratio) * model.lam
    else:
        out["mu_over_lambda"] = None
        out["mu"] = None
        out["mu_note"] = "no spectral reference data for non-compact duals"
    return out
