"""Fiberwise quadratic forms for the second-variation analysis.

On a model tensor the trace-free part of the second variation reduces (after
dropping manifestly nonnegative derivative terms) to an algebraic quadratic
form in the variation h.  This module assembles that form as a dense matrix
on an orthonormal basis of trace-free symmetric 2-tensors, certifies its
minimal eigenvalue with the in-house Jacobi solver plus a large seeded
Rayleigh-quotient sample, and evaluates the conformal-direction quadratic

    q(mu) = 2 (n - 1) mu^2 - 8 lam mu + (4 - n) |R|^2

at the first Laplace eigenvalue of the compact model.

The certified trace-free coefficients follow the reference display.
``compact_tt_coefficients``, ``noncompact_tt_coefficients`` and
``conformal_coefficients`` are the single source of those displays: the
ledger audits the same functions called on sympy symbols.  The independent
re-derivation disagrees with three of the trace-free coefficients (see the
ledger module), and a certificate obtained here is therefore a statement
about the displayed form.  The conformal value is reported for both the
displayed norm closed form and the directly computed norm, which differ for
the tau >= 3 families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

import numpy as np

from crosscurv.jacobi import jacobi_eigs
from crosscurv.models import (
    CurvatureModel,
    NoSpectralDataError,
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
    "term_matrix",
    "assemble_quadform",
    "assemble_tt_remainder",
    "family_bound_form",
    "min_eigen_tt",
    "conformal_value",
    "hp_scale",
    "stability_verdict",
    "TERM_KEYS",
]

#: basis quantities that have a quadratic-form realization on variations
TERM_KEYS = ("NORM_H", "IP_H_HTILDE", "NORM_HTILDE", "NORM_RRING",
             "K_PAIR", "RR_KN")


class UnsupportedExponentError(ValueError):
    """Conformal reference values exist only for exponent 2."""


def tt_basis(n: int) -> np.ndarray:
    """Orthonormal basis of trace-free symmetric 2-tensors, vectorized.

    Columns are row-major vec's: first the off-diagonal pair tensors
    (E_ij + E_ji)/sqrt(2) for i < j, then the diagonal ladder
    diag(1, ..., 1, -k, 0, ..., 0)/sqrt(k (k+1)) for k = 1..n-1.
    Shape (n^2, n(n+1)/2 - 1).
    """
    cols = []
    for i in range(n):
        for j in range(i + 1, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0 / np.sqrt(2.0)
            cols.append(E.reshape(-1))
    for k in range(1, n):
        d = np.zeros(n)
        d[:k] = 1.0
        d[k] = -float(k)
        cols.append((np.diag(d) / np.sqrt(k * (k + 1.0))).reshape(-1))
    return np.column_stack(cols)


def term_matrix(model: CurvatureModel, key: str) -> np.ndarray:
    """n^2 x n^2 matrix realizing one basis quantity on vec(h), row-major."""
    n = model.n
    R = model.R.entries
    if key == "NORM_H":
        return np.eye(n * n)
    if key in ("IP_H_HTILDE", "NORM_HTILDE"):
        G = np.zeros((n * n, n * n))
        for J in model.J.operators:
            G += np.kron(J.T, J.T)
        return 0.5 * (G + G.T) if key == "IP_H_HTILDE" else G.T @ G
    if key == "NORM_RRING":
        # (action h)_xy = sum_ij R_ixjy h_ij
        L = np.einsum("ixjy->xyij", R).reshape(n * n, n * n)
        return L.T @ L
    if key == "K_PAIR":
        G = np.einsum("pimj,qinj->pqmn", R, R, optimize=True)
        return G.reshape(n * n, n * n)
    if key == "RR_KN":
        G = 0.5 * np.einsum("pmij,qnij->pqmn", R, R, optimize=True)
        return G.reshape(n * n, n * n)
    raise KeyError(f"no quadratic-form realization for {key!r}")


@dataclass(eq=False)
class QuadForm:
    """Quadratic form on the trace-free symmetric basis of one model."""

    n: int
    dim: int
    matrix: np.ndarray = field(repr=False)
    coefficients: dict = field(default_factory=dict)
    provenance: str = ""
    basis: np.ndarray = field(default=None, repr=False)

    def value(self, h: np.ndarray) -> float:
        """Evaluate on a trace-free symmetric matrix via the basis."""
        b = self.basis.T @ np.asarray(h, dtype=float).reshape(-1)
        return float(b @ self.matrix @ b)


def assemble_quadform(model: CurvatureModel, coeffs: dict,
                      provenance: str = "") -> QuadForm:
    """Weighted sum of term matrices, compressed to the trace-free basis."""
    n = model.n
    G = np.zeros((n * n, n * n))
    for key, w in coeffs.items():
        if w == 0:
            continue
        G += float(w) * term_matrix(model, key)
    B = tt_basis(n)
    M = B.T @ G @ B
    M = 0.5 * (M + M.T)
    return QuadForm(n=n, dim=B.shape[1], matrix=M,
                    coefficients={k: float(v) for k, v in coeffs.items()},
                    provenance=provenance, basis=B)


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


def assemble_tt_remainder(model: CurvatureModel, regime: str | None = None) -> QuadForm:
    """Trace-free remainder form for the model's curvature sign.

    regime may be passed explicitly ('compact' or 'noncompact') but must
    agree with the sign of the model's curvature scale.
    """
    actual = "compact" if model.compact else "noncompact"
    if regime is None:
        regime = actual
    if regime not in ("compact", "noncompact"):
        raise ValueError(f"unknown regime {regime!r}")
    if regime != actual:
        raise ValueError(
            f"regime {regime!r} conflicts with curvature scale c = {model.c}"
        )
    coeffs = (compact_tt_coefficients(model) if regime == "compact"
              else noncompact_tt_coefficients(model))
    return assemble_quadform(model, coeffs,
                             provenance=f"tt-remainder/{regime}")


def family_bound_form(family: str, variant: str = "repaired") -> dict:
    """Per-family displayed lower-bound coefficient set, symbolic in n, c,
    and the squared norm symbol R2.

    variant='literal' keeps the polynomial parts dimensionless exactly as
    displayed; variant='repaired' multiplies them by c^2, the scaling
    forced by homogeneity.  There is no displayed set for the sphere.
    """
    if variant not in ("literal", "repaired"):
        raise ValueError(f"unknown variant {variant!r}")
    import sympy as sp

    nsym, csym, R2sym = sp.symbols("n c R2")
    scale = csym**2 if variant == "repaired" else sp.Integer(1)
    if family == "complex":
        return {
            "K_PAIR": sp.Integer(4),
            "NORM_H": 2 * R2sym / nsym + (2 * nsym - 65) * scale,
        }
    if family == "quaternionic":
        return {
            "K_PAIR": sp.Integer(4),
            "NORM_H": 2 * R2sym / nsym + 3 * (nsym + 1) * scale,
            "NORM_HTILDE": (nsym - 53) * scale,
        }
    if family == "octonionic":
        return {
            "NORM_HTILDE": (2 * nsym + 76) * scale,
            "NORM_H": (11 * nsym + 188) * scale + 2 * R2sym / nsym,
        }
    if family == "sphere":
        raise ValueError("no displayed family bound exists for the sphere")
    raise ValueError(f"unknown family {family!r}")


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


def _refine_rayleigh(M: np.ndarray, x: np.ndarray,
                     max_iter: int = 2000) -> tuple:
    """Drive a unit vector down the Rayleigh quotient.

    Each step minimizes the quotient exactly over span{x, residual, previous
    step} (a three-dimensional Rayleigh-Ritz problem), so the iteration is
    parameter free and monotone.  From a generic start it converges to the
    minimal eigenpair: the only stable critical points of the quotient on
    the sphere are the bottom eigenvectors.  Deterministic for a fixed start.
    """
    x = x / np.linalg.norm(x)
    rho = float(x @ M @ x)
    prev = None
    for _ in range(max_iter):
        grad = M @ x - rho * x
        if float(np.linalg.norm(grad)) < 1e-14 * max(1.0, abs(rho)):
            break
        cols = [x, grad] if prev is None else [x, grad, prev]
        basis = []
        for v in cols:
            w = v.copy()
            for b in basis:
                w -= (b @ w) * b
            nw = float(np.linalg.norm(w))
            if nw > 1e-12 * max(1.0, float(np.linalg.norm(v))):
                basis.append(w / nw)
        B = np.column_stack(basis)
        small = B.T @ M @ B
        small = 0.5 * (small + small.T)
        sub = jacobi_eigs(small)
        y = B @ sub.eigenvectors[:, 0]
        y /= np.linalg.norm(y)
        new_rho = float(y @ M @ y)
        if new_rho >= rho - 1e-15 * max(1.0, abs(rho)):
            x, rho = y, min(rho, new_rho)
            break
        prev = y - (x @ y) * x
        x, rho = y, new_rho
    return rho, x


def min_eigen_tt(qf: QuadForm, samples: int = 100_000, seed: int = 0,
                 batch: int = 20_000) -> SpectralCertificate:
    """Minimal eigenvalue with a two-sided sanity certificate.

    The Jacobi solver gives the spectrum.  Independently, a seeded batch of
    random directions samples Rayleigh quotients and the best sample is
    refined by projected descent (``_refine_rayleigh``).

    Sampling: each batch fills one preallocated buffer with
    ``rng.standard_normal`` in a (dim, k) draw, k = batch except for a
    shorter last batch, so column j of a batch is sample j and the seed,
    the batch size and the draw shape together fix which normals make up
    each sample; changing any of them changes every certificate.  The
    quotient of each column is evaluated block by block over the connected
    components of the form that the Jacobi spectrum records: the forms are
    exactly block-diagonal up to a permutation, so v^T M v is the sum over
    components b of v_b^T M_b v_b and no dense product with M is formed.
    Squared column norms are taken in one pass; only the winning column is
    normalised.

    Consistency: for the refined unit vector x with quotient rho, some
    eigenvalue lies within ||M x - rho x|| of rho (Parlett, The Symmetric
    Eigenvalue Problem, ch. 4).  The certificate is consistent when
    |rho - eig_min| <= ||M x - rho x|| + 1e-12 ||M||_F, the second term
    being the Jacobi stopping tolerance.  Both terms scale with M, so the
    rule holds at every curvature scale; the bound is stored as
    ``residual_bound``.
    """
    M = qf.matrix
    spec = jacobi_eigs(M)
    eig_min = float(spec.eigenvalues[0])
    eig_max = float(spec.eigenvalues[-1])
    blocks = [(idx, M[np.ix_(idx, idx)]) for idx in spec.components]
    rng = np.random.default_rng(seed)
    buf = np.empty(qf.dim * min(batch, samples))
    ray_min = np.inf
    best = None
    done = 0
    while done < samples:
        k = min(batch, samples - done)
        V = buf[:qf.dim * k].reshape(qf.dim, k)
        rng.standard_normal(out=V)
        quad = np.zeros(k)
        for idx, block in blocks:
            Vb = V[idx]
            quad += np.einsum("ij,ij->j", Vb, block @ Vb)
        norm2 = np.einsum("ij,ij->j", V, V)
        vals = quad / norm2
        j = int(np.argmin(vals))
        if float(vals[j]) < ray_min:
            ray_min = float(vals[j])
            best = V[:, j] / np.sqrt(norm2[j])
        done += k
    ray_min, x = _refine_rayleigh(M, best)
    bound = (float(np.linalg.norm(M @ x - ray_min * x))
             + 1e-12 * float(np.linalg.norm(M)))
    return SpectralCertificate(
        eig_min=eig_min,
        eig_max=eig_max,
        rayleigh_min=ray_min,
        rotations=spec.iterations,
        samples=samples,
        seed=seed,
        consistent=abs(ray_min - eig_min) <= bound,
        residual_bound=bound,
    )


# ---------------------------------------------------------------------------
# conformal direction
# ---------------------------------------------------------------------------

def _exact_c(c) -> Fraction | None:
    """c as an exact Fraction when it is rational or integral, else None."""
    if isinstance(c, Rational):
        return Fraction(c)
    if float(c).is_integer():
        return Fraction(int(c))
    return None


def _exact_norm2(model: CurvatureModel, norm_source: str):
    """|R|^2 as an exact Fraction when c is rational, else a float."""
    if norm_source not in ("claimed", "computed"):
        raise ValueError(f"unknown norm_source {norm_source!r}")
    exact_c = _exact_c(model.c)
    form = (norm2_closed_claimed if norm_source == "claimed"
            else norm2_closed_derived)
    return form(model.n, model.tau, model.c if exact_c is None else exact_c)


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
    raises UnsupportedExponentError.  When c and mu are rational the value
    is exact (a Fraction); the round sphere gives exactly 0.
    """
    if p != 2:
        raise UnsupportedExponentError(
            "conformal certification is only available for exponent p = 2; "
            "no spectral reference values are tabulated for other exponents"
        )
    n = model.n
    exact_c = _exact_c(model.c)
    lam = (model.lam if exact_c is None
           else einstein_constant(n, model.tau, exact_c))

    if mu is None:
        if not model.compact:
            raise NoSpectralDataError(
                "no spectral reference data for non-compact duals; "
                "pass mu explicitly"
            )
        ratio = reference_mu_over_lambda(model.family, model.m, n=n)
        mu = ratio * lam if exact_c is not None else float(ratio) * lam

    R2 = _exact_norm2(model, norm_source)
    if exact_c is not None and isinstance(mu, Rational):
        mu = Fraction(mu)
    else:
        mu, lam, R2 = float(mu), model.lam, float(R2)
    a, b, k = conformal_coefficients(n, lam, R2)
    return a * mu * mu + b * mu + k


def hp_scale(p: float, R_norm2: float) -> float:
    """Scale factor (p/2) |R|^(p-2) relating the exponent-p form to the
    exponent-2 form at a critical model; defined for p >= 2."""
    if p < 2:
        raise ValueError("scale factor is defined for p >= 2 only")
    if R_norm2 <= 0:
        raise ValueError("need a positive squared norm")
    return (p / 2.0) * R_norm2 ** ((p - 2) / 2.0)


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
            if float(claimed) * float(computed) < 0:
                flags.append("conformal sign depends on the norm source")
            if float(computed) < 0:
                flags.append(
                    "conformal direction negative at p = 2: consistent with "
                    "the claimed instability range below the threshold"
                )
            elif float(computed) == 0:
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
    )
