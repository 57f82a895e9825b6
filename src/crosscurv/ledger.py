"""Symbolic bookkeeping for second-variation reductions, plus a catalog of
numerically checkable identities.

The reduction engine works over a fixed basis of scalar quantities built
from a trace-free symmetric variation h on one of the curvature models
(norms, inner products, and curvature pairings).  A reduction is a linear
combination of basis ids with exact sympy coefficients in the symbols

    c    curvature scale
    n    dimension
    tau  number of structure operators (0, 1, 3, 7)
    lam  Einstein constant, rewritten to c (3 tau + n - 1) at the end
    R2   squared norm of the model curvature tensor
    mu   Laplace eigenvalue (conformal chain only)

Three chains are implemented:

  expand_theorem_tt        trace-free transverse variations, compact case
  expand_theorem_conformal pure-trace (conformal) variations
  noncompact_chain         trace-free variations, negative curvature scale

Each chain returns the independently derived coefficient set next to the
reference display it is checked against, with per-term match flags.  A
mismatch is recorded as a finding; the derived set is never altered to
force agreement.  The reference displays are the coefficient functions
``hessian`` certifies with, called on the symbols; ``LAM_RULE`` and the
norm closed form are the ``models`` functions.

Every coefficient is a rational function of these symbols; in fact all of
them are polynomials in c, tau, lam, mu, R2 and 1/n.  Two exact rules
replace heuristic simplification:

  zero test        sp.cancel(a - b) == 0.  cancel brings a rational function
                   to numerator/denominator form with the common factors
                   removed, and that form of the zero function is 0, so the
                   test decides equality of rational functions exactly,
                   which heuristic simplification does not.  It decides every
                   MATCH/MISMATCH flag, the square completions and
                   ``LedgerExpr.simplified``.
  printed form     sp.expand: the sum of monomials with integer or rational
                   coefficients, which sstr prints in sympy's fixed term
                   order.  For polynomials in c, tau, lam, mu, R2 and 1/n
                   it is canonical, so equal coefficients print equally.

sympy is imported on the first symbolic call (``_symbolic``), not when this
module is imported: the identity catalog is numeric, and ``import
crosscurv`` or the ``model``, ``verify`` and ``certify`` commands never
load sympy.  ``SYM`` and ``LAM_RULE`` are module attributes resolved
through that same call.

The identity catalog at the bottom pairs each named identity with an
independent numeric evaluator on concrete models; ``verify_identity_numeric``
drives random trials and reports PASS/FAIL without aborting on failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from crosscurv.hessian import (
    compact_tt_coefficients,
    conformal_coefficients,
    noncompact_tt_coefficients,
)
from crosscurv.models import einstein_constant, norm2_closed_claimed
from crosscurv.tensors import (
    CurvTensor4,
    compose_and_ricci,
    k_pairing,
    lambda2_pushforward,
    pair_vector,
    r_ring,
    random_curvature,
    random_symtensor,
    ricci,
    rr_kn_pairing,
    sym_inner,
    tilde,
    to_lambda2,
)

__all__ = [
    "BASIS",
    "SYM",
    "LedgerExpr",
    "TTExpansion",
    "ConformalExpansion",
    "NoncompactChain",
    "IdentityCheck",
    "expand_theorem_tt",
    "expand_theorem_conformal",
    "noncompact_chain",
    "a4_variants",
    "identity_catalog",
    "verify_identity_numeric",
    "quadratic_completion_checks",
]


@lru_cache(maxsize=None)
def _symbolic() -> SimpleNamespace:
    """Import sympy and create the ledger symbols, ``SYM`` and ``LAM_RULE``.

    Runs once, on the first symbolic call; ``symbols`` unpacks as
    ``c, n, tau, lam, mu, R2``, and ``model`` carries them as a model's
    n, tau, c and R_norm2 for the ``hessian`` coefficient functions.
    """
    import sympy as sp

    names = ("c", "n", "tau", "lam", "mu", "R2")
    symbols = sp.symbols(names)
    c, n, tau, lam, mu, R2 = symbols
    return SimpleNamespace(
        symbols=symbols,
        SYM=dict(zip(names, symbols)),
        LAM_RULE={lam: einstein_constant(n, tau, c)},
        model=SimpleNamespace(n=n, tau=tau, c=c, R_norm2=R2),
    )


def __getattr__(name: str):
    if name in ("SYM", "LAM_RULE"):
        return getattr(_symbolic(), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _is_zero(expr) -> bool:
    """Exact zero test for a rational function (see the module docstring)."""
    import sympy as sp

    return sp.cancel(expr) == 0


# scalar quantities the reductions are expressed in.  A = rough Laplacian of
# h, B = curvature action on h, ht = structure average of h, f = conformal
# potential.
BASIS = (
    "NORM_DDH",        # <A, A>
    "NORM_DDH_SHIFT",  # |A - (3/2) B|^2
    "NORM_DH",         # |covariant derivative of h|^2
    "IP_DDH_H",        # <A, h>
    "IP_DDH_RRING",    # <A, B>
    "NORM_RRING",      # <B, B>
    "IP_RRING_H",      # <B, h>
    "IP_RRING_HTILDE", # <B, ht>
    "IP_H_HTILDE",     # <h, ht>
    "NORM_HTILDE",     # <ht, ht>
    "NORM_H",          # <h, h>
    "K_PAIR",          # quadratic curvature pairing (K, h (x) h)
    "RR_KN",           # <R o R, h ^ h>
    "R_RBAR",          # <r_{R o R1}-type trace term, h (x) h>
    "SHIFT2",          # |A - (3/2) B + lam h|^2
    "BERGER_IP",       # <A, h> - <B, h> + lam <h, h>
    "NORM_DELTAF",     # |Laplacian of f|^2
    "NORM_DF",         # |df|^2
    "NORM_F",          # |f|^2
)


@dataclass
class LedgerExpr:
    """Linear combination of basis quantities with exact coefficients."""

    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        import sympy as sp

        clean = {}
        for k, v in self.coeffs.items():
            if k not in BASIS:
                raise KeyError(f"unknown basis id {k!r}")
            v = sp.sympify(v)
            if v != 0:
                clean[k] = v
        self.coeffs = clean

    def copy(self) -> "LedgerExpr":
        return LedgerExpr(dict(self.coeffs))

    def add_term(self, key: str, coeff) -> None:
        if key not in BASIS:
            raise KeyError(f"unknown basis id {key!r}")
        import sympy as sp

        v = sp.expand(self.coeffs.get(key, 0) + sp.sympify(coeff))
        if v == 0:
            self.coeffs.pop(key, None)
        else:
            self.coeffs[key] = v

    def pop_term(self, key: str):
        import sympy as sp

        return self.coeffs.pop(key, sp.Integer(0))

    def scaled(self, factor) -> "LedgerExpr":
        import sympy as sp

        return LedgerExpr({k: sp.expand(sp.sympify(factor) * v)
                           for k, v in self.coeffs.items()})

    def substituted(self, rules) -> "LedgerExpr":
        import sympy as sp

        return LedgerExpr({k: sp.expand(v.subs(rules))
                           for k, v in self.coeffs.items()})

    def simplified(self) -> "LedgerExpr":
        """Canonical printed form of every coefficient; exact zeros drop."""
        import sympy as sp

        return LedgerExpr({k: sp.expand(v) for k, v in self.coeffs.items()
                           if not _is_zero(v)})

    def coefficient(self, key: str):
        import sympy as sp

        return self.coeffs.get(key, sp.Integer(0))


# ---------------------------------------------------------------------------
# rewrite axioms
# ---------------------------------------------------------------------------

def _apply_integration_by_parts(e: LedgerExpr, log: list) -> None:
    """A1: <A, h> integrates to the gradient norm of h."""
    k = e.pop_term("IP_DDH_H")
    if k != 0:
        e.add_term("NORM_DH", k)
        log.append("A1: IP_DDH_H -> NORM_DH")


def _apply_curvature_action(e: LedgerExpr, log: list) -> None:
    """A2: on trace-free h the curvature action is B = 3 c ht - c h, used
    only inside inner products against h and ht (never on NORM_RRING)."""
    c = _symbolic().SYM["c"]
    k1 = e.pop_term("IP_RRING_H")
    if k1 != 0:
        e.add_term("IP_H_HTILDE", 3 * c * k1)
        e.add_term("NORM_H", -c * k1)
        log.append("A2: IP_RRING_H -> 3c IP_H_HTILDE - c NORM_H")
    k2 = e.pop_term("IP_RRING_HTILDE")
    if k2 != 0:
        e.add_term("NORM_HTILDE", 3 * c * k2)
        e.add_term("IP_H_HTILDE", -c * k2)
        log.append("A2: IP_RRING_HTILDE -> 3c NORM_HTILDE - c IP_H_HTILDE")


def _apply_kn_reduction(e: LedgerExpr, log: list) -> None:
    """A3: the claimed reduction of the exterior pairing; carried by the
    chain even though the identity fails numerically on every model (see
    the identity catalog entry kn-pairing-reduction)."""
    c, n, tau, lam, mu, R2 = _symbolic().symbols
    k = e.pop_term("RR_KN")
    if k != 0:
        e.add_term("IP_RRING_H", k * c * (n + tau + 1))
        e.add_term("NORM_H", k * 4 * c**2 * n)
        log.append("A3: RR_KN -> c(n+tau+1) IP_RRING_H + 4c^2 n NORM_H")


def a4_variants() -> dict:
    """The two readings of the composed-trace reduction A4.

    'printed' is the displayed coefficient set.  'composed' is what direct
    composition of the constituent reductions yields; it differs from the
    printed set by exactly + c * IP_RRING_HTILDE (their NORM_H parts agree
    after expanding lam).
    """
    import sympy as sp

    c, n, tau, lam, mu, R2 = _symbolic().symbols
    printed = LedgerExpr({
        "NORM_DH": c / 2,
        "IP_RRING_HTILDE": c,
        "IP_H_HTILDE": (c**2 / 2) * (3 * tau - 2),
        "NORM_H": (c / 2) * ((n + 1) * c - (tau - 2) * lam),
    })
    composed = LedgerExpr({
        "NORM_DH": c / 2,
        "IP_RRING_HTILDE": 2 * c,
        "IP_H_HTILDE": (c**2 / 2) * (3 * tau - 2),
        "NORM_H": c * lam + (c / 2) * ((n + 1) * c - tau * lam),
    })
    diff = LedgerExpr({
        k: sp.expand(composed.coefficient(k) - printed.coefficient(k))
        for k in set(printed.coeffs) | set(composed.coeffs)
    })
    return {"printed": printed, "composed": composed, "difference": diff}


def _apply_composed_trace(e: LedgerExpr, a4: str, log: list) -> None:
    """A4: reduce the composed-trace pairing R_RBAR."""
    k = e.pop_term("R_RBAR")
    if k == 0:
        return
    expansion = a4_variants()[a4]
    for key, v in expansion.coeffs.items():
        e.add_term(key, k * v)
    log.append(f"A4[{a4}]: R_RBAR expanded")


def _complete_square(e: LedgerExpr, log: list) -> None:
    """Exact rewrite NORM_DDH - 3 IP_DDH_RRING + 2 NORM_RRING
    = NORM_DDH_SHIFT - (1/4) NORM_RRING."""
    import sympy as sp

    a = e.pop_term("NORM_DDH")
    b = e.pop_term("IP_DDH_RRING")
    if not _is_zero(b + 3 * a):
        raise ValueError("square completion expects the -3:1 bracket shape")
    e.add_term("NORM_DDH_SHIFT", a)
    e.add_term("NORM_RRING", -sp.Rational(9, 4) * a)
    log.append("square completion: NORM_DDH - 3 IP_DDH_RRING "
               "-> NORM_DDH_SHIFT - (9/4) NORM_RRING")


def quadratic_completion_checks() -> dict:
    """Exact verification of the two square completions over the abstract
    quadratic ring in (A, B, h).  Keys are monomials AA, AB, AH, BB, BH, HH.
    Returns both sides of each identity for test assertions."""
    import sympy as sp

    lam = _symbolic().SYM["lam"]
    bracket = {"AA": sp.Integer(1), "AB": sp.Integer(-3), "BB": sp.Integer(2),
               "AH": lam, "BH": -2 * lam}
    shift_sq = {"AA": sp.Integer(1), "AB": sp.Integer(-3),
                "BB": sp.Rational(9, 4)}
    completion1 = dict(shift_sq)
    completion1["BB"] = completion1["BB"] - sp.Rational(1, 4)
    completion1["AH"] = lam
    completion1["BH"] = -2 * lam

    shift2_sq = {"AA": sp.Integer(1), "AB": sp.Integer(-3),
                 "BB": sp.Rational(9, 4), "AH": 2 * lam, "BH": -3 * lam,
                 "HH": lam**2}
    berger = {"AH": lam, "BH": -lam, "HH": lam**2}
    completion2 = {}
    for key in set(shift2_sq) | set(berger):
        completion2[key] = sp.expand(
            shift2_sq.get(key, 0) - berger.get(key, 0)
        )
    completion2["BB"] = sp.expand(completion2.get("BB", 0) - sp.Rational(1, 4))
    return {
        "bracket": bracket,
        "completion_compact": {k: sp.expand(v) for k, v in completion1.items()},
        "completion_berger": {k: v for k, v in completion2.items() if v != 0},
    }


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def _compare(display: LedgerExpr, computed: LedgerExpr) -> list:
    """One row per basis id in either set: both coefficients in the
    canonical printed form and the exact MATCH flag."""
    import sympy as sp

    rows = []
    for key in [k for k in BASIS if k in display.coeffs or k in computed.coeffs]:
        d = sp.expand(display.coefficient(key))
        v = sp.expand(computed.coefficient(key))
        rows.append({
            "term": key,
            "display": sp.sstr(d),
            "claimed": d,
            "computed": v,
            "match": _is_zero(d - v),
        })
    return rows


def _half_expression(rr_coeff) -> LedgerExpr:
    """The trace-free half expression both trace-free chains start from,
    with exterior-pairing coefficient ``rr_coeff``."""
    c, n, tau, lam, mu, R2 = _symbolic().symbols
    return LedgerExpr({
        "NORM_DDH": 1,
        "IP_DDH_RRING": -3,
        "NORM_RRING": 2,
        "IP_DDH_H": lam,
        "IP_RRING_H": -2 * lam,
        "NORM_H": R2 / n,
        "RR_KN": rr_coeff,
        "K_PAIR": 2,
        "R_RBAR": -4,
    })


def tt_display_compact() -> LedgerExpr:
    """Reference coefficient display for the compact trace-free chain: two
    derivative terms plus the certified remainder set."""
    sym = _symbolic()
    c, n, tau = sym.symbols[:3]
    return LedgerExpr({
        "NORM_DDH_SHIFT": 2,
        "NORM_DH": 2 * c * (n + 3 * tau - 3),
        **compact_tt_coefficients(sym.model),
    })


@dataclass
class TTExpansion:
    variant: str
    a4: str
    reduced: LedgerExpr
    display: LedgerExpr
    comparisons: list
    steps: list

    @property
    def mismatches(self) -> list:
        return [r for r in self.comparisons if not r["match"]]


def expand_theorem_tt(variant: str = "printed", a4: str = "printed") -> TTExpansion:
    """Reduce the trace-free second-variation expression to display form.

    variant='printed' takes the exterior-pairing coefficient as displayed
    in the bracketed form (1 per half-expression); variant='doubled_rr'
    doubles it, matching the corrected assembly of the unbracketed display.
    a4 picks the composed-trace reading, see ``a4_variants``.

    Either way the final coefficients of NORM_DDH_SHIFT, NORM_DH,
    NORM_RRING and K_PAIR agree with the reference display; the three
    h-term coefficients do not, and the comparison rows record that.
    """
    if variant not in ("printed", "doubled_rr"):
        raise ValueError(f"unknown variant {variant!r}")
    if a4 not in ("printed", "composed"):
        raise ValueError(f"unknown a4 reading {a4!r}")
    import sympy as sp

    sym = _symbolic()
    rr_coeff = sp.Integer(1 if variant == "printed" else 2)
    steps: list[str] = [f"start: half expression, RR_KN coefficient {rr_coeff}"]
    e = _half_expression(rr_coeff)
    _complete_square(e, steps)
    _apply_integration_by_parts(e, steps)
    _apply_kn_reduction(e, steps)
    _apply_composed_trace(e, a4, steps)
    _apply_curvature_action(e, steps)
    e = e.substituted(sym.LAM_RULE).scaled(2).simplified()
    steps.append("substitute lam -> c(3 tau + n - 1), double")
    display = tt_display_compact()
    return TTExpansion(variant=variant, a4=a4, reduced=e, display=display,
                       comparisons=_compare(display, e), steps=steps)


@dataclass
class ConformalExpansion:
    assembly: str
    coefficients: LedgerExpr
    reference: LedgerExpr
    comparisons: list
    pieces: dict
    notes: list

    def polynomial(self):
        """Value as a quadratic in mu, using Laplace pairs
        NORM_DELTAF = mu^2 NORM_F, NORM_DF = mu NORM_F (unit NORM_F)."""
        import sympy as sp

        mu = _symbolic().SYM["mu"]
        co = self.coefficients
        return sp.expand(
            co.coefficient("NORM_DELTAF") * mu**2
            + co.coefficient("NORM_DF") * mu
            + co.coefficient("NORM_F")
        )


def expand_theorem_conformal(assembly: str = "corrected") -> ConformalExpansion:
    """Reduce the pure-trace (conformal) second variation to a quadratic in
    the Laplace eigenvalue.

    assembly='corrected' uses the exterior-pairing coefficient 4 in the
    unbracketed display (the value forced by self-consistency); the result
    reproduces the reference polynomial q(mu)
    (``hessian.conformal_coefficients``) exactly.  assembly='printed' keeps
    the displayed coefficient 2 and lands on -4 lam and (3 - n) R2 instead;
    the comparison rows record the two mismatches as a finding.
    """
    if assembly not in ("corrected", "printed"):
        raise ValueError(f"unknown assembly {assembly!r}")
    c, n, tau, lam, mu, R2 = _symbolic().symbols
    notes = []
    # variation pieces for h = f g, recorded as (DELTAF, DF, F) coefficients
    pieces = {
        "trace_response": LedgerExpr({"NORM_DELTAF": 2 * (n - 1)}),
        "einstein_shift": LedgerExpr({"NORM_DF": -4 * lam * n}),
        "norm_coupling": LedgerExpr({"NORM_F": 2 * R2}),
        "scalar_derivative": LedgerExpr({"NORM_DF": 2 * lam * n,
                                         "NORM_F": -n * R2}),
        "hessian_trace": LedgerExpr({"NORM_DF": 2 * lam * n}),
    }
    # A7: the curvature-derivative pairing equals 4 lam NORM_DF - R2 NORM_F;
    # it enters with weight -2 in the corrected assembly, -1 in the printed.
    weight = -2 if assembly == "corrected" else -1
    pieces["curvature_block"] = LedgerExpr({
        "NORM_DF": weight * 4 * lam,
        "NORM_F": -weight * R2,
    })
    if assembly == "printed":
        notes.append(
            "exterior-pairing coefficient kept at its displayed value; the "
            "curvature block is then half of the self-consistent one"
        )
    notes.append(
        "the intermediate claim that the first two pieces alone make up the "
        "mu^2 term is off (the Einstein shift is nonzero); the assembled "
        "total is still correct because the shift cancels against the "
        "scalar-derivative and hessian-trace pieces"
    )
    total = LedgerExpr({})
    for p in pieces.values():
        for k, v in p.coeffs.items():
            total.add_term(k, v)
    total = total.simplified()
    reference = LedgerExpr(dict(zip(("NORM_DELTAF", "NORM_DF", "NORM_F"),
                                    conformal_coefficients(n, lam, R2))))
    return ConformalExpansion(
        assembly=assembly,
        coefficients=total,
        reference=reference,
        comparisons=_compare(reference, total),
        pieces=pieces,
        notes=notes,
    )


@dataclass
class NoncompactChain:
    claimed: LedgerExpr
    derived: LedgerExpr
    comparisons: list
    inequality_log: list
    steps: list


def noncompact_chain() -> NoncompactChain:
    """Lower-bound chain for trace-free variations at negative curvature
    scale.  Nonnegative terms are dropped (each drop is logged with the
    hypothesis it needs); the exterior pairing is kept unreduced.

    The derived remainder agrees with the reference display on NORM_RRING,
    K_PAIR and RR_KN and disagrees on all three h-term coefficients.
    """
    import sympy as sp

    sym = _symbolic()
    lam = sym.SYM["lam"]
    steps: list[str] = ["start: half expression, RR_KN kept unreduced"]
    e = _half_expression(1)
    # Berger completion: bracket + lam terms
    #   = SHIFT2 - lam BERGER_IP - (1/4) NORM_RRING   (exact)
    expected = {"NORM_DDH": sp.Integer(1), "IP_DDH_RRING": sp.Integer(-3),
                "IP_DDH_H": lam, "IP_RRING_H": -2 * lam}
    for key, want in expected.items():
        if not _is_zero(e.pop_term(key) - want):
            raise ValueError(f"Berger completion expects {key} = {want}")
    e.add_term("NORM_RRING", -2)  # 2 from the bracket is replaced
    e.add_term("NORM_RRING", sp.Rational(-1, 4))
    e.add_term("SHIFT2", 1)
    e.add_term("BERGER_IP", -lam)
    steps.append("Berger completion: bracket -> SHIFT2 - lam BERGER_IP "
                 "- (1/4) NORM_RRING")

    inequality_log = [
        {"term": "SHIFT2", "coefficient": sp.Integer(2),
         "dropped": True, "needs": "none (a square)"},
        {"term": "BERGER_IP", "coefficient": -2 * lam, "dropped": True,
         "needs": "c < 0 and nonnegativity of the completed pairing"},
    ]
    e.pop_term("SHIFT2")
    e.pop_term("BERGER_IP")
    steps.append("drop SHIFT2 (square) and -lam BERGER_IP (c < 0)")

    _apply_composed_trace(e, "printed", steps)
    k_dh = e.pop_term("NORM_DH")
    inequality_log.append({
        "term": "NORM_DH", "coefficient": sp.expand(2 * k_dh),
        "dropped": True, "needs": "c < 0 (coefficient -4c is then positive)",
    })
    steps.append("drop -2c NORM_DH (c < 0)")
    _apply_curvature_action(e, steps)
    e = e.substituted(sym.LAM_RULE).scaled(2).simplified()
    steps.append("substitute lam -> c(3 tau + n - 1), double")

    claimed = LedgerExpr(noncompact_tt_coefficients(sym.model))
    return NoncompactChain(
        claimed=claimed,
        derived=e,
        comparisons=_compare(claimed, e),
        inequality_log=inequality_log,
        steps=steps,
    )


# ---------------------------------------------------------------------------
# identity catalog
# ---------------------------------------------------------------------------

@dataclass
class IdentityCheck:
    id: str
    tier: str  # "required" or "report"
    description: str
    evaluate: callable = field(repr=False)  # (model, rng) -> dict
    input_free: bool = False


def _unit_tt(nn: int, rng: np.random.Generator):
    h = random_symtensor(nn, seed=int(rng.integers(0, 2**31)), trace_free=True)
    return h.entries / np.sqrt(h.norm2())


def _unit_curvature(nn: int, rng: np.random.Generator):
    R1 = random_curvature(nn, seed=int(rng.integers(0, 2**31)))
    return R1.entries / np.sqrt(R1.norm2())


def _pair_vectors(model) -> list:
    return [pair_vector(J.T) for J in model.J.operators]


def _omega_pair(model, a: int, b: int) -> np.ndarray:
    nn, m = model.n, model.n // (model.tau + 1)
    W = np.zeros((nn, nn))
    for i in range(m):
        W[a * m + i, b * m + i] = 1.0
        W[b * m + i, a * m + i] = -1.0
    return pair_vector(W)


def _ev_curvature_action_affine(model, rng):
    nn = model.n
    h = random_symtensor(nn, seed=int(rng.integers(0, 2**31)), trace_free=False)
    h = h.entries / np.sqrt(h.norm2())
    lhs = r_ring(model.R, h).entries
    rhs = (3 * model.c * tilde(h, model.J).entries - model.c * h
           + model.c * np.trace(h) * np.eye(nn))
    scale = max(1.0, float(np.max(np.abs(lhs))))
    return {"residual": float(np.max(np.abs(lhs - rhs))) / scale}


def _ev_compose_structure(model, rng):
    P = to_lambda2(model.R).matrix
    P1 = to_lambda2(random_curvature(model.n, seed=int(rng.integers(0, 2**31)))).matrix
    P1 = P1 / max(1.0, np.linalg.norm(P1))
    rhs = P1.copy()
    for J, om in zip(model.J.operators, _pair_vectors(model)):
        rhs = rhs + lambda2_pushforward(J) @ P1 + 2.0 * np.outer(om, om @ P1)
    rhs *= model.c
    lhs = P @ P1
    scale = max(1.0, float(np.max(np.abs(lhs))))
    return {"residual": float(np.max(np.abs(lhs - rhs))) / scale}


def _ev_compose_self_structure(model, rng):
    P = to_lambda2(model.R).matrix
    rhs = P.copy()
    for a in range(model.tau + 1):
        for b in range(a + 1, model.tau + 1):
            om = _omega_pair(model, a, b)
            rhs = rhs + np.outer(om, om @ P)
    rhs *= model.c * (model.tau + 1)
    scale = max(1.0, float(np.max(np.abs(P @ P))))
    return {"residual": float(np.max(np.abs(P @ P - rhs))) / scale}


def _ev_norm_closed_form(model, rng):
    claimed = norm2_closed_claimed(model.n, model.tau, model.c)
    direct = model.R_norm2
    return {
        "residual": abs(direct - claimed) / max(1.0, abs(direct)),
        "direct": direct,
        "closed_form": claimed,
    }


def _ev_kn_pairing_reduction(model, rng):
    nn = model.n
    h = _unit_tt(nn, rng)
    lhs = rr_kn_pairing(model.R, h)
    rhs = (model.c * (nn + model.tau + 1) * sym_inner(r_ring(model.R, h).entries, h)
           + 4.0 * model.c**2 * nn)
    return {"residual": abs(lhs - rhs) / max(1.0, abs(lhs)),
            "lhs": lhs, "rhs": rhs}


def _ev_compose_ricci_trace(model, rng):
    # The display weights the pairing term by 1/2; taking the trace of the
    # (verified) composition identity instead gives weight 1.  Both residuals
    # are reported; the outcome follows the display.
    nn = model.n
    R1 = _unit_curvature(nn, rng)
    x = rng.standard_normal(nn)
    x /= np.linalg.norm(x)
    R1c = CurvTensor4(R1, algebraic=False)
    _, composed = compose_and_ricci(model.R, R1c)
    lhs = x @ composed.entries @ x
    base = model.c * (x @ ricci(R1c).entries @ x)
    sum1 = sum2 = 0.0
    for J in model.J.operators:
        y = J @ x
        sum1 += np.einsum("i,k,la,iakl->", x, y, J, R1, optimize=True)
        sum2 += np.einsum("i,j,la,ijal->", x, y, J, R1, optimize=True)
    rhs = base + model.c * (sum1 + 0.5 * sum2)
    rhs_corrected = base + model.c * (sum1 + sum2)
    return {
        "residual": abs(lhs - rhs) / max(1.0, abs(lhs)),
        "residual_corrected": abs(lhs - rhs_corrected) / max(1.0, abs(lhs)),
    }


def _ev_k_pairing_closed_form(model, rng):
    nn = model.n
    h = _unit_tt(nn, rng)
    lhs = k_pairing(model.R, h)
    hplus = tilde(h, model.J).entries + h
    base = ((nn + 10 * (model.tau + 1)) * sym_inner(hplus, hplus)
            + 4.0 * np.trace(hplus) ** 2)
    return {
        "residual": abs(lhs - base) / max(1.0, abs(lhs)),
        "residual_rescaled": abs(lhs - model.c**2 * base) / max(1.0, abs(lhs)),
        "lhs": lhs,
    }


def _ev_tilde_norm_relation(model, rng):
    h = _unit_tt(model.n, rng)
    ht = tilde(h, model.J)
    t = model.tau
    lhs = t * sym_inner(h, h) + 2 * t * sym_inner(h, ht)
    rhs = sym_inner(ht, ht)
    return {"residual": abs(lhs - rhs), "lhs": lhs, "rhs": rhs}


def identity_catalog() -> dict:
    """Named identities with independent numeric evaluators.

    required: a model is certified against these; any failure is surfaced
    as a nonzero exit in the command-line verifier.
    report: failures are recorded as findings only.
    """
    entries = [
        IdentityCheck(
            id="curvature-action-affine",
            tier="required",
            description="curvature action on symmetric tensors is the "
                        "affine combination 3c ht - c h + c tr(h) g",
            evaluate=_ev_curvature_action_affine,
        ),
        IdentityCheck(
            id="compose-structure",
            tier="required",
            description="composition with the model operator decomposes "
                        "through the structure pushforwards and pair forms",
            evaluate=_ev_compose_structure,
        ),
        IdentityCheck(
            id="compose-self-structure",
            tier="required",
            description="self-composition of the model operator in terms "
                        "of the paired structure forms",
            evaluate=_ev_compose_self_structure,
            input_free=True,
        ),
        IdentityCheck(
            id="norm-closed-form",
            tier="required",
            description="closed form for the squared curvature norm",
            evaluate=_ev_norm_closed_form,
            input_free=True,
        ),
        IdentityCheck(
            id="kn-pairing-reduction",
            tier="required",
            description="reduction of the exterior pairing to the "
                        "curvature action plus a norm multiple",
            evaluate=_ev_kn_pairing_reduction,
        ),
        IdentityCheck(
            id="compose-ricci-trace",
            tier="required",
            description="trace of a composed operator via structure "
                        "contractions of the second factor",
            evaluate=_ev_compose_ricci_trace,
        ),
        IdentityCheck(
            id="k-pairing-closed-form",
            tier="report",
            description="closed form for the quadratic curvature pairing "
                        "in terms of the structure average",
            evaluate=_ev_k_pairing_closed_form,
        ),
        IdentityCheck(
            id="tilde-norm-relation",
            tier="report",
            description="pointwise relation between a tensor, its "
                        "structure average, and their norms",
            evaluate=_ev_tilde_norm_relation,
        ),
    ]
    return {e.id: e for e in entries}


def verify_identity_numeric(lemma_id: str, model, trials: int = 16,
                            seed: int = 0, tol: float = 1e-8) -> dict:
    """Run random trials of one catalog identity on a model.

    Returns a finding dict with the worst residual, PASS/FAIL outcome, and
    trial bookkeeping.  A FAIL is a recorded finding, never an exception.
    """
    catalog = identity_catalog()
    if lemma_id not in catalog:
        raise KeyError(f"unknown identity {lemma_id!r}")
    entry = catalog[lemma_id]
    rng = np.random.default_rng(seed)
    runs = 1 if entry.input_free else max(1, trials)
    worst = 0.0
    details: dict = {}
    for _ in range(runs):
        out = entry.evaluate(model, rng)
        if out["residual"] > worst:
            worst = out["residual"]
            details = {k: v for k, v in out.items() if k != "residual"}
    finding = {
        "id": lemma_id,
        "tier": entry.tier,
        "model": model.label,
        "residual": worst,
        "outcome": "PASS" if worst <= tol else "FAIL",
        "trials": runs,
        "seed": seed,
        "tol": tol,
    }
    if details:
        finding["details"] = details
    return finding
