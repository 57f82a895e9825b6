"""Symbolic bookkeeping for second-variation reductions, plus a catalog of
numerically checkable identities.

The reduction engine works over a fixed basis of scalar quantities built
from a trace-free symmetric variation h on one of the curvature models
(norms, inner products, and curvature pairings).  A reduction is a linear
combination of basis ids with exact coefficients in the symbols

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

The two trace-free chains start from the half expression and apply named
rewrites from one table (``_rewrites``): integration by parts A1, the
curvature action A2, the exterior-pairing reduction A3, the two readings
of the composed trace A4, and the square and Berger completions.  One
function, ``_rewrite``, applies an entry.  The conformal chain applies no
rewrite: it sums its variation pieces, with the curvature-derivative
pairing A7 written inline.  The checks read the same table:
``quadratic_completion_checks`` verifies both completions from their
entries, and the catalog evaluators of A2 and A3 call the coefficient
functions the table is built from, so a checked rule is the applied rule.

Each chain returns the independently derived coefficient set next to the
reference display it is checked against, with per-term match flags.  A
mismatch is recorded as a finding; the derived set is never altered to
force agreement.  The reference displays are the coefficient functions
``hessian`` certifies with, called on the symbols; ``LAM_RULE`` and the
norm closed form are the ``models`` functions.

Every coefficient is a polynomial in c, tau, lam, mu, R2 and 1/n with
rational coefficients, and is held as one: a ``laurent.Laurent``, a dict
from exponent tuples to non-zero Fractions.  The symbols in ``SYM`` are its
generators, and ``LAM_RULE`` substitutes the ``models`` Einstein constant
for lam.  That form is canonical, which gives two exact rules:

  zero test        a coefficient is zero exactly when its dict is empty, so
                   a == b decides equality exactly.  It decides every
                   MATCH/MISMATCH flag, the rewrite checks and the square
                   completions.
  printed form     str: the sum of monomials with integer or rational
                   coefficients, in sympy's ``sstr`` order and spelling, so
                   equal coefficients print equally.

Only stdlib ``fractions`` is imported for this: no command loads sympy.

The identity catalog at the bottom pairs each named identity with an
independent numeric evaluator on concrete models; ``verify_identity_numeric``
drives random trials and reports PASS/FAIL without aborting on failure.
The evaluators read a model only through the nonzeros of R and the (pi, s)
of its structure operators, from arrays built once per model
(``_catalog_arrays``; the curvature action and structure average are the
trace-free form's maps), and work in the pair basis of 2-vectors: a random
curvature tensor is drawn there (``tensors.random_curvature_lambda2``).
So no trial makes an n^4 array.  The products with R's pair-basis matrix
P are dense GEMMs of about n^6 / 8 steps; at n = 16, 40 and 64 each took
less time than one O(n^4) draw.
Both sides of an identity of degree k in c scale as |c|^k, and its residual
is relative to max(|c|^k, max |lhs|) (``_residual``), so residuals and
outcomes are the same at every curvature scale.  The one exception is the
literal k-pairing display, which pairs a degree-2 side with a degree-0 one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from crosscurv.hessian import (
    _term_entries,
    compact_tt_coefficients,
    conformal_coefficients,
    noncompact_tt_coefficients,
)
from crosscurv.laurent import GENERATORS, Laurent
from crosscurv.models import einstein_constant, norm2_closed_claimed
from crosscurv.tensors import (
    _bianchi_entries,
    _pair_index,
    _pair_lookup,
    random_curvature_lambda2,
    random_symtensor,
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
    "verify_catalog",
    "quadratic_completion_checks",
]


SYM = {name: Laurent.generator(name) for name in GENERATORS}
#: the ledger symbols, unpacked as ``c, n, tau, lam, mu, R2``
_SYMBOLS = tuple(SYM[k] for k in ("c", "n", "tau", "lam", "mu", "R2"))
LAM_RULE = {SYM["lam"]: einstein_constant(SYM["n"], SYM["tau"], SYM["c"])}
_ZERO = Laurent()


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
    """Linear combination of basis quantities with exact coefficients:
    ``Laurent`` polynomials, into which int and Fraction values convert
    (any other value raises TypeError); zero coefficients drop."""

    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for k, v in self.coeffs.items():
            if k not in BASIS:
                raise KeyError(f"unknown basis id {k!r}")
            if v := Laurent.of(v):
                clean[k] = v
        self.coeffs = clean

    def copy(self) -> "LedgerExpr":
        return LedgerExpr(dict(self.coeffs))

    def add_term(self, key: str, coeff) -> None:
        if key not in BASIS:
            raise KeyError(f"unknown basis id {key!r}")
        if v := self.coefficient(key) + Laurent.of(coeff):
            self.coeffs[key] = v
        else:
            self.coeffs.pop(key, None)

    def pop_term(self, key: str) -> Laurent:
        return self.coeffs.pop(key, _ZERO)

    def scaled(self, factor) -> "LedgerExpr":
        factor = Laurent.of(factor)
        return LedgerExpr({k: factor * v for k, v in self.coeffs.items()})

    def substituted(self, rules) -> "LedgerExpr":
        return LedgerExpr({k: v.subs(rules) for k, v in self.coeffs.items()})

    def coefficient(self, key: str) -> Laurent:
        return self.coeffs.get(key, _ZERO)


# ---------------------------------------------------------------------------
# rewrite table
# ---------------------------------------------------------------------------

def _curvature_action_coefficients(c):
    """A2: on a symmetric h the curvature action is the affine combination
    B = 3c ht - c h + c tr(h) g; returns the coefficients of ht, h and
    tr(h) g.  On trace-free h the last term drops."""
    return 3 * c, -c, c


def _kn_reduction_coefficients(n, tau, c):
    """A3: the claimed reduction <R o R, h ^ h> = c (n + tau + 1) <B, h>
    + 4 c^2 n |h|^2; returns the coefficients of <B, h> and |h|^2."""
    return c * (n + tau + 1), 4 * c**2 * n


def a4_variants() -> dict:
    """The two readings of the composed-trace reduction A4.

    'printed' is the displayed coefficient set.  'composed' is what direct
    composition of the constituent reductions yields; it differs from the
    printed set by exactly + c * IP_RRING_HTILDE (their NORM_H parts agree
    after expanding lam).
    """
    c, n, tau, lam, mu, R2 = _SYMBOLS
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
        k: composed.coefficient(k) - printed.coefficient(k)
        for k in set(printed.coeffs) | set(composed.coeffs)
    })
    return {"printed": printed, "composed": composed, "difference": diff}


def _bracket() -> dict:
    """The bracket NORM_DDH - 3 IP_DDH_RRING + 2 NORM_RRING + lam IP_DDH_H
    - 2 lam IP_RRING_H that opens the half expression."""
    lam = SYM["lam"]
    return {"NORM_DDH": 1, "IP_DDH_RRING": -3, "NORM_RRING": 2,
            "IP_DDH_H": lam, "IP_RRING_H": -2 * lam}


@lru_cache(maxsize=None)
def _rewrites() -> dict:
    """The rewrite table: name -> (lhs, rhs), each a dict of basis id ->
    coefficient, read as lhs = rhs.  The first lhs term has coefficient 1.

    The chains apply these entries through ``_rewrite`` and
    ``quadratic_completion_checks`` verifies the two completions from the
    same entries.  A2 is used only inside inner products against h and ht,
    never on NORM_RRING.  A3 fails numerically on every model (catalog entry
    kn-pairing-reduction) and is carried by the chain anyway.
    """
    c, n, tau, lam, mu, R2 = _SYMBOLS
    on_ht, on_h, _ = _curvature_action_coefficients(c)
    on_b, on_norm = _kn_reduction_coefficients(n, tau, c)
    a4 = a4_variants()
    return {
        "A1": ({"IP_DDH_H": 1}, {"NORM_DH": 1}),
        "A2[h]": ({"IP_RRING_H": 1}, {"IP_H_HTILDE": on_ht, "NORM_H": on_h}),
        "A2[ht]": ({"IP_RRING_HTILDE": 1},
                   {"NORM_HTILDE": on_ht, "IP_H_HTILDE": on_h}),
        "A3": ({"RR_KN": 1}, {"IP_RRING_H": on_b, "NORM_H": on_norm}),
        "A4[printed]": ({"R_RBAR": 1}, a4["printed"].coeffs),
        "A4[composed]": ({"R_RBAR": 1}, a4["composed"].coeffs),
        "square completion": ({"NORM_DDH": 1, "IP_DDH_RRING": -3},
                              {"NORM_DDH_SHIFT": 1,
                               "NORM_RRING": Fraction(-9, 4)}),
        "Berger completion": (_bracket(),
                              {"SHIFT2": 1, "BERGER_IP": -lam,
                               "NORM_RRING": Fraction(-1, 4)}),
    }


def _rewrite(e: LedgerExpr, name: str, log: list) -> None:
    """Apply table entry ``name`` to e in place.

    k is e's coefficient of the first lhs term; every other lhs term of e
    must be exactly k times its lhs coefficient.  The lhs terms are removed
    and k times the rhs is added; nothing is logged when k is 0.
    """
    lhs, rhs = _rewrites()[name]
    first, *rest = lhs
    k = e.coefficient(first)
    for key in rest:
        if e.coefficient(key) != k * lhs[key]:
            raise ValueError(f"{name} expects {key} = {k * lhs[key]}")
    for key in lhs:
        e.pop_term(key)
    if k:
        for key, v in rhs.items():
            e.add_term(key, k * v)
        log.append(f"{name}: {', '.join(lhs)} -> {', '.join(rhs)}")


def _over_ring(e: LedgerExpr) -> dict:
    """e expanded over the abstract quadratic ring in (A, B, h), by the
    definitions of the basis quantities; keys are the monomials AA, AB, AH,
    BB, BH, HH, and zero monomials drop."""
    lam = SYM["lam"]
    shift = {"AA": 1, "AB": -3, "BB": Fraction(9, 4)}  # |A - (3/2) B|^2
    ring = {
        "NORM_DDH": {"AA": 1},
        "IP_DDH_RRING": {"AB": 1},
        "NORM_RRING": {"BB": 1},
        "IP_DDH_H": {"AH": 1},
        "IP_RRING_H": {"BH": 1},
        "NORM_DDH_SHIFT": shift,
        "SHIFT2": {**shift, "AH": 2 * lam, "BH": -3 * lam, "HH": lam**2},
        "BERGER_IP": {"AH": 1, "BH": -1, "HH": lam},
    }
    out: dict = {}
    for key, k in e.coeffs.items():
        for mono, v in ring[key].items():
            out[mono] = out.get(mono, 0) + k * v
    return {mono: v for mono, v in out.items() if v}


def quadratic_completion_checks() -> dict:
    """Exact verification of the two square completions of the rewrite
    table: each is applied to the bracket of the half expression and both
    sides are expanded over the quadratic ring in (A, B, h) (``_over_ring``).
    Returns the bracket and both completions for test assertions."""
    bracket = LedgerExpr(_bracket())
    out = {"bracket": _over_ring(bracket)}
    for key, name in (("completion_compact", "square completion"),
                      ("completion_berger", "Berger completion")):
        e = bracket.copy()
        _rewrite(e, name, [])
        out[key] = _over_ring(e)
    return out


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def _compare(display: LedgerExpr, computed: LedgerExpr) -> list:
    """One row per basis id in either set: both coefficients, the
    displayed one printed, and the exact MATCH flag."""
    rows = []
    for key in [k for k in BASIS if k in display.coeffs or k in computed.coeffs]:
        d = display.coefficient(key)
        v = computed.coefficient(key)
        rows.append({
            "term": key,
            "display": str(d),
            "claimed": d,
            "computed": v,
            "match": d == v,
        })
    return rows


def _half_expression(rr_coeff) -> LedgerExpr:
    """The trace-free half expression both trace-free chains start from,
    with exterior-pairing coefficient ``rr_coeff``."""
    c, n, tau, lam, mu, R2 = _SYMBOLS
    return LedgerExpr({
        **_bracket(),
        "NORM_H": R2 / n,
        "RR_KN": rr_coeff,
        "K_PAIR": 2,
        "R_RBAR": -4,
    })


def tt_display_compact() -> LedgerExpr:
    """Reference coefficient display for the compact trace-free chain: two
    derivative terms plus the certified remainder set."""
    c, n, tau, _, _, R2 = _SYMBOLS
    return LedgerExpr({
        "NORM_DDH_SHIFT": 2,
        "NORM_DH": 2 * c * (n + 3 * tau - 3),
        **compact_tt_coefficients(n, tau, c, R2),
    })


@dataclass
class TTExpansion:
    variant: str
    a4: str
    reduced: LedgerExpr
    display: LedgerExpr
    comparisons: list
    steps: list


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
    rr_coeff = 1 if variant == "printed" else 2
    steps: list[str] = [f"start: half expression, RR_KN coefficient {rr_coeff}"]
    e = _half_expression(rr_coeff)
    for name in ("square completion", "A1", "A3", f"A4[{a4}]", "A2[h]",
                 "A2[ht]"):
        _rewrite(e, name, steps)
    e = e.substituted(LAM_RULE).scaled(2)
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
        mu = SYM["mu"]
        co = self.coefficients
        return (co.coefficient("NORM_DELTAF") * mu**2
                + co.coefficient("NORM_DF") * mu
                + co.coefficient("NORM_F"))


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
    c, n, tau, lam, mu, R2 = _SYMBOLS
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
    steps: list[str] = ["start: half expression, RR_KN kept unreduced"]
    e = _half_expression(1)
    _rewrite(e, "Berger completion", steps)
    _rewrite(e, "A4[printed]", steps)
    inequality_log = []
    for term, needs in (
        ("SHIFT2", "none (a square)"),
        ("BERGER_IP", "c < 0 and nonnegativity of the completed pairing"),
        ("NORM_DH", "c < 0 (coefficient -4c is then positive)"),
    ):
        inequality_log.append({
            "term": term, "coefficient": 2 * e.pop_term(term),
            "dropped": True, "needs": needs,
        })
        steps.append(f"drop {term}: {needs}")
    for name in ("A2[h]", "A2[ht]"):
        _rewrite(e, name, steps)
    e = e.substituted(LAM_RULE).scaled(2)
    steps.append("substitute lam -> c(3 tau + n - 1), double")

    c, n, tau, _, _, R2 = _SYMBOLS
    claimed = LedgerExpr(noncompact_tt_coefficients(n, tau, c, R2))
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
    return h / np.sqrt(np.sum(h * h))


def _unit_curvature(nn: int, rng: np.random.Generator):
    """The pair-basis matrix P1 of a random curvature tensor R1 of unit
    norm: |R1|^2 = 4 |P1|^2."""
    seed = int(rng.integers(0, 2**31))
    P1 = random_curvature_lambda2(nn, seed=seed)
    return P1 / (2.0 * np.linalg.norm(P1))


def _wedge_columns(x: np.ndarray) -> np.ndarray:
    """The N x n matrix whose column a is x ^ e_a in the pair basis:
    x_i at the pair (i, a) for i < a, -x_j at the pair (a, j) for a < j."""
    n = x.size
    ii, jj = _pair_index(n)
    out = np.zeros((ii.size, n))
    at = np.arange(ii.size)
    out[at, jj] = x[ii]
    out[at, ii] = -x[jj]
    return out


@lru_cache(maxsize=1)
def _catalog_arrays(model) -> SimpleNamespace:
    """What the identity catalog reads of a model, built once per model
    from the nonzeros of R (``R_keys``, ``R_values``) and the (pi, s) of
    the structure operators (``J.perms``), so that no trial makes an n^4
    array.  The cache is keyed on the model
    object, so a model must not be changed in place after its catalog
    runs.  The arrays:

    terms    the entry lists (rows, columns, values) on vec(h) that the
             trace-free form is assembled from (``hessian._term_entries``),
             at the model's scale: the curvature action L (IP_RRING_H) and
             the structure average G (IP_H_HTILDE), which ``_apply``
             applies to h, and the K_PAIR and RR_KN pairings;
    P        the pair-basis matrix of R, scattered from its nonzeros;
    push     per J, the pushforward on 2-vectors, a signed permutation of
             the pairs, as (src, sign): (Lambda^2 J) X = sign X[src] by rows;
    omega    the N x tau matrix of the pair vectors of the J^T;
    omega_pairs
             the N x tau (tau + 1) / 2 matrix of the unit-pair forms of
             compose-self-structure.
    """
    n = model.n
    nz = (*np.unravel_index(model.R_keys, (n,) * 4), model.R_values)
    i0, i1, i2, i3, v = nz
    ii, jj = _pair_index(n)
    N = ii.size
    pair = _pair_lookup(n)
    upper = (i0 < i1) & (i2 < i3)
    rows, cols = pair[i0[upper], i1[upper]], pair[i2[upper], i3[upper]]
    vals = v[upper]
    P = np.zeros((N, N))
    P[rows, cols] = vals
    push, omega = [], np.zeros((N, model.tau))
    for a, (pi, s) in enumerate(model.J.perms):
        src, sign = np.empty(N, dtype=np.intp), np.empty(N)
        dest = pair[pi[ii], pi[jj]]
        src[dest] = np.arange(N)
        sign[dest] = s[ii] * s[jj] * np.where(pi[ii] < pi[jj], 1.0, -1.0)
        push.append((src, sign))
        W = np.zeros((n, n))
        W[np.arange(n), pi] = s  # J^T[x, pi x] = s_x
        omega[:, a] = W[ii, jj]
    m = n // (model.tau + 1)
    units = [(a, b) for a in range(model.tau + 1)
             for b in range(a + 1, model.tau + 1)]
    omega_pairs = np.zeros((N, len(units)))
    for k, (a, b) in enumerate(units):
        omega_pairs[pair[a * m + np.arange(m), b * m + np.arange(m)], k] = 1.0
    terms = {key: _term_entries(model, key, nz)
             for key in ("IP_RRING_H", "IP_H_HTILDE", "K_PAIR", "RR_KN")}
    return SimpleNamespace(N=N, terms=terms, P=P, push=push, omega=omega,
                           omega_pairs=omega_pairs)


def _apply(arrays, key: str, h: np.ndarray) -> np.ndarray:
    """The map whose entry list is ``key``'s applied to a symmetric h,
    symmetrized: the curvature action B (IP_RRING_H) or the structure
    average ht (IP_H_HTILDE), whose dense copies are ``r_ring`` and
    ``tilde`` in the tests' oracle (``tests/dense_oracle.py``)."""
    rows, cols, w = arrays.terms[key]
    n = h.shape[0]
    out = np.bincount(rows, weights=w * h.ravel()[cols], minlength=n * n)
    out = out.reshape(n, n)
    return 0.5 * (out + out.T)


def _pairing(arrays, key: str, h: np.ndarray) -> float:
    """The K_PAIR or RR_KN pairing of h with itself, from its entry list."""
    rows, cols, w = arrays.terms[key]
    flat = h.ravel()
    return float(w @ (flat[rows] * flat[cols]))


def _residual(lhs, rhs, scale: float) -> float:
    """max |lhs - rhs| relative to max(scale, max |lhs|).

    ``scale`` is the natural size of an identity of degree k in c, |c|^k,
    so a residual, and with it the outcome, is the same at every curvature
    scale; at c = +-1 the divisor is max(1, max |lhs|).
    """
    gap = float(np.max(np.abs(np.subtract(lhs, rhs))))
    return gap / max(scale, float(np.max(np.abs(lhs))))


def _ev_curvature_action_affine(model, rng):
    nn = model.n
    arrays = _catalog_arrays(model)
    h = random_symtensor(nn, seed=int(rng.integers(0, 2**31)), trace_free=False)
    h = h / np.sqrt(np.sum(h * h))
    lhs = _apply(arrays, "IP_RRING_H", h)
    on_ht, on_h, on_trace = _curvature_action_coefficients(model.c)
    rhs = (on_ht * _apply(arrays, "IP_H_HTILDE", h) + on_h * h
           + on_trace * np.trace(h) * np.eye(nn))
    return {"residual": _residual(lhs, rhs, abs(model.c))}


def _ev_compose_structure(model, rng):
    arrays = _catalog_arrays(model)
    P1 = _unit_curvature(model.n, rng)
    rhs = P1 + 2.0 * arrays.omega @ (arrays.omega.T @ P1)
    for src, sign in arrays.push:
        rhs += sign[:, None] * P1[src]
    rhs *= model.c
    return {"residual": _residual(arrays.P @ P1, rhs, abs(model.c))}


def _ev_compose_self_structure(model, rng):
    arrays = _catalog_arrays(model)
    P, om = arrays.P, arrays.omega_pairs
    rhs = model.c * (model.tau + 1) * (P + om @ (om.T @ P))
    return {"residual": _residual(P @ P, rhs, model.c**2)}


def _ev_norm_closed_form(model, rng):
    claimed = norm2_closed_claimed(model.n, model.tau, model.c)
    direct = model.R_norm2
    return {
        "residual": _residual(direct, claimed, model.c**2),
        "direct": direct,
        "closed_form": claimed,
    }


def _ev_kn_pairing_reduction(model, rng):
    nn = model.n
    arrays = _catalog_arrays(model)
    h = _unit_tt(nn, rng)
    lhs = _pairing(arrays, "RR_KN", h)
    on_b, on_norm = _kn_reduction_coefficients(nn, model.tau, model.c)
    B = _apply(arrays, "IP_RRING_H", h)
    rhs = on_b * float(np.sum(B * h)) + on_norm  # |h|^2 = 1
    return {"residual": _residual(lhs, rhs, model.c**2),
            "lhs": lhs, "rhs": rhs}


def _ricci_trace_terms(model, P1: np.ndarray, x: np.ndarray) -> tuple:
    """The terms of compose-ricci-trace for the curvature tensor R1 with
    the pair-basis matrix P1 and a vector x: x Ric(R o R1) x, x Ric(R1) x,
    sum_J sum_a R1(x, e_a, J x, J e_a) and sum_J sum_a R1(x, J x, e_a,
    J e_a).

    Each is a contraction of P1.  With X the columns x ^ e_a
    (``_wedge_columns``) the first two are sum_a (x ^ e_a) P P1 (x ^ e_a)
    and sum_a (x ^ e_a) P1 (x ^ e_a); in the first J-sum y ^ J e_a is
    s_a y ^ e_{pi a} for y = J x, and the second is 2 (x ^ y) P1 omega_J.
    """
    arrays = _catalog_arrays(model)
    ii, jj = _pair_index(model.n)
    X = _wedge_columns(x)
    Z = P1 @ X
    P1_omega = P1 @ arrays.omega
    sum1 = sum2 = 0.0
    for a, (pi, s) in enumerate(model.J.perms):
        y = np.empty_like(x)
        y[pi] = s * x
        sum1 += float(np.sum(_wedge_columns(y)[:, pi] * s * Z))
        sum2 += 2.0 * float((x[ii] * y[jj] - x[jj] * y[ii]) @ P1_omega[:, a])
    return (float(np.sum(arrays.P @ X * Z)), float(np.sum(X * Z)),
            sum1, sum2)


def _ev_compose_ricci_trace(model, rng):
    # The display weights the pairing term by 1/2; taking the trace of the
    # (verified) composition identity instead gives weight 1.  Both residuals
    # are reported; the outcome follows the display.
    nn = model.n
    P1 = _unit_curvature(nn, rng)
    x = rng.standard_normal(nn)
    x /= np.linalg.norm(x)
    lhs, ricci1, sum1, sum2 = _ricci_trace_terms(model, P1, x)
    base = model.c * ricci1
    rhs = base + model.c * (sum1 + 0.5 * sum2)
    rhs_corrected = base + model.c * (sum1 + sum2)
    return {
        "residual": _residual(lhs, rhs, abs(model.c)),
        "residual_corrected": _residual(lhs, rhs_corrected, abs(model.c)),
    }


def _ev_k_pairing_closed_form(model, rng):
    nn = model.n
    arrays = _catalog_arrays(model)
    h = _unit_tt(nn, rng)
    lhs = _pairing(arrays, "K_PAIR", h)
    hplus = _apply(arrays, "IP_H_HTILDE", h) + h
    base = ((nn + 10 * (model.tau + 1)) * float(np.sum(hplus * hplus))
            + 4.0 * np.trace(hplus) ** 2)
    # lhs has degree 2 in c and the literal display degree 0, so only the
    # rescaled residual is the same at every scale
    return {
        "residual": _residual(lhs, base, model.c**2),
        "residual_rescaled": _residual(lhs, model.c**2 * base, model.c**2),
        "lhs": lhs,
    }


def _ev_tilde_norm_relation(model, rng):
    h = _unit_tt(model.n, rng)
    ht = _apply(_catalog_arrays(model), "IP_H_HTILDE", h)
    t = model.tau
    lhs = t * float(np.sum(h * h)) + 2 * t * float(np.sum(h * ht))
    rhs = float(np.sum(ht * ht))
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
    The details are those of the first trial whose scale-free residual
    (``residual_rescaled`` where the evaluator returns one, else
    ``residual``) is within a relative 1e-12 of the largest, so neither c
    nor rounding noise between tied trials picks the trial they describe;
    there are none when every scale-free residual is 0.

    ``trials`` below 1 raises ValueError before any draw is made.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    catalog = identity_catalog()
    if lemma_id not in catalog:
        raise KeyError(f"unknown identity {lemma_id!r}")
    entry = catalog[lemma_id]
    rng = np.random.default_rng(seed)
    runs = 1 if entry.input_free else trials
    outs = [entry.evaluate(model, rng) for _ in range(runs)]
    worst = max(out["residual"] for out in outs)
    free = [out.get("residual_rescaled", out["residual"]) for out in outs]
    worst_free = max(free)
    details: dict = {}
    if worst_free > 0:
        first = next(i for i, r in enumerate(free)
                     if r >= (1 - 1e-12) * worst_free)
        details = {k: v for k, v in outs[first].items() if k != "residual"}
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


def verify_catalog(model, trials: int = 16, seed: int = 0,
                   tol: float = 1e-8) -> list:
    """The findings of every catalog identity on a model, in catalog order
    (``verify_identity_numeric``).  The model's catalog arrays and the
    draw's 4-subset index arrays are released at the end, so a caller that
    goes on to other work does not hold them."""
    try:
        return [verify_identity_numeric(name, model, trials=trials,
                                        seed=seed, tol=tol)
                for name in identity_catalog()]
    finally:
        _catalog_arrays.cache_clear()
        _bianchi_entries.cache_clear()
