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
pairing A7 written inline.  The checks read the same table: the tests
verify both completions from their entries (``quadratic_completion_checks``
in ``tests/dense_oracle.py``), and the catalog evaluators of A2 and A3
call the coefficient functions the table is built from, so a checked rule
is the applied rule.

Each chain returns its comparison rows: per basis term, the reference
display's coefficient, the independently derived one and their exact match
flag (the conformal chain also keeps its derived coefficients, the
non-compact chain the log of its dropped terms).  A mismatch is recorded as
a finding; the derived set is never altered to force agreement.  The
reference displays are the coefficient functions ``hessian`` certifies
with, called on the symbols; ``LAM_RULE`` and the norm closed form are the
``models`` functions.

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
of its structure operators, from arrays that one call of
``verify_identity_numeric`` builds on first read and holds only while it
runs (``_CatalogArrays``; the curvature action and structure average are
the trace-free form's maps), and work in the pair basis of 2-vectors: a
random curvature tensor is drawn there (``tensors.random_curvature_lambda2``).
So no trial makes an n^4 array, and ``tensors`` keeps nothing between
calls: the call owns its pair and 4-subset tables too.  The products with
R's pair-basis matrix P are dense GEMMs of about n^6 / 8 steps; at n = 16,
40 and 64 each took less time than one O(n^4) draw.
The catalog runs on the model at c = sign(c), reading the keys, slot
arrays and values of R's nonzeros there (``CurvatureModel.R_unit``),
where a residual is relative to max(1, max |lhs|) (``_residual``), so
residuals and outcomes are the same at every scale; |c|^k is applied only
to the values a finding prints.  The one exception is the literal k-pairing
display, which pairs a degree-2 side with a degree-0 one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from crosscurv.hessian import (
    _require_count,
    _require_real,
    _term_entries,
    compact_tt_coefficients,
    conformal_coefficients,
    noncompact_tt_coefficients,
)
from crosscurv.laurent import GENERATORS, Laurent
from crosscurv.models import einstein_constant, norm2_closed_claimed
from crosscurv.tensors import (
    _bianchi_entries,
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

    The chains apply these entries through ``_rewrite``, and the tests'
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


def _rewrite(e: LedgerExpr, name: str) -> None:
    """Apply table entry ``name`` to e in place.

    k is e's coefficient of the first lhs term; every other lhs term of e
    must be exactly k times its lhs coefficient.  The lhs terms are removed
    and k times the rhs is added, which adds nothing when k is 0.
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
    comparisons: list


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
    e = _half_expression(1 if variant == "printed" else 2)
    for name in ("square completion", "A1", "A3", f"A4[{a4}]", "A2[h]",
                 "A2[ht]"):
        _rewrite(e, name)
    e = e.substituted(LAM_RULE).scaled(2)
    return TTExpansion(comparisons=_compare(tt_display_compact(), e))


@dataclass
class ConformalExpansion:
    coefficients: LedgerExpr
    comparisons: list

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
    # A7: the curvature-derivative pairing equals 4 lam NORM_DF - R2 NORM_F;
    # it enters with weight -2 in the corrected assembly, -1 in the printed,
    # which keeps the exterior-pairing coefficient at its displayed value and
    # so makes the curvature block half of the self-consistent one.
    weight = -2 if assembly == "corrected" else -1
    # variation pieces for h = f g.  The intermediate claim that the first
    # two alone make up the mu^2 term is off (the Einstein shift is nonzero);
    # the total is still correct because the shift cancels against the
    # scalar-derivative and hessian-trace pieces.
    pieces = (
        {"NORM_DELTAF": 2 * (n - 1)},                  # trace response
        {"NORM_DF": -4 * lam * n},                     # Einstein shift
        {"NORM_F": 2 * R2},                            # norm coupling
        {"NORM_DF": 2 * lam * n, "NORM_F": -n * R2},   # scalar derivative
        {"NORM_DF": 2 * lam * n},                      # hessian trace
        {"NORM_DF": weight * 4 * lam, "NORM_F": -weight * R2},  # curvature
    )
    total = LedgerExpr({})
    for p in pieces:
        for k, v in p.items():
            total.add_term(k, v)
    reference = LedgerExpr(dict(zip(("NORM_DELTAF", "NORM_DF", "NORM_F"),
                                    conformal_coefficients(n, lam, R2))))
    return ConformalExpansion(coefficients=total,
                              comparisons=_compare(reference, total))


@dataclass
class NoncompactChain:
    comparisons: list
    inequality_log: list


def noncompact_chain() -> NoncompactChain:
    """Lower-bound chain for trace-free variations at negative curvature
    scale.  Nonnegative terms are dropped (each drop is logged with the
    hypothesis it needs); the exterior pairing is kept unreduced.

    The derived remainder agrees with the reference display on NORM_RRING,
    K_PAIR and RR_KN and disagrees on all three h-term coefficients.
    """
    e = _half_expression(1)
    _rewrite(e, "Berger completion")
    _rewrite(e, "A4[printed]")
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
    for name in ("A2[h]", "A2[ht]"):
        _rewrite(e, name)
    e = e.substituted(LAM_RULE).scaled(2)

    c, n, tau, _, _, R2 = _SYMBOLS
    claimed = LedgerExpr(noncompact_tt_coefficients(n, tau, c, R2))
    return NoncompactChain(comparisons=_compare(claimed, e),
                           inequality_log=inequality_log)


# ---------------------------------------------------------------------------
# identity catalog
# ---------------------------------------------------------------------------

@dataclass
class IdentityCheck:
    id: str
    tier: str  # "required" or "report"
    evaluate: callable = field(repr=False)  # (model, arrays, rng) -> dict
    input_free: bool = False


def _unit_tt(nn: int, rng: np.random.Generator):
    h = random_symtensor(nn, seed=int(rng.integers(0, 2**31)), trace_free=True)
    return h / np.sqrt(np.sum(h * h))


def _unit_curvature(arrays, rng: np.random.Generator):
    """The pair-basis matrix P1 of a random curvature tensor R1 of unit
    norm, |R1|^2 = 4 |P1|^2, drawn with the call's Bianchi table."""
    seed = int(rng.integers(0, 2**31))
    P1 = random_curvature_lambda2(arrays.model.n, seed=seed,
                                  entries=arrays.bianchi)
    return P1 / (2.0 * np.linalg.norm(P1))


def _wedge_columns(x: np.ndarray, ii, jj) -> np.ndarray:
    """The N x n matrix whose column a is x ^ e_a in the basis of the pairs
    ii < jj: x_i at the pair (i, a) for i < a, -x_j at (a, j) for a < j."""
    out = np.zeros((ii.size, x.size))
    at = np.arange(ii.size)
    out[at, jj] = x[ii]
    out[at, ii] = -x[jj]
    return out


class _CatalogArrays:
    """What the identity catalog reads of a model at c = sign(c), for one
    call of ``verify_identity_numeric``.  Each part is built on its first
    read from the slot arrays and values of R's nonzeros there, which
    the model holds (``R_unit``), and the (pi, s) of the structure
    operators (``J.perms``), so that no trial makes an n^4 array, and is
    dropped with the object when the call returns:

    terms(key)
             the entry lists (rows, columns, values) on vec(h) that the
             trace-free form is assembled from (``hessian._term_entries``):
             the curvature action L (IP_RRING_H) and
             the structure average G (IP_H_HTILDE), which ``_apply``
             applies to h, and the K_PAIR and RR_KN pairings;
    pairs, lookup, bianchi
             the pairs i < j, the n x n pair numbers and the draws'
             4-subset table (``tensors._pair_lookup``, ``_bianchi_entries``);
    P        the pair-basis matrix of R, scattered from its nonzeros;
    structure
             per J, the pushforward on 2-vectors, a signed permutation of
             the pairs, as (src, sign): (Lambda^2 J) X = sign X[src] by
             rows; and omega, the N x tau matrix of the pair vectors of
             the J^T.
    """

    def __init__(self, model):
        self.model = model
        self._terms: dict = {}

    def terms(self, key: str) -> tuple:
        if key not in self._terms:
            _, slots, values = self.model.R_unit
            self._terms[key] = _term_entries(self.model, key,
                                             (*slots, values))
        return self._terms[key]

    pairs = cached_property(lambda self: np.triu_indices(self.model.n, 1))
    lookup = cached_property(lambda self: _pair_lookup(self.model.n))
    bianchi = cached_property(lambda self: _bianchi_entries(self.model.n))

    @cached_property
    def P(self) -> np.ndarray:
        _, (i0, i1, i2, i3), v = self.model.R_unit
        n, pair = self.model.n, self.lookup
        upper = (i0 < i1) & (i2 < i3)
        P = np.zeros((n * (n - 1) // 2,) * 2)
        P[pair[i0[upper], i1[upper]], pair[i2[upper], i3[upper]]] = v[upper]
        return P

    @cached_property
    def structure(self) -> tuple:
        (ii, jj), pair = self.pairs, self.lookup
        N = ii.size
        push, omega = [], np.zeros((N, self.model.tau))
        for a, (pi, s) in enumerate(self.model.J.perms):
            src, sign = np.empty(N, dtype=np.intp), np.empty(N)
            dest = pair[pi[ii], pi[jj]]
            src[dest] = np.arange(N)
            sign[dest] = s[ii] * s[jj] * np.where(pi[ii] < pi[jj], 1.0, -1.0)
            push.append((src, sign))
            # J^T[x, pi x] = s_x, read at the pairs x < pi x
            omega[:, a] = np.where(pi[ii] == jj, s[ii], 0.0)
        return push, omega


def _apply(arrays, key: str, h: np.ndarray) -> np.ndarray:
    """The map whose entry list is ``key``'s applied to a symmetric h,
    symmetrized: the curvature action B (IP_RRING_H) or the structure
    average ht (IP_H_HTILDE), whose dense copies are ``r_ring`` and
    ``tilde`` in the tests' oracle (``tests/dense_oracle.py``)."""
    rows, cols, w = arrays.terms(key)
    n = h.shape[0]
    out = np.bincount(rows, weights=w * h.ravel()[cols], minlength=n * n)
    out = out.reshape(n, n)
    return 0.5 * (out + out.T)


def _pairing(arrays, key: str, h: np.ndarray) -> float:
    """The K_PAIR or RR_KN pairing of h with itself, from its entry list."""
    rows, cols, w = arrays.terms(key)
    flat = h.ravel()
    return float(w @ (flat[rows] * flat[cols]))


def _residual(lhs, rhs) -> float:
    """max |lhs - rhs| relative to max(1, max |lhs|), on the sides of an
    identity at c = sign(c)."""
    gap = float(np.max(np.abs(np.subtract(lhs, rhs))))
    return gap / max(1.0, float(np.max(np.abs(lhs))))


def _ev_curvature_action_affine(model, arrays, rng):
    """The curvature action on symmetric tensors is the affine combination
    3c ht - c h + c tr(h) g."""
    nn = model.n
    h = random_symtensor(nn, seed=int(rng.integers(0, 2**31)), trace_free=False)
    h = h / np.sqrt(np.sum(h * h))
    lhs = _apply(arrays, "IP_RRING_H", h)
    on_ht, on_h, on_trace = _curvature_action_coefficients(model.sign)
    rhs = (on_ht * _apply(arrays, "IP_H_HTILDE", h) + on_h * h
           + on_trace * np.trace(h) * np.eye(nn))
    return {"residual": _residual(lhs, rhs)}


def _ev_compose_structure(model, arrays, rng):
    """Composition with the model operator decomposes through the structure
    pushforwards and pair forms."""
    P1 = _unit_curvature(arrays, rng)
    push, omega = arrays.structure
    rhs = P1 + 2.0 * omega @ (omega.T @ P1)
    for src, sign in push:
        rhs += sign[:, None] * P1[src]
    rhs *= model.sign
    return {"residual": _residual(arrays.P @ P1, rhs)}


def _ev_compose_self_structure(model, arrays, rng):
    """Self-composition of the model operator in terms of the paired
    structure forms: the N x tau (tau + 1) / 2 matrix om of the unit-pair
    forms, which pair the lines of units a < b."""
    t1, pair = model.tau + 1, arrays.lookup
    m = model.n // t1
    units = [(a, b) for a in range(t1) for b in range(a + 1, t1)]
    P, om = arrays.P, np.zeros((arrays.P.shape[0], len(units)))
    for k, (a, b) in enumerate(units):
        om[pair[a * m + np.arange(m), b * m + np.arange(m)], k] = 1.0
    rhs = model.sign * t1 * (P + om @ (om.T @ P))
    return {"residual": _residual(P @ P, rhs)}


def _ev_norm_closed_form(model, arrays, rng):
    """The closed form for the squared curvature norm."""
    n, tau = model.n, model.tau
    return {
        "residual": _residual(model.nz.unit_norm2(),
                              norm2_closed_claimed(n, tau)),
        "direct": model.R_norm2,
        "closed_form": norm2_closed_claimed(n, tau, model.c),
    }


def _ev_kn_pairing_reduction(model, arrays, rng):
    """Reduction of the exterior pairing to the curvature action plus a
    norm multiple."""
    nn = model.n
    h = _unit_tt(nn, rng)
    lhs = _pairing(arrays, "RR_KN", h)
    on_b, on_norm = _kn_reduction_coefficients(nn, model.tau, model.sign)
    B = _apply(arrays, "IP_RRING_H", h)
    rhs = on_b * float(np.sum(B * h)) + on_norm  # |h|^2 = 1
    c2 = model.c * model.c
    return {"residual": _residual(lhs, rhs), "lhs": c2 * lhs, "rhs": c2 * rhs}


def _ricci_trace_terms(model, arrays, P1: np.ndarray,
                       x: np.ndarray) -> tuple:
    """The terms of compose-ricci-trace for the curvature tensor R1 with
    the pair-basis matrix P1 and a vector x: x Ric(R o R1) x, x Ric(R1) x,
    sum_J sum_a R1(x, e_a, J x, J e_a) and sum_J sum_a R1(x, J x, e_a,
    J e_a).

    Each is a contraction of P1.  With X the columns x ^ e_a
    (``_wedge_columns``) the first two are sum_a (x ^ e_a) P P1 (x ^ e_a)
    and sum_a (x ^ e_a) P1 (x ^ e_a); in the first J-sum y ^ J e_a is
    s_a y ^ e_{pi a} for y = J x, and the second is 2 (x ^ y) P1 omega_J.
    """
    ii, jj = arrays.pairs
    X = _wedge_columns(x, ii, jj)
    Z = P1 @ X
    P1_omega = P1 @ arrays.structure[1]
    sum1 = sum2 = 0.0
    for a, (pi, s) in enumerate(model.J.perms):
        y = np.empty_like(x)
        y[pi] = s * x
        sum1 += float(np.sum(_wedge_columns(y, ii, jj)[:, pi] * s * Z))
        sum2 += 2.0 * float((x[ii] * y[jj] - x[jj] * y[ii]) @ P1_omega[:, a])
    return (float(np.sum(arrays.P @ X * Z)), float(np.sum(X * Z)),
            sum1, sum2)


def _ev_compose_ricci_trace(model, arrays, rng):
    """The trace of a composed operator via structure contractions of the
    second factor."""
    # The display weights the pairing term by 1/2; taking the trace of the
    # (verified) composition identity instead gives weight 1.  Both residuals
    # are reported; the outcome follows the display.
    nn = model.n
    P1 = _unit_curvature(arrays, rng)
    x = rng.standard_normal(nn)
    x /= np.linalg.norm(x)
    lhs, ricci1, sum1, sum2 = _ricci_trace_terms(model, arrays, P1, x)
    base = model.sign * ricci1
    rhs = base + model.sign * (sum1 + 0.5 * sum2)
    rhs_corrected = base + model.sign * (sum1 + sum2)
    return {
        "residual": _residual(lhs, rhs),
        "residual_corrected": _residual(lhs, rhs_corrected),
    }


def _ev_k_pairing_closed_form(model, arrays, rng):
    """The closed form for the quadratic curvature pairing in terms of the
    structure average."""
    nn = model.n
    h = _unit_tt(nn, rng)
    lhs = _pairing(arrays, "K_PAIR", h)
    hplus = _apply(arrays, "IP_H_HTILDE", h) + h
    base = ((nn + 10 * (model.tau + 1)) * float(np.sum(hplus * hplus))
            + 4.0 * np.trace(hplus) ** 2)
    # the pairing has degree 2 in c and the literal display degree 0: the
    # literal residual is taken at c, the rescaled one at c = sign(c)
    c2 = model.c * model.c
    return {
        "residual": abs(c2 * lhs - base) / max(c2, c2 * abs(lhs)),
        "residual_rescaled": _residual(lhs, base),
        "lhs": c2 * lhs,
    }


def _ev_tilde_norm_relation(model, arrays, rng):
    """The pointwise relation between a tensor, its structure average, and
    their norms."""
    h = _unit_tt(model.n, rng)
    ht = _apply(arrays, "IP_H_HTILDE", h)
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
        IdentityCheck("curvature-action-affine", "required",
                      _ev_curvature_action_affine),
        IdentityCheck("compose-structure", "required", _ev_compose_structure),
        IdentityCheck("compose-self-structure", "required",
                      _ev_compose_self_structure, input_free=True),
        IdentityCheck("norm-closed-form", "required", _ev_norm_closed_form,
                      input_free=True),
        IdentityCheck("kn-pairing-reduction", "required",
                      _ev_kn_pairing_reduction),
        IdentityCheck("compose-ricci-trace", "required",
                      _ev_compose_ricci_trace),
        IdentityCheck("k-pairing-closed-form", "report",
                      _ev_k_pairing_closed_form),
        IdentityCheck("tilde-norm-relation", "report",
                      _ev_tilde_norm_relation),
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

    ``trials`` that is not an integer of at least 1, ``seed`` that is not
    one of at least 0 (a bool is neither), or ``tol`` that is not a
    finite positive real (nor a bool) raises ValueError before any draw
    is made.  The call owns every table it reads (``_CatalogArrays``), the
    pair and 4-subset tables included: it returns holding nothing of model
    size, and no cache is left to clear.
    """
    _require_count("trials", trials)
    _require_count("seed", seed, least=0)
    _require_real("tol", tol, above=True)
    catalog = identity_catalog()
    if lemma_id not in catalog:
        raise KeyError(f"unknown identity {lemma_id!r}")
    entry = catalog[lemma_id]
    rng = np.random.default_rng(seed)
    runs = 1 if entry.input_free else trials
    arrays = _CatalogArrays(model)
    outs = [entry.evaluate(model, arrays, rng) for _ in range(runs)]
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
    (``verify_identity_numeric``, whose refusals of ``trials``, ``seed``
    and ``tol`` come before any draw).  Each call holds the model's
    catalog arrays only while it runs, so a caller that goes on to other
    work does not hold them."""
    return [verify_identity_numeric(name, model, trials=trials, seed=seed,
                                    tol=tol)
            for name in identity_catalog()]
