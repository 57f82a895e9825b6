"""Symbolic reduction chains and the numeric identity harness.

The ledger computes in its own exact type (``laurent.Laurent``); the
expected values asserted here are sympy expressions in sympy symbols, and
each ledger value is converted with ``sp.sympify`` before sympy compares
it, so sympy is an independent oracle.  MISMATCH rows pin both sides so any
silent change in either the display constants or the reduction machinery
trips a test.
"""

import contextlib
from fractions import Fraction
import io
import json
from pathlib import Path

import numpy as np
import sympy as sp
import pytest

import crosscurv.ledger as ledger
from crosscurv.cli import _ledger_rows, main
from crosscurv.ledger import (
    BASIS,
    LAM_RULE,
    LedgerExpr,
    SYM,
    a4_variants,
    expand_theorem_conformal,
    expand_theorem_tt,
    identity_catalog,
    noncompact_chain,
    quadratic_completion_checks,
    verify_identity_numeric,
)
from crosscurv.hessian import (
    compact_tt_coefficients,
    conformal_value,
    noncompact_tt_coefficients,
)
from crosscurv.models import (
    build_model,
    norm2_closed_claimed,
    reference_mu_over_lambda,
)

c, n, tau, lam, mu, R2 = sp.symbols("c n tau lam mu R2")
S = sp.sympify


def _coeff_map(comparisons):
    return {r["term"]: r for r in comparisons}


def test_ledger_expr_mechanics():
    e = LedgerExpr({"NORM_H": 2 * SYM["c"]})
    e.add_term("NORM_H", SYM["c"])
    assert sp.simplify(S(e.coefficient("NORM_H")) - 3 * c) == 0
    assert e.coefficient("K_PAIR") == 0
    popped = e.pop_term("NORM_H")
    assert sp.simplify(S(popped) - 3 * c) == 0
    assert e.coefficient("NORM_H") == 0
    with pytest.raises(KeyError):
        LedgerExpr({"NOT_A_BASIS_KEY": 1})
    assert set(BASIS) >= {"NORM_DDH", "SHIFT2", "BERGER_IP", "NORM_F"}


def test_lam_rule():
    assert sp.simplify(S(LAM_RULE[SYM["lam"]]) - c * (3 * tau + n - 1)) == 0


def test_tt_chain_printed_matches():
    tt = expand_theorem_tt(variant="printed", a4="printed")
    rows = _coeff_map(tt.comparisons)
    for term, val in (("NORM_DDH_SHIFT", sp.Integer(2)),
                      ("NORM_DH", 2 * c * (n + 3 * tau - 3)),
                      ("NORM_RRING", sp.Rational(-1, 2)),
                      ("K_PAIR", sp.Integer(4))):
        assert rows[term]["match"], term
        assert sp.simplify(S(rows[term]["computed"]) - val) == 0


def test_tt_chain_printed_mismatches_pinned():
    tt = expand_theorem_tt(variant="printed", a4="printed")
    rows = _coeff_map(tt.comparisons)
    bad = sorted(r["term"] for r in tt.comparisons if not r["match"])
    assert bad == ["IP_H_HTILDE", "NORM_H", "NORM_HTILDE"]

    r = rows["IP_H_HTILDE"]
    assert sp.simplify(S(r["claimed"]) - c**2 * (6 * n - 6 * tau + 22)) == 0
    assert sp.simplify(S(r["computed"]) - c**2 * (34 - 6 * n - 42 * tau)) == 0

    r = rows["NORM_HTILDE"]
    assert sp.simplify(S(r["claimed"]) + 48 * c**2) == 0
    assert sp.simplify(S(r["computed"]) + 24 * c**2) == 0

    r = rows["NORM_H"]
    want_claimed = 2 * R2 / n + 2 * c**2 * (n * tau + 3 * tau**2 - 8 * tau - 1)
    want_computed = 2 * R2 / n + 2 * c**2 * (
        2 * n * tau - n + 6 * tau**2 - 9 * tau - 1)
    assert sp.simplify(S(r["claimed"]) - want_claimed) == 0
    assert sp.simplify(S(r["computed"]) - want_computed) == 0


def test_tt_chain_composed_a4_repairs_htilde_only():
    tt = expand_theorem_tt(variant="printed", a4="composed")
    rows = _coeff_map(tt.comparisons)
    assert rows["NORM_HTILDE"]["match"]
    assert sp.simplify(S(rows["NORM_HTILDE"]["computed"]) + 48 * c**2) == 0
    assert not rows["IP_H_HTILDE"]["match"]
    assert sp.simplify(
        S(rows["IP_H_HTILDE"]["computed"]) - c**2 * (42 - 6 * n - 42 * tau)) == 0
    # the NORM_H row is a4-independent
    printed = expand_theorem_tt(variant="printed", a4="printed")
    assert sp.simplify(S(rows["NORM_H"]["computed"])
                       - S(_coeff_map(printed.comparisons)["NORM_H"]["computed"])) == 0


def test_tt_chain_match_rows_are_variant_independent():
    for variant in ("printed", "doubled_rr"):
        for a4 in ("printed", "composed"):
            tt = expand_theorem_tt(variant=variant, a4=a4)
            rows = _coeff_map(tt.comparisons)
            for term in ("NORM_DDH_SHIFT", "NORM_DH", "NORM_RRING", "K_PAIR"):
                assert rows[term]["match"], (variant, a4, term)


def test_a4_variants_differ_by_one_pairing_term():
    v = a4_variants()
    diff = {k: sp.simplify(S(x)) for k, x in v["difference"].coeffs.items()}
    nonzero = {k: x for k, x in diff.items() if x != 0}
    assert nonzero == {"IP_RRING_HTILDE": c}
    # NORM_H parts agree once lam is expanded
    gap = (S(v["composed"].coefficient("NORM_H"))
           - S(v["printed"].coefficient("NORM_H")))
    assert sp.simplify(gap.subs(lam, S(LAM_RULE[SYM["lam"]]))) == 0


def test_quadratic_completions_are_exact():
    qc = quadratic_completion_checks()

    def same(a, b):
        return all(sp.simplify(S(a.get(k, 0)) - S(b.get(k, 0))) == 0
                   for k in set(a) | set(b))

    assert same(qc["completion_compact"], qc["bracket"])
    assert same(qc["completion_berger"], qc["bracket"])


def test_conformal_chain_corrected_matches_reference():
    ce = expand_theorem_conformal(assembly="corrected")
    rows = _coeff_map(ce.comparisons)
    assert all(r["match"] for r in ce.comparisons)
    assert sp.simplify(S(rows["NORM_DELTAF"]["computed"]) - (2 * n - 2)) == 0
    assert sp.simplify(S(rows["NORM_DF"]["computed"]) + 8 * lam) == 0
    assert sp.simplify(S(rows["NORM_F"]["computed"]) - R2 * (4 - n)) == 0
    poly = S(ce.polynomial())
    want = 2 * (n - 1) * mu**2 - 8 * lam * mu + (4 - n) * R2
    assert sp.simplify(poly - want) == 0


def test_conformal_chain_printed_weight_disagrees():
    ce = expand_theorem_conformal(assembly="printed")
    rows = _coeff_map(ce.comparisons)
    assert rows["NORM_DELTAF"]["match"]
    assert not rows["NORM_DF"]["match"]
    assert not rows["NORM_F"]["match"]
    assert sp.simplify(S(rows["NORM_DF"]["computed"]) + 4 * lam) == 0
    assert sp.simplify(S(rows["NORM_F"]["computed"]) - R2 * (3 - n)) == 0


def test_noncompact_chain_pinned():
    nc = noncompact_chain()
    rows = _coeff_map(nc.comparisons)
    matches = sorted(t for t, r in rows.items() if r["match"])
    assert matches == ["K_PAIR", "NORM_RRING", "RR_KN"]
    assert sp.simplify(S(rows["NORM_RRING"]["computed"]) + sp.Rational(1, 2)) == 0
    assert sp.simplify(S(rows["K_PAIR"]["computed"]) - 4) == 0
    assert sp.simplify(S(rows["RR_KN"]["computed"]) - 2) == 0
    assert sp.simplify(S(rows["NORM_HTILDE"]["claimed"]) + 12 * c**2) == 0
    assert sp.simplify(S(rows["NORM_HTILDE"]["computed"]) + 24 * c**2) == 0
    assert sp.simplify(S(rows["IP_H_HTILDE"]["claimed"]) - 2 * c**2 * (14 - 3 * tau)) == 0
    assert sp.simplify(S(rows["IP_H_HTILDE"]["computed"]) - c**2 * (16 - 12 * tau)) == 0
    want_claimed = 2 * R2 / n + 2 * c**2 * (n * tau - n + 3 * tau**2 - 7 * tau + 5)
    want_computed = 2 * R2 / n + 4 * c**2 * (3 * tau**2 + n * tau - 7 * tau - 3 * n + 1)
    assert sp.simplify(S(rows["NORM_H"]["claimed"]) - want_claimed) == 0
    assert sp.simplify(S(rows["NORM_H"]["computed"]) - want_computed) == 0
    # the chain drops three nonnegative pieces; each drop is logged
    assert len(nc.inequality_log) == 3


MODELS = {}


def _model(key):
    if key not in MODELS:
        family, m, nkw = {
            "sphere5": ("sphere", 0, 5),
            "cp2": ("complex", 2, None),
            "cp3": ("complex", 3, None),
            "hp1": ("quaternionic", 1, None),
            "hp2": ("quaternionic", 2, None),
            "op2": ("octonionic", 2, None),
        }[key]
        MODELS[key] = build_model(family, m, 1.0, n=nkw)
    return MODELS[key]


# lemma id -> set of models where the displayed statement holds numerically
TRUTH = {
    "curvature-action-affine": {"sphere5", "cp2", "cp3", "hp1", "hp2", "op2"},
    "compose-structure": {"sphere5", "cp2", "cp3", "hp1", "hp2", "op2"},
    "compose-self-structure": {"sphere5", "cp2", "cp3"},
    "norm-closed-form": {"sphere5", "cp2", "cp3"},
    "kn-pairing-reduction": {"hp1"},
    "compose-ricci-trace": {"sphere5"},
    "k-pairing-closed-form": set(),
    "tilde-norm-relation": {"sphere5"},
}


def test_identity_catalog_structure():
    cat = identity_catalog()
    assert sorted(cat) == sorted(TRUTH)
    required = [k for k, v in cat.items() if v.tier == "required"]
    assert sorted(required) == sorted(
        ["curvature-action-affine", "compose-structure",
         "compose-self-structure", "norm-closed-form",
         "kn-pairing-reduction", "compose-ricci-trace"])


@pytest.mark.parametrize("lemma", sorted(TRUTH))
@pytest.mark.parametrize("key", ["sphere5", "cp2", "cp3", "hp1", "hp2", "op2"])
def test_identity_truth_table(lemma, key):
    out = verify_identity_numeric(lemma, _model(key), trials=8, seed=11)
    expected = "PASS" if key in TRUTH[lemma] else "FAIL"
    assert out["outcome"] == expected, (lemma, key, out["residual"])


def test_kn_pairing_hp1_pass_is_the_constant_curvature_coincidence():
    # HP^1 carries the constant-curvature tensor at scale 4c; with n = 4,
    # tau = 3 the claimed right side collapses to -(4c)^2 |h|^2, which is
    # the true value.  The same display fails on the actual 4-sphere.
    out4 = verify_identity_numeric(
        "kn-pairing-reduction", build_model("sphere", 0, 1.0, n=4),
        trials=8, seed=11)
    assert out4["outcome"] == "FAIL"
    out = verify_identity_numeric("kn-pairing-reduction", _model("hp1"),
                                  trials=8, seed=11)
    assert out["outcome"] == "PASS"


def test_compose_ricci_trace_corrected_weight_passes_everywhere():
    for key in ("sphere5", "cp2", "cp3", "hp1", "hp2", "op2"):
        out = verify_identity_numeric("compose-ricci-trace", _model(key),
                                      trials=8, seed=11)
        # on the sphere both correction sums vanish and no extras are emitted
        corrected = out.get("details", {}).get("residual_corrected",
                                               out["residual"])
        assert corrected < 1e-10, key


def test_identity_runs_are_deterministic():
    a = verify_identity_numeric("kn-pairing-reduction", _model("cp2"),
                                trials=12, seed=5)
    b = verify_identity_numeric("kn-pairing-reduction", _model("cp2"),
                                trials=12, seed=5)
    assert a["residual"] == b["residual"]


def test_tied_trials_report_the_first_trials_details():
    # the rescaled k-pairing residual is 19/7 on every cp3 trial in exact
    # arithmetic; the trials differ in its last bits only, so the details
    # are those of the first trial, not of the one rounding favours
    model, rng = _model("cp3"), np.random.default_rng(5)
    evaluate = identity_catalog()["k-pairing-closed-form"].evaluate
    arrays = ledger._CatalogArrays(model)
    trials = [evaluate(model, arrays, rng) for _ in range(8)]
    free = [t["residual_rescaled"] for t in trials]
    assert max(free) - min(free) <= 1e-14 * max(free)
    assert len({t["lhs"] for t in trials}) == 8
    out = verify_identity_numeric("k-pairing-closed-form", model, trials=8,
                                  seed=5)
    assert out["details"] == {"residual_rescaled": free[0],
                              "lhs": trials[0]["lhs"]}


def test_input_free_identities_run_once(monkeypatch):
    out = verify_identity_numeric("norm-closed-form", _model("cp2"),
                                  trials=50, seed=5)
    assert out["trials"] == 1
    # fewer than one trial, or a count that is not an integer, is refused
    # before the catalog is even read
    monkeypatch.setattr(ledger, "identity_catalog", None)
    for lemma in ("norm-closed-form", "kn-pairing-reduction"):
        for trials in (0, -3, 2.5, True):
            with pytest.raises(ValueError, match="trials"):
                verify_identity_numeric(lemma, _model("cp2"), trials=trials)
        for seed in (True, 2.5, -1):
            with pytest.raises(ValueError, match="seed"):
                verify_identity_numeric(lemma, _model("cp2"), seed=seed)


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf, True])
def test_bad_tolerances_are_refused_before_any_draw(tol, monkeypatch):
    # at hp2 curvature-action-affine has a residual of about 2e-16: nan, 0
    # and -1 read FAIL, and inf passed every identity
    model = _model("hp2")

    def draw(*args, **kwargs):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(ledger.np.random, "default_rng", draw)
    with pytest.raises(ValueError, match="tol"):
        verify_identity_numeric("curvature-action-affine", model, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        ledger.verify_catalog(model, tol=tol)


def test_fraction_tolerance_reads_as_its_float():
    # a tolerance is any finite real above 0, as mu is: a Fraction tol
    # gives the findings of the float it equals
    model = _model("hp2")
    for lemma in ("curvature-action-affine", "kn-pairing-reduction"):
        exact = verify_identity_numeric(lemma, model, trials=3,
                                        tol=Fraction(1, 10**8))
        float_tol = verify_identity_numeric(lemma, model, trials=3, tol=1e-8)
        assert exact.pop("tol") == Fraction(1, 10**8)
        float_tol.pop("tol")
        assert exact == float_tol


# ---------------------------------------------------------------- document


ROOT = Path(__file__).resolve().parents[1]


def test_ledger_json_document_is_pinned():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["ledger", "--format", "json"]) == 0
    golden = (ROOT / "tests" / "golden" / "ledger.json").read_text(
        encoding="utf-8")
    assert out.getvalue() == golden


def test_ledger_flags_are_exact_and_unchanged():
    expected = json.loads(
        (ROOT / "bench" / "expected.json").read_text(encoding="utf-8"))
    rows = _ledger_rows()
    for r in rows:
        assert r["match"] is (sp.cancel(S(r["claimed"]) - S(r["computed"])) == 0)
        # the printed form is the expanded one
        for side in ("claimed", "computed"):
            assert str(r[side]) == sp.sstr(sp.expand(S(r[side]))), (
                r["term"], side)
        assert r["display"] == sp.sstr(S(r["claimed"]))
    flags = {f"{r['chain']}:{r['term']}": r["match"] for r in rows}
    assert flags == expected["ledger"]
    chains = [r["chain"].split("-")[0] for r in rows]
    assert (chains.count("tt"), chains.count("conformal"),
            chains.count("noncompact")) == (7, 6, 6)


# ------------------------------------------- ledger against the certificate


@pytest.mark.parametrize("family,m,scale,nkw", [
    ("complex", 2, 1.0, None), ("complex", 3, 1.0, None),
    ("quaternionic", 2, 1.0, None), ("octonionic", 2, 1.0, None),
    ("sphere", 0, 1.0, 5),
    ("quaternionic", 2, -1.0, None), ("complex", 2, -1.0, None),
])
def test_ledger_displays_are_the_certified_coefficients(family, m, scale, nkw):
    """The rows the ledger audits, evaluated at a model, are the numbers the
    certificate of that model uses."""
    model = build_model(family, m, scale, n=nkw)
    at = {c: model.c, n: model.n, tau: model.tau, R2: model.R_norm2}
    assert S(LAM_RULE[SYM["lam"]]).subs(at) == model.lam

    if model.compact:
        rows = _coeff_map(expand_theorem_tt().comparisons)
        certified = compact_tt_coefficients(model.n, model.tau, model.c,
                                            model.R_norm2)
        assert len(certified) == 5
    else:
        rows = _coeff_map(noncompact_chain().comparisons)
        certified = noncompact_tt_coefficients(model.n, model.tau, model.c,
                                               model.R_norm2)
        assert len(certified) == 6
    for key, want in certified.items():
        got = float(S(rows[key]["claimed"]).subs(at))
        assert abs(got - float(want)) <= 1e-15 * abs(float(want)), key

    # conformal reference rows at the model's lambda, mu and claimed |R|^2
    exact_lam = sp.Rational(int(model.lam))
    if model.compact:
        ratio = reference_mu_over_lambda(model.family, model.m, n=model.n)
        mu_arg, mu_value = None, sp.Rational(ratio.numerator,
                                             ratio.denominator) * exact_lam
    else:
        mu_arg, mu_value = 3, sp.Integer(3)
    want = conformal_value(model, mu=mu_arg, norm_source="claimed")
    claimed_R2 = sp.Rational(int(norm2_closed_claimed(model.n, model.tau,
                                                      model.c)))
    exact = {n: model.n, lam: exact_lam, R2: claimed_R2}
    for assembly in ("corrected", "printed"):
        ref = _coeff_map(expand_theorem_conformal(assembly).comparisons)
        got = (S(ref["NORM_DELTAF"]["claimed"]) * mu_value**2
               + S(ref["NORM_DF"]["claimed"]) * mu_value
               + S(ref["NORM_F"]["claimed"])).subs(exact)
        assert got == sp.Rational(want.numerator, want.denominator), assembly


# ------------------------------------- the checks read the applied rewrites


@pytest.fixture
def rewrites():
    """The ledger's rewrite table, rebuilt before and after the test."""
    ledger._rewrites.cache_clear()
    yield ledger._rewrites
    ledger._rewrites.cache_clear()


def test_completion_check_reads_the_applied_square_completion(monkeypatch,
                                                              rewrites):
    qc = quadratic_completion_checks()
    assert qc["completion_compact"] == qc["bracket"]
    before = _coeff_map(expand_theorem_tt().comparisons)["NORM_RRING"]
    lhs, rhs = rewrites()["square completion"]
    assert rhs["NORM_RRING"] == sp.Rational(-9, 4)
    monkeypatch.setitem(rewrites(), "square completion",
                        (lhs, {**rhs, "NORM_RRING": -2}))

    qc = quadratic_completion_checks()
    assert qc["completion_compact"] != qc["bracket"]
    assert qc["completion_berger"] == qc["bracket"]
    after = _coeff_map(expand_theorem_tt().comparisons)["NORM_RRING"]
    assert before["match"] and not after["match"]
    assert sp.cancel(S(after["computed"]) - S(before["computed"])) != 0


def test_a2_evaluator_and_chains_share_coefficients(monkeypatch, rewrites):
    model = _model("cp2")

    def outcome():
        return verify_identity_numeric("curvature-action-affine", model,
                                       trials=4, seed=11)["outcome"]

    h_rows = ("NORM_H", "IP_H_HTILDE", "NORM_HTILDE")
    assert outcome() == "PASS"
    before = _coeff_map(expand_theorem_tt().comparisons)
    monkeypatch.setattr(ledger, "_curvature_action_coefficients",
                        lambda c: (4 * c, -2 * c, c))
    rewrites.cache_clear()

    assert outcome() == "FAIL"
    after = _coeff_map(expand_theorem_tt().comparisons)
    assert sorted(after) == sorted(before)
    for term, row in after.items():
        moved = sp.cancel(S(row["computed"]) - S(before[term]["computed"])) != 0
        assert moved is (term in h_rows), term
