"""The ledger's exact coefficient type against sympy as an oracle.

Random Laurent polynomials in the six generators are built through the
type's own arithmetic and converted with ``sp.sympify`` (the type's
``_sympy_``): the printed form must be sympy's ``sstr`` of the expanded
expression, and +, -, *, monomial division and the lam substitution must
commute with the conversion.  The exactness guards refuse floats, numpy
scalars and non-monomial divisors.
"""

from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crosscurv.ledger as ledger
from crosscurv.laurent import GENERATORS, Laurent
from crosscurv.ledger import LAM_RULE, SYM, LedgerExpr, expand_theorem_tt

GENS = [Laurent.generator(name) for name in GENERATORS]
SYMS = sp.symbols(GENERATORS)
LAM = GENERATORS.index("lam")


def _monomial(q: Fraction, exps) -> Laurent:
    out = Laurent(q)
    for g, k in zip(GENS, exps):
        out = out * g**k if k >= 0 else out / g**-k
    return out


def _sympy_monomial(q: Fraction, exps):
    return sp.Rational(q.numerator, q.denominator) * sp.Mul(
        *(s**k for s, k in zip(SYMS, exps)))


coefficients = st.builds(Fraction, st.integers(-30, 30).filter(bool),
                         st.integers(1, 12))
exponents = st.tuples(*[st.integers(-2, 3)] * len(GENERATORS))
terms = st.lists(st.tuples(coefficients, exponents), max_size=6)


def _both(pairs):
    """One random polynomial, as a Laurent and as a sympy expression."""
    p = Laurent()
    for q, e in pairs:
        p = p + _monomial(q, e)
    return p, sp.expand(sp.Add(*(_sympy_monomial(q, e) for q, e in pairs)))


def _same(p: Laurent, expr) -> bool:
    return sp.expand(sp.sympify(p) - expr) == 0


@settings(max_examples=300, deadline=None)
@given(terms)
@example([(Fraction(1), (0, 0, 0, 0, 0, -2))])
@example([(Fraction(1), (0, 0, 0, 0, 0, 0)),
          (Fraction(1), (0, 0, 0, 0, 0, -2))])
def test_printed_form_is_sympy_sstr_of_the_expanded_expression(pairs):
    p, expr = _both(pairs)
    assert _same(p, expr)
    assert str(p) == sp.sstr(sp.expand(sp.sympify(p))) == sp.sstr(expr)
    assert repr(p) == str(p)
    assert bool(p) is (expr != 0)


@settings(max_examples=150, deadline=None)
@given(terms, terms, coefficients, exponents)
def test_arithmetic_commutes_with_the_conversion(a, b, q, e):
    p, pe = _both(a)
    r, re = _both(b)
    m = _monomial(q, e)
    me = _sympy_monomial(q, e)
    assert _same(p + r, pe + re)
    assert _same(p - r, pe - re)
    assert _same(p * r, pe * re)
    assert _same(-p, -pe)
    assert _same(p / m, pe / me)
    assert _same(3 - p * Fraction(2, 7), 3 - pe * sp.Rational(2, 7))
    assert (p == r) is (sp.expand(pe - re) == 0)
    assert not p - p


@settings(max_examples=100, deadline=None)
@given(terms)
def test_lam_substitution_commutes_with_the_conversion(pairs):
    pairs = [(q, e[:LAM] + (abs(e[LAM]),) + e[LAM + 1:]) for q, e in pairs]
    p, expr = _both(pairs)
    lam, value = next(iter(LAM_RULE.items()))
    want = expr.subs(sp.Symbol("lam"), sp.sympify(value))
    assert _same(p.subs(LAM_RULE), want)
    assert lam == SYM["lam"] and LAM_RULE[SYM["lam"]] is value


def test_constants_compare_and_hash_as_their_values():
    assert Laurent(2) == 2 and hash(Laurent(2)) == hash(2)
    assert Laurent(Fraction(1, 2)) == Fraction(1, 2)
    assert Laurent() == 0 and hash(Laurent()) == hash(0) and not Laurent()
    assert str(Laurent()) == "0"


# ------------------------------------------------------------ exactness


INEXACT = [0.5, 1.0, np.float64(1.0), np.float32(2.0), np.int64(2)]


@pytest.mark.parametrize("x", INEXACT, ids=repr)
def test_inexact_coefficients_raise(x):
    c = SYM["c"]
    for op in (lambda: c + x, lambda: x + c, lambda: c * x, lambda: x * c,
               lambda: c - x, lambda: x - c, lambda: c / x, lambda: x / c,
               lambda: c == x, lambda: Laurent(x)):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("x", INEXACT, ids=repr)
def test_ledger_expr_refuses_inexact_coefficients(x):
    with pytest.raises(TypeError):
        LedgerExpr({"NORM_H": x})
    e = LedgerExpr({"NORM_H": SYM["c"]})
    with pytest.raises(TypeError):
        e.add_term("NORM_H", x)
    with pytest.raises(TypeError):
        e.scaled(x)


def test_division_only_by_a_rational_or_a_monomial():
    c, n = SYM["c"], SYM["n"]
    assert str(c / (2 * n)) == "c/(2*n)"
    assert str(Fraction(3, 2) / n) == "3/(2*n)"
    for divisor in (c + n, n - 1, c + 1):
        with pytest.raises(ValueError):
            c / divisor
        with pytest.raises(ValueError):
            1 / divisor
    with pytest.raises(ZeroDivisionError):
        c / (n - n)
    with pytest.raises(ValueError):
        c ** -1


def test_a_float_never_reaches_a_match_flag(monkeypatch):
    original = ledger.compact_tt_coefficients
    monkeypatch.setattr(ledger, "compact_tt_coefficients",
                        lambda *symbols: {**original(*symbols),
                                          "K_PAIR": 4.0})
    with pytest.raises(TypeError):
        expand_theorem_tt()
