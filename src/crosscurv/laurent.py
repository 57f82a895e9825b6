"""Exact Laurent polynomials over the rationals, the coefficients of the
symbolic ledger.

A ``Laurent`` is a finite sum of terms q R2^a c^b lam^d mu^e n^f tau^g with
q a non-zero Fraction and integer exponents, negative ones allowed.  It is
held as a dict from exponent tuples, in the order of ``GENERATORS``, to the
coefficients, with no zero coefficient stored.  That form is canonical:
two polynomials are equal exactly when their dicts are, and a polynomial is
zero exactly when its dict is empty.

Arithmetic is exact.  int and Fraction mix in on either side; a float, or
any other number that is not an int or a Fraction (numpy scalars included),
raises TypeError, so no rounded value can reach a ledger flag.  Division is
by a non-zero rational or by a monomial; any other divisor raises
ValueError.  Powers are non-negative integers.

``str`` prints the expanded form that sympy's ``sstr`` prints for the same
polynomial: terms in descending lex order of their exponent tuples, joined
by " + " and " - "; each term is its numerator (the coefficient's numerator
and the positive powers) over its denominator (the coefficient's
denominator and the negative powers), parenthesised when that has more than
one factor, as in ``3*c/(2*n)``; a term that is 1 over one generator at a
power k >= 2 prints as sstr prints it, ``tau**(-2)``.  ``repr`` is the
same string.
``_sympy_`` is the hook through which ``sympy.sympify`` converts a
polynomial, for tests that use sympy as an oracle; this module never
imports sympy.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from numbers import Number

__all__ = ["GENERATORS", "Laurent"]

GENERATORS = ("R2", "c", "lam", "mu", "n", "tau")
_UNIT = (0,) * len(GENERATORS)


def _rational(x) -> Fraction | None:
    """x as a Fraction if it is an int or a Fraction, None if it is not a
    number; TypeError for any other number."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, Number):
        raise TypeError(f"coefficient {x!r} of type {type(x).__name__} is "
                        "not an int or a Fraction")
    return None


def _term_str(q: Fraction, exps: tuple) -> str:
    sign = "-" if q < 0 else ""
    q = abs(q)
    num = [str(q.numerator)] if q.numerator != 1 else []
    den = [str(q.denominator)] if q.denominator != 1 else []
    for name, k in zip(GENERATORS, exps):
        if k:
            (num if k > 0 else den).append(
                name if abs(k) == 1 else f"{name}**{abs(k)}")
    top = "*".join(num) or "1"
    if not den:
        return sign + top
    if len(den) == 1:
        name, _, k = den[0].partition("**")
        if k and not sign and top == "1":  # sstr: tau**(-2), not 1/tau**2
            return f"{name}**(-{k})"
        return f"{sign}{top}/{den[0]}"
    return f"{sign}{top}/({'*'.join(den)})"


class Laurent:
    """Laurent polynomial in ``GENERATORS`` with Fraction coefficients."""

    __slots__ = ("terms",)
    # numpy then hands mixed operations to the reflected methods, which
    # refuse its scalars
    __array_ufunc__ = None

    def __init__(self, value=0):
        """The constant ``value``, an int or a Fraction."""
        q = _rational(value)
        if q is None:
            raise TypeError(f"cannot make a Laurent polynomial of "
                            f"{type(value).__name__}")
        self.terms = {_UNIT: q} if q else {}

    @classmethod
    def _from_terms(cls, terms: dict) -> "Laurent":
        p = cls.__new__(cls)
        p.terms = {e: q for e, q in terms.items() if q}
        return p

    @classmethod
    def generator(cls, name: str) -> "Laurent":
        i = GENERATORS.index(name)
        return cls._from_terms({_UNIT[:i] + (1,) + _UNIT[i + 1:]: Fraction(1)})

    @classmethod
    def of(cls, value) -> "Laurent":
        """value itself if it is a Laurent polynomial, else the constant
        (TypeError unless it is an int or a Fraction)."""
        return value if isinstance(value, Laurent) else cls(value)

    # ------------------------------------------------------------ arithmetic

    @staticmethod
    def _operand(other):
        """other as a Laurent polynomial, or NotImplemented for a
        non-number (TypeError for an inexact number)."""
        if isinstance(other, Laurent):
            return other
        q = _rational(other)
        return NotImplemented if q is None else Laurent(q)

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        terms = dict(self.terms)
        for e, q in other.terms.items():
            terms[e] = terms.get(e, 0) + q
        return Laurent._from_terms(terms)

    __radd__ = __add__

    def __neg__(self):
        return Laurent._from_terms({e: -q for e, q in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return self + -other

    def __rsub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return other + -self

    def __mul__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        terms: dict = {}
        for e1, q1 in self.terms.items():
            for e2, q2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, 0) + q1 * q2
        return Laurent._from_terms(terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent {k!r} is not a non-negative integer")
        out = Laurent(1)
        for _ in range(k):
            out = out * self
        return out

    def __truediv__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        if not other.terms:
            raise ZeroDivisionError("division by the zero polynomial")
        if len(other.terms) > 1:
            raise ValueError(f"division by {other}, which is not a monomial")
        ((e, q),) = other.terms.items()
        return self * Laurent._from_terms({tuple(-k for k in e): 1 / q})

    def __rtruediv__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return other / self

    # ----------------------------------------------------------- comparison

    def __eq__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return self.terms == other.terms

    def __hash__(self):
        if set(self.terms) <= {_UNIT}:  # a constant hashes as its value
            return hash(self.terms.get(_UNIT, 0))
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # --------------------------------------------------------- substitution

    def subs(self, rules: dict) -> "Laurent":
        """Substitute values for generators: ``rules`` maps a generator
        (``Laurent.generator``) to a Laurent polynomial, int or Fraction.
        A generator with a negative exponent takes its value's inverse, so
        that value must be a monomial there."""
        gens = [Laurent.generator(name) for name in GENERATORS]
        slots = {}
        for gen, value in rules.items():
            if gen not in gens:
                raise ValueError(f"{gen} is not a generator")
            slots[gens.index(gen)] = Laurent.of(value)
        out = Laurent()
        for e, q in self.terms.items():
            rest = list(e)
            factor = Laurent(q)
            for i, value in slots.items():
                k, rest[i] = e[i], 0
                factor = factor * (value**k if k >= 0 else 1 / value**-k)
            out = out + factor * Laurent._from_terms({tuple(rest): 1})
        return out

    # ------------------------------------------------------------- printing

    def __str__(self):
        out = ""
        for e in sorted(self.terms, reverse=True):
            t = _term_str(self.terms[e], e)
            if not out:
                out = t
            elif t.startswith("-"):
                out += " - " + t[1:]
            else:
                out += " + " + t
        return out or "0"

    __repr__ = __str__

    def _sympy_(self):
        """The sympy expression, for ``sympy.sympify``; sympy calls this
        hook, so it is loaded already."""
        sp = sys.modules["sympy"]
        gens = sp.symbols(GENERATORS)
        return sp.Add(*(
            sp.Rational(q.numerator, q.denominator)
            * sp.Mul(*(g**k for g, k in zip(gens, e)))
            for e, q in self.terms.items()))
