"""Exact multivariate polynomials in the symbolic variables y, y1, y2, y3.

Coefficients are CycloNumbers of one fixed field; zero coefficients are never
stored, so equality is exact term-by-term identity.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclo import CycloField, CycloNumber

VARIABLES = ("y", "y1", "y2", "y3")
_ZEXP = (0, 0, 0, 0)


class SymPoly:
    """Polynomial in (y, y1, y2, y3) over a cyclotomic field."""

    __slots__ = ("field", "terms")

    def __init__(self, field: CycloField, terms: dict):
        self.field = field
        self.terms = terms  # exponent 4-tuple -> nonzero CycloNumber

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: CycloNumber) -> "SymPoly":
        return cls(value.field, {} if value.is_zero() else {_ZEXP: value})

    @classmethod
    def zero(cls, field: CycloField) -> "SymPoly":
        return cls(field, {})

    @classmethod
    def one(cls, field: CycloField) -> "SymPoly":
        return cls(field, {_ZEXP: field.one})

    @classmethod
    def variable(cls, name: str, field: CycloField) -> "SymPoly":
        exps = [0, 0, 0, 0]
        exps[VARIABLES.index(name)] = 1
        return cls(field, {tuple(exps): field.one})

    # -- coercion -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SymPoly):
            if other.field.order != self.field.order:
                raise ValueError("field mismatch")
            return other
        if isinstance(other, CycloNumber):
            if other.field.order != self.field.order:
                raise ValueError("field mismatch")
            return SymPoly.constant(other)
        if isinstance(other, (int, Fraction)):
            return SymPoly.constant(self.field.from_rational(other))
        return None

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
        return SymPoly(self.field, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return SymPoly(self.field, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber)):
            if (isinstance(other, CycloNumber)
                    and other.field.order != self.field.order):
                raise ValueError("field mismatch")
            if not other:
                return SymPoly(self.field, {})
            # an int or Fraction only rescales each c; no field product
            return SymPoly(self.field,
                           {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, SymPoly):
            return NotImplemented
        if other.field.order != self.field.order:
            raise ValueError("field mismatch")
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = (e1[0] + e2[0], e1[1] + e2[1],
                       e1[2] + e2[2], e1[3] + e2[3])
                p = c1 * c2
                s = out.get(key)
                if s is None:
                    out[key] = p
                else:
                    s = s + p
                    if s.is_zero():
                        del out[key]
                    else:
                        out[key] = s
        return SymPoly(self.field, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = SymPoly.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "SymPoly":
        """Inverse of a constant polynomial (used by series inversion)."""
        if len(self.terms) == 1 and _ZEXP in self.terms:
            return SymPoly.constant(self.terms[_ZEXP].inverse())
        raise ZeroDivisionError("zero divisor" if not self.terms
                                else "non-constant polynomial is not invertible")

    # -- queries ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: tuple[int, int, int, int]) -> CycloNumber:
        return self.terms.get(exps, self.field.zero)

    def constant_part(self) -> CycloNumber:
        return self.terms.get(_ZEXP, self.field.zero)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber)):
            o = self._coerce(other)
            return self.terms == o.terms
        if not isinstance(other, SymPoly):
            return NotImplemented
        return (other.field.order == self.field.order
                and other.terms == self.terms)

    def __hash__(self):
        if self.terms.keys() <= {_ZEXP}:  # a constant equals its value
            return hash(self.constant_part())
        return hash((self.field.order, frozenset(self.terms.items())))

    def __repr__(self):
        return f"SymPoly({self.field.order}, {str(self)})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_print_order):
            cs = str(self.terms[e])
            if " " in cs:
                cs = f"({cs})"
            parts.append(f"{cs}*{monomial(e)}" if any(e) else cs)
        return " + ".join(parts)


def _print_order(e: tuple) -> tuple:
    return sum(e), e


def monomial(e: tuple) -> str:
    """The monomial with exponent key e as printed; '1' for the constant."""
    return "*".join(v if k == 1 else f"{v}^{k}"
                    for v, k in zip(VARIABLES, e) if k) or "1"


def lift(scales: tuple, F, n: int, factor) -> SymPoly:
    """factor * n! [t^n] of e^{(s.y) t} F(t), (y, s_y) in scales for the
    exponent slot y, over F's field: the one writer of SymPoly monomials
    from a form (scales, F).  y^t gets factor * F_{n-|t|} * (n! prod
    s_y^t_y // prod t_y!), an integer weight: one scaling each."""
    fact = [math.factorial(j) for j in range(n + 1)]
    # (exponent key, |t|, prod s_y^t_y, prod t_y!) over the monomials y^t
    monos = [(_ZEXP, 0, 1, 1)]
    for slot, scale in scales:
        monos = [(key[:slot] + (t,) + key[slot + 1:], deg + t,
                  num * scale**t, den * fact[t])
                 for key, deg, num, den in monos for t in range(n - deg + 1)]
    return SymPoly(F[0].field, {
        key: F[n - deg] * (factor * (fact[n] * num // den))
        for key, deg, num, den in monos if F[n - deg]})


def first_difference(a: SymPoly, b: SymPoly):
    """Exponent key and pair of coefficients of the first monomial, in
    printing order, where a and b differ; None if they are equal."""
    for e in sorted(a.terms.keys() | b.terms.keys(), key=_print_order):
        ca, cb = a.coefficient(e), b.coefficient(e)
        if ca != cb:
            return e, ca, cb
    return None
