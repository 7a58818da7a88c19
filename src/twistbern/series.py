"""Truncated formal power series in t with exact coefficients.

The exact path keeps its series as coefficient tuples, multiplied by
``cyclo.product`` and divided only by units, through one Apostol table per
root order (``bernoulli._apostol_table``); ``PowerSeries`` is the display
type of ``symmetry.quotient_series`` and a container for the tests.
Coefficients may be CycloNumbers or SymPolys (anything with exact
ring operators), stored plain: the n! rescaling of exponential generating
functions happens only in egf(), so multiplication stays an ordinary
Cauchy product.  Binary operations truncate to the shorter operand.  When
both operands have CycloNumber coefficients, ``*`` and ``divide`` hand
them to ``cyclo.product`` and ``cyclo.quotient``; other coefficient rings
use the plain loops.  ``invert`` is ``divide`` applied to the series 1.
"""

from __future__ import annotations

import math

from .cyclo import CycloNumber, Rational, product, quotient


class PowerSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def exp_scaled(cls, c, truncation: int) -> "PowerSeries":
        """sum_{j<=truncation} c^j t^j / j!  (the series of e^{ct})."""
        if truncation < 0:
            raise ValueError("truncation must be >= 0")
        one = (c * 0) + 1
        coeffs = [one]
        for j in range(1, truncation + 1):
            coeffs.append(coeffs[-1] * c / Rational(j))  # exact for int c too
        return cls(coeffs)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        return PowerSeries([a + b for a, b in
                            zip(self.coeffs[:n], other.coeffs[:n])])

    def __sub__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        return PowerSeries([a - b for a, b in
                            zip(self.coeffs[:n], other.coeffs[:n])])

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            # scalar or ring-element multiplication
            return PowerSeries([a * other for a in self.coeffs])
        n = min(len(self.coeffs), len(other.coeffs))
        a, b = self.coeffs, other.coeffs
        if type(a[0]) is CycloNumber and type(b[0]) is CycloNumber:
            return PowerSeries(product(a[0].field, (a, b), n))
        out = []
        for k in range(n):
            acc = a[0] * b[k]
            for i in range(1, k + 1):
                acc = acc + a[i] * b[k - i]
            out.append(acc)
        return PowerSeries(out)

    def __rmul__(self, other):
        return PowerSeries([other * a for a in self.coeffs])

    def invert(self) -> "PowerSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        one = self.coeffs[0] * 0 + 1
        return PowerSeries([one] + [one * 0] * self.truncation).divide(self)

    def divide(self, other: "PowerSeries") -> "PowerSeries":
        """self / other, truncated to the shorter operand; other needs a
        nonzero constant term b_0.  Coefficient k is
        q_k = (a_k - sum_{i=1..k} b_i q_(k-i)) * b_0^-1."""
        a, b = self.coeffs, other.coeffs
        if type(a[0]) is CycloNumber and type(b[0]) is CycloNumber:
            return PowerSeries(quotient(b[0].field, a, b))
        if b[0].is_zero():
            raise ValueError("not invertible: the divisor's constant term is 0")
        inv0 = b[0].inverse()
        out = [a[0] * inv0]
        for k in range(1, min(len(a), len(b))):
            acc = b[1] * out[k - 1]
            for i in range(2, k + 1):
                acc = acc + b[i] * out[k - i]
            out.append((a[k] - acc) * inv0)
        return PowerSeries(out)

    # -- access ---------------------------------------------------------------

    def egf(self, n: int):
        """n! times the t^n coefficient (the EGF coefficient)."""
        return self.coeffs[n] * math.factorial(n)

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        inner = ", ".join(str(c) for c in self.coeffs[:8])
        if len(self.coeffs) > 8:
            inner += ", ..."
        return f"PowerSeries([{inner}]; N={self.truncation})"

