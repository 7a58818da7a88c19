"""Truncated formal power series in t with exact coefficients.

Coefficients may be CycloNumbers or SymPolys (anything with exact ring
operators).  Coefficients are stored plain; the n! rescaling of exponential
generating functions happens only in egf(), so multiplication stays an
ordinary Cauchy product.  Binary operations truncate to the shorter operand.
With CycloNumber coefficients a product is ``cyclo.product`` of the two
coefficient sequences (factor_quotient and the expansion forms call that
kernel with whole chains of factors), and every coefficient of a quotient
is one ``cyclo.dot`` call; other coefficient rings use the plain loop.
``divide`` forms a quotient of two series by one recurrence, and
``invert`` is ``divide`` applied to the series 1.
"""

from __future__ import annotations

import math

from .cyclo import CycloNumber, Rational, dot, product


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

    def __neg__(self):
        return PowerSeries([-a for a in self.coeffs])

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
        b0 = other.coeffs[0]
        if b0.is_zero():
            raise ValueError("not invertible; use divide_by_t first")
        inv0 = b0.inverse()
        a = self.coeffs[:len(other.coeffs)]
        tail = other.coeffs[1:len(a)]
        out = [a[0] * inv0]
        if type(b0) is CycloNumber:
            for ak in a[1:]:
                out.append((ak - dot(b0.field, tail, reversed(out))) * inv0)
            return PowerSeries(out)
        for k in range(1, len(a)):
            acc = tail[0] * out[k - 1]
            for i in range(2, k + 1):
                acc = acc + tail[i - 1] * out[k - i]
            out.append((a[k] - acc) * inv0)
        return PowerSeries(out)

    def divide_by_t(self, k: int = 1) -> "PowerSeries":
        """Shift down by t^k; the k lowest coefficients must vanish."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > self.truncation:
            raise ValueError(f"not divisible by t^{k}")
        if any(not c.is_zero() for c in self.coeffs[:k]):
            raise ValueError(f"not divisible by t^{k}")
        return PowerSeries(self.coeffs[k:])

    def shift_up(self, k: int) -> "PowerSeries":
        """Multiply by t^k (truncation grows by k)."""
        if k == 0:
            return self
        zero = self.coeffs[0] * 0
        return PowerSeries((zero,) * k + self.coeffs)

    # -- access ---------------------------------------------------------------

    def egf(self, n: int):
        """n! times the t^n coefficient (the EGF coefficient)."""
        return self.coeffs[n] * math.factorial(n)

    def truncate(self, truncation: int) -> "PowerSeries":
        if truncation > self.truncation:
            raise ValueError("cannot extend a truncated series")
        return PowerSeries(self.coeffs[:truncation + 1])

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        inner = ", ".join(str(c) for c in self.coeffs[:8])
        if len(self.coeffs) > 8:
            inner += ", ..."
        return f"PowerSeries([{inner}]; N={self.truncation})"


def first_difference(a: PowerSeries, b: PowerSeries):
    """Index and pair of the first differing coefficient, or None if equal."""
    for i in range(min(len(a.coeffs), len(b.coeffs))):
        if a.coeffs[i] != b.coeffs[i]:
            return i, a.coeffs[i], b.coeffs[i]
    return None
