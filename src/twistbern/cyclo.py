"""Exact arithmetic in cyclotomic fields Q(zeta_L), the numeric base of the package.

Elements are represented in Q[x]/Phi_L(x) as phi(L) integer numerators over
one shared positive denominator, the layout of FLINT's fmpq_poly and ANTIC's
nf_elem.  Every element is kept canonical (gcd(den, *num) == 1, zero is
(0, ..., 0)/1), so equality of field elements is a comparison of integer
tuples.  A sum is ``_sum`` and a product of two elements is ``dot`` (``*``
is a one-pair ``dot``, which reduces its integer convolutions once by
``_fold``); both canonicalise in one place, ``_canonical``.  The operators
coerce int and Fraction operands, so callers pass scalars as they are.
``dot`` chooses its convolution per pair: from _PACK_DEGREE on, a pair of
operands with two or more nonzero terms each is one big-int product of
Kronecker-packed numerators, and a one-term operand goes outside the
schoolbook loop that every other pair takes.  ``product`` is the Cauchy
product of sequences: it keeps integer rows over the product of the
factors' denominators, multiplied as scalar sums at degree 1 and 2 and
each factor's rows packed once from _PACK_DEGREE on, until one
``_canonical`` per final coefficient, which also applies a rational
constant.  A ``RowTable`` is a sequence stored in that row form,
which ``product`` takes as it is; the caches of the exact path hold
their tables so.  A root of unity is an exponent f of zeta_M,
M = lcm(2, L), which ``CycloField.root_terms`` maps to zeta_L.  1/(u - 1)
for a root of unity u is a root sum
(``inverse_root_minus_one``), with no inverse taken: the exact path's one
division, the Apostol table of zeta_R that each field Q(zeta_R) keeps
(``CycloField._apostol``, built in bernoulli), starts from it.
``quotient`` divides two general sequences, for ``PowerSeries`` only: the
package's series are these coefficient sequences.  Inversion is an
extended Euclid in Z[x].  ``_fold`` is the one reduction of an integer
polynomial mod Phi_L, through a chain of sparse
multiples of Phi_L down to Phi_L, save the rows of a degree-2 row
product, which take its one step x^2 = -c0 - c1*x in place; a root of
unity is a folded unit vector, and ``CycloField.root_sum`` folds integer
combinations of them.  Rational
coordinates are available as Fractions through ``coeffs``.  All values are
immutable and every operation is exact; there is no floating point
anywhere.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache

# Rational scalars are stdlib Fractions: arbitrary precision, always reduced
# with positive denominator.
Rational = Fraction


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorization; desk-scale moduli only."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Integer coefficients (constant term first) of the order-th cyclotomic polynomial.

    Phi_order(x) = Phi_r(x^(order/r)) for r = rad(order), the product of
    the primes dividing order, and Phi_r is the Moebius product
    prod_{q | r} (x^(r/q) - 1)^mu(q): the factors with mu = 1 are
    multiplied in first, then those with mu = -1 are divided out exactly,
    each step O(r).  Monic of degree phi(order).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    # (q, mu(q)) for the squarefree divisors q of order
    moebius = [(1, 1)]
    for p in factorize(order):
        moebius += [(q * p, -mu) for q, mu in moebius]
    r = max(q for q, _ in moebius)
    poly = [1]
    for q, mu in moebius:
        if mu == 1:  # times x^d - 1
            d = r // q
            prod = [-c for c in poly] + [0] * d
            for i, c in enumerate(poly, d):
                prod[i] += c
            poly = prod
    for q, mu in moebius:
        if mu == -1:  # exact quotient by x^d - 1: quo_i = quo_(i-d) - poly_i
            d = r // q
            quo = []
            for i in range(len(poly) - d):
                quo.append((quo[i - d] if i >= d else 0) - poly[i])
            poly = quo
    m = order // r
    out = [0] * ((len(poly) - 1) * m + 1)
    out[::m] = poly
    return tuple(out)


def _content_sign(r: list[int]) -> int:
    # Content of a nonzero integer polynomial, signed so that dividing by it
    # leaves a positive leading coefficient (r is trimmed: r[-1] != 0).
    g = math.gcd(*r)
    return -g if r[-1] < 0 else g


def _trim(r: list[int]) -> list[int]:
    while len(r) > 1 and not r[-1]:
        r.pop()
    return r


def _pseudo_divmod(a: list[int], b: list[int]):
    """(q, r, e) with lc(b)^e * a = q*b + r and deg r < deg b, all over Z.

    a and b are trimmed integer polynomials with deg a >= deg b.  The scaling
    by lc(b) is applied only at steps that need it, so e = 0 when b is monic.
    """
    db = len(b) - 1
    lead = b[-1]
    low = [(j, bj) for j, bj in enumerate(b[:db]) if bj]
    r = list(a)
    n = len(a) - db
    q = [0] * n
    e = 0
    for i in range(n - 1, -1, -1):
        c = r[i + db]
        if not c:
            continue
        if lead != 1:
            for k in range(i + db):
                r[k] *= lead
            for k in range(i + 1, n):
                q[k] *= lead
            e += 1
        q[i] = c
        for j, bj in low:
            r[i + j] -= c * bj
    return q, _trim(r[:db]), e


def _poly_inverse(a: list[int], modulus: tuple[int, ...]) -> tuple[list[int], int]:
    """(s, m) with s*a = m (mod modulus), m a nonzero integer.

    Extended Euclid in Z[x] that tracks only the cofactor of a: every
    remainder is replaced by its primitive part (its content moves into m),
    and each cofactor pair (s, m) is divided by its common content, so the
    integers stay small without any rational arithmetic.
    """
    r0, r1 = list(modulus), _trim(list(a))
    c = _content_sign(r1)
    r1 = [x // c for x in r1]
    # invariants: s0*a = m0*r0 and s1*a = m1*r1 (mod modulus)
    s0, m0, s1, m1 = [0], 1, [1], c
    while len(r1) > 1:
        q, r, e = _pseudo_divmod(r0, r1)
        if not any(r):
            raise ArithmeticError("modulus is not coprime to the element")
        # lead^e*r0 = q*r1 + r  gives  (m1*lead^e*s0 - m0*q*s1)*a = m0*m1*r
        k0 = m1 * r1[-1] ** e
        s = [k0 * x for x in s0] + [0] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            if qi:
                qi *= m0
                for j, sj in enumerate(s1):
                    if sj:
                        s[i + j] -= qi * sj
        c = _content_sign(r)
        r = [x // c for x in r]
        m = m0 * m1 * c
        g = math.gcd(m, *s)
        r0, r1 = r1, r
        s0, m0, s1, m1 = s1, m1, [x // g for x in s], m // g
    return s1, m1


class CycloField:
    """The cyclotomic field Q(zeta_L), L = order, as Q[x]/Phi_L(x).

    Its roots of unity are the powers zeta_M^f, M = period = lcm(2, L),
    since Q(zeta_L) = Q(zeta_2L) for odd L.  Besides the requested roots
    (_roots, by f mod M), a field keeps at most one table (_apostol): the
    RowTable of 1/(zeta_L e^x - 1), or x/(e^x - 1) at L = 1, built lazily
    by bernoulli's ``_apostol_table``, which reads every root u of order L
    of any field from it at zeta_L -> u.
    """

    __slots__ = ("order", "period", "modulus", "degree", "_steps", "_roots",
                 "zero", "one", "_apostol")

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("field order must be >= 1")
        self.order = order
        self.period = math.lcm(2, order)
        self.modulus = cyclotomic_polynomial(order)
        self.degree = deg = len(self.modulus) - 1
        self._steps = _fold_steps(order, self.modulus)
        self._roots: dict[int, CycloNumber] = {}
        self._apostol = None
        self.zero = CycloNumber(self, (0,) * deg, 1)
        self.one = CycloNumber(self, (1,) + (0,) * (deg - 1), 1)

    def from_rational(self, q) -> CycloNumber:
        q = Fraction(q)
        return CycloNumber(self, (q.numerator,) + (0,) * (self.degree - 1),
                           q.denominator)

    def element(self, coeffs) -> CycloNumber:
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != self.degree:
            raise ValueError("coefficient vector has wrong length for this field")
        den = math.lcm(*(c.denominator for c in coeffs))
        return CycloNumber(self, tuple(c.numerator * (den // c.denominator)
                                       for c in coeffs), den)

    def root(self, k: int) -> CycloNumber:
        """zeta_L^k = zeta_M^(kM/L)."""
        return self.zeta(k * (self.period // self.order))

    def zeta(self, f: int) -> CycloNumber:
        """zeta_M^f, folded by ``_fold`` once and cached by f mod M."""
        f %= self.period
        z = self._roots.get(f)
        if z is None:
            z = self._roots[f] = self.root_sum(self.root_terms(((f, 1),)))
        return z

    def root_terms(self, terms) -> list:
        """The pairs (f, w) of sum w zeta_M^f as ``root_sum``'s pairs (e, w')
        of zeta_L, 0 <= e < L, all at once: for odd L, zeta_M is
        -zeta_L^((L+1)/2), the field's one basis map of roots."""
        L = self.order
        if L == self.period:
            return [(f % L, w) for f, w in terms]
        h = (L + 1) // 2
        return [(f * h % L, -w if f & 1 else w) for f, w in terms]

    def root_sum(self, terms) -> CycloNumber:
        """sum w * zeta_L^e over the integer pairs (e, w) of terms: the
        coefficients w are added into x^(e mod L) and folded once."""
        v = [0] * self.order
        for e, w in terms:
            v[e % self.order] += w
        return CycloNumber(self, tuple(_fold(self, v)), 1)

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.order == self.order

    def __hash__(self):
        return hash(("CycloField", self.order))

    def __repr__(self):
        return f"CycloField({self.order})"


@lru_cache(maxsize=None)
def cyclo_field(order: int) -> CycloField:
    return CycloField(order)


def _fold_steps(order: int, modulus: tuple) -> tuple:
    """``_fold``'s multiples of Phi_L in falling degree top, as (top, pairs)
    with x^top = sum c * x^j over the pairs (j, c): x^(L/2) = -1 (even L) or
    x^L = 1 (odd L), then Phi_{L/r}(x^r) for r the product of the largest
    odd primes that divide L exactly, one prime fewer each step, down to
    Phi_L at r = 1 (Phi_m(x^p) = Phi_mp(x) Phi_m(x) for a prime p not
    dividing m); a step no lower than the one before is left out."""
    h, s = (order // 2, -1) if order % 2 == 0 else (order, 1)
    steps = [(h, ((0, s),))]
    primes = sorted(p for p, e in factorize(order).items() if e == 1 and p > 2)
    for i in range(len(primes) + 1):
        r = math.prod(primes[i:])
        poly = modulus if r == 1 else cyclotomic_polynomial(order // r)
        if (len(poly) - 1) * r < steps[-1][0]:
            steps.append(((len(poly) - 1) * r, tuple(
                (j * r, -c) for j, c in enumerate(poly[:-1]) if c)))
    return tuple(steps)


def _fold(field: CycloField, v: list) -> list:
    """v mod Phi_L as degree coordinates, for integer coefficients v (constant
    term first, at least degree of them): the one reduction by Phi_L, which
    consumes v.  Each step (top, pairs) of ``_fold_steps`` folds v from the
    top by x^top = sum c * x^j; no table of x^k mod Phi_L is kept."""
    i = len(v)
    for top, pairs in field._steps:
        while i > top:
            i -= 1
            c = v[i]
            if c:
                k = i - top
                for j, cj in pairs:
                    v[k + j] += c * cj
    return v[:field.degree]


def _canonical(field: CycloField, num, den: int) -> CycloNumber:
    # num/den with den != 0, brought to canonical form
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = tuple(c // g for c in num)
        den //= g
    return CycloNumber(field, tuple(num), den)


def _sum(field: CycloField, a: tuple, da: int, b, db: int) -> CycloNumber:
    """a/da + b/db for canonical operands: both numerators over lcm(da, db),
    brought to canonical form by ``_canonical``, the one reduction of every
    sum as of every product."""
    den = math.lcm(da, db)
    sa, sb = den // da, den // db
    return _canonical(field, [x * sa + y * sb for x, y in zip(a, b)], den)


class CycloNumber:
    """An element of Q(zeta_L): integer coordinates num w.r.t. 1, zeta, ...,
    over one positive denominator den.

    The form is canonical (gcd(den, *num) == 1, zero is (0, ..., 0)/1), so
    equality and hashing compare the integer tuples directly; a rational
    element hashes as the Fraction it equals.  The
    constructor is internal: it trusts its arguments to be canonical and
    does not check them.  Build elements with ``CycloField.element``,
    ``CycloField.from_rational``, ``CycloField.root`` or arithmetic.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """The rational coordinates, as Fractions (a read-only view)."""
        d = self.den
        return tuple(Fraction(c, d) for c in self.num)

    def _lift(self, other):
        if isinstance(other, CycloNumber):
            if other.field.order != self.field.order:
                raise ValueError("field mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    # -- ring/field operations --------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _sum(self.field, self.num, self.den, o.num, o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _sum(self.field, self.num, self.den,
                    tuple(map(operator.neg, o.num)), o.den)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycloNumber(self.field, tuple(map(operator.neg, self.num)),
                           self.den)

    def _scale(self, p: int, q: int) -> CycloNumber:
        # self * p/q for coprime p, q with q > 0; cancelling gcd(den, p) and
        # gcd(q, *num) beforehand leaves the result canonical
        if not p:
            return self.field.zero
        num, den = self.num, self.den
        if den != 1:
            g = math.gcd(den, p)
            if g != 1:
                p //= g
                den //= g
        if q != 1:
            h = math.gcd(q, *num)
            if h != 1:
                num = tuple([c // h for c in num])
                q //= h
            den *= q
        if p != 1:
            num = tuple([c * p for c in num])
        return CycloNumber(self.field, num, den)

    def __mul__(self, other):
        if isinstance(other, CycloNumber):
            return dot(self.field, (self,), (other,))
        if isinstance(other, int):
            return self._scale(other, 1)
        if isinstance(other, Fraction):
            return self._scale(other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> CycloNumber:
        """Multiplicative inverse via the extended Euclidean algorithm in Z[x]."""
        if self.is_zero():
            raise ZeroDivisionError("zero divisor")
        f = self.field
        s, m = _poly_inverse(list(self.num), f.modulus)
        s = [c * self.den for c in s] + [0] * (f.degree - len(s))
        return _canonical(f, s, m)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("zero divisor")
            return self * (1 / Fraction(other))
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- predicates and hashing -------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if not isinstance(other, CycloNumber):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.field.from_rational(other)
        return (other.field.order == self.field.order
                and other.den == self.den and other.num == self.num)

    def __hash__(self):
        if not any(self.num[1:]):  # equal to an int or Fraction: hash as it
            return hash(Fraction(self.num[0], self.den))
        return hash((self.field.order, self.num, self.den))

    # -- roots of unity -----------------------------------------------------

    def root_exponent(self) -> int:
        """f with self = zeta_M^f and 0 <= f < M, M the field's period.

        Found by one walk over x^e mod Phi_L, each step folded by ``_fold``,
        that caches nothing, as zeta_L^e = zeta_M^(eM/L) or its negative
        zeta_M^(eM/L + M/2); raises if the element is not a root of unity.
        """
        if self.is_zero():
            raise ValueError("zero is not a root of unity")
        field = self.field
        M = field.period
        if self.den == 1:
            num = list(self.num)
            neg = [-c for c in num]
            v = list(field.one.num)
            for e in range(field.order):
                if v == num:
                    return e * M // field.order
                if v == neg:
                    return (e * M // field.order + M // 2) % M
                v = _fold(field, [0] + v)
        raise ValueError("element is not a root of unity")

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        d = self.den  # each num/den in lowest terms, as str(Fraction) prints it
        return {"L": self.field.order, "coeffs": [
            str(c // g) if (g := math.gcd(c, d)) == d else f"{c // g}/{d // g}"
            for c in self.num]}

    def __repr__(self):
        return f"CycloNumber(L={self.field.order}, {list(map(str, self.coeffs))})"

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                z = f"z{self.field.order}" if i == 1 \
                    else f"z{self.field.order}^{i}"
                if c == 1:
                    parts.append(z)
                elif c == -1:
                    parts.append(f"-{z}")
                else:
                    parts.append(f"{c}*{z}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


# From this field degree on, products pack their integer rows (Kronecker
# substitution): one big-int product per pair of rows beats the
# O(degree^2) schoolbook loop there, and below it the loop is faster.  dot
# packs per pair of dense operands, and ``product`` packs each factor's rows
# once.  At degree 1 and 2 (Q, Q(i), Q(zeta_3)), where nearly every product
# of the package runs, ``product`` neither packs nor loops: it unpacks each
# row pair into its one or two integers and adds their 2*degree - 1
# products into scalar sums (``_scalar_times``).
_PACK_DEGREE = 12


def dot(field: CycloField, xs, ys) -> CycloNumber:
    """sum(x * y for x, y in zip(xs, ys)) for CycloNumbers of one field;
    the one product kernel of elements, since x * y is dot(field, (x,), (y,)).

    The integer convolutions of the pairs with two nonzero operands are
    accumulated unreduced over one common denominator; the sum is reduced
    once by ``_fold`` and brought to canonical form by one gcd.
    """
    order = field.order
    pairs = []
    den = 1
    for x, y in zip(xs, ys):
        if ((x.field is not field and x.field.order != order)
                or (y.field is not field and y.field.order != order)):
            raise ValueError("field mismatch")
        if any(x.num) and any(y.num):
            d = x.den * y.den
            pairs.append((x.num, y.num, d))
            if d != den:
                den = math.lcm(den, d)
    deg = field.degree
    if deg == 1:
        return _canonical(field, (sum(a[0] * b[0] * (den // d)
                                      for a, b, d in pairs),), den)
    acc = [0] * (2 * deg - 1)
    if deg >= _PACK_DEGREE:
        dense, school, one = [], [], deg - 1
        for a, b, d in pairs:  # a one-term operand goes outside the loop
            if b.count(0) == one:
                school.append((b, a, d))
            elif a.count(0) == one:
                school.append((a, b, d))
            else:
                dense.append((a, b, d))
        if dense:
            acc = _packed_convolution(dense, den, deg)
        pairs = school
    for a, b, d in pairs:
        if d != den:
            s = den // d
            a = [s * c for c in a]
        _convolve_into(acc, a, b)
    return _canonical(field, _fold(field, acc), den)


def _convolve_into(acc: list, a, b) -> None:
    # acc[i + j] += a_i * b_j, the schoolbook loop over the nonzero a_i
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                acc[k] += ai * bj


def quotient(field: CycloField, a, b) -> list:
    """The coefficients of the series quotient a / b of two sequences of
    CycloNumbers, truncated to the shorter; b_0 must be nonzero: coefficient
    k is q_k = (a_k - sum_{i=1..k} b_i q_(k-i)) * b_0^-1, one ``dot`` each.
    Only ``PowerSeries.divide`` divides so."""
    b0 = b[0]
    if b0.is_zero():
        raise ValueError("not invertible: the divisor's constant term is 0")
    inv0 = b0.inverse()
    a = a[:len(b)]
    tail = b[1:len(a)]
    out = [a[0] * inv0]
    for ak in a[1:]:
        out.append((ak - dot(field, tail, reversed(out))) * inv0)
    return out


def inverse_root_minus_one(field: CycloField, f: int) -> CycloNumber:
    """1/(u - 1) for the root of unity u = zeta_M^f != 1, M = the field's
    period, with no inverse taken: u of exact order m = M/gcd(f, M) has
    sum_{j<m} j u^j = m/(u - 1) (L. C. Washington, Introduction to
    Cyclotomic Fields, ch. 2), one ``root_sum`` of the weights j at the
    exponents f*j, times 1/m."""
    m = field.period // math.gcd(f, field.period)
    return field.root_sum(field.root_terms(
        (f * j, j) for j in range(1, m)))._scale(1, m)


class RowTable:
    """A sequence of CycloNumbers in ``product``'s row form: its nonzero
    terms below length as (k, integer numerators) rows in rising k, over
    one positive denominator den, not necessarily in lowest terms.  Built
    from elements by ``_rows`` and from integer rows by ``_lowest``;
    ``elements`` is the one reader of its coefficients."""

    __slots__ = ("field", "rows", "den", "length")

    def __init__(self, field: CycloField, rows: list, den: int, length: int):
        self.field = field
        self.rows = rows
        self.den = den
        self.length = length

    def __len__(self):
        return self.length

    def elements(self) -> tuple:
        """The coefficients, canonical CycloNumbers, zeros included."""
        out = [self.field.zero] * self.length
        for k, row in self.rows:
            out[k] = _canonical(self.field, row, self.den)
        return tuple(out)


def product(field: CycloField, seqs, n: int, const=1) -> list:
    """The first n coefficients of const times the Cauchy product of seqs,
    multiplied in the order given: each a RowTable, taken as it is, or a
    sequence of CycloNumbers, brought to row form by ``_rows``; const is
    an int or Fraction, and n is cut to the shortest sequence.  The one
    product of series, as ``dot`` is of elements.

    Integer rows are multiplied: ``_row_times`` multiplies each factor into
    the running product, whose rows stay folded integers over the product
    of the denominators, and only the final coefficients are brought to
    canonical form, each row times const by one ``_canonical``.
    """
    tables = [seq if isinstance(seq, RowTable)
              else _rows(field, seq, min(n, len(seq))) for seq in seqs]
    for table in tables:
        if table.length < n:
            n = table.length
        if table.field is not field and table.field.order != field.order:
            raise ValueError("field mismatch")
    rows, den = _head(tables[0].rows, n), tables[0].den
    for table in tables[1:]:
        rows, den = _row_times(field, rows, den, table, n)
    p, den = const.numerator, den * const.denominator  # int or Fraction
    out = [field.zero] * n
    for k, row in rows:
        out[k] = _canonical(field, row if p == 1 else [c * p for c in row],
                            den)
    return out


def _head(rows: list, n: int) -> list:
    # the rows (k, numerators) with k < n, of rows in rising k
    return rows[:bisect_left(rows, n, key=operator.itemgetter(0))]


def _rows(field: CycloField, seq, n: int) -> RowTable:
    """The RowTable of seq[:n]: its nonzero terms as (k, integer numerators)
    rows over their least common denominator."""
    order = field.order
    terms, den = [], 1
    for k in range(n):
        x = seq[k]
        if x.field is not field and x.field.order != order:
            raise ValueError("field mismatch")
        if any(x.num):
            terms.append((k, x))
            if x.den != den:
                den = math.lcm(den, x.den)
    return RowTable(field, [
        (k, x.num if x.den == den else [c * (den // x.den) for c in x.num])
        for k, x in terms], den, n)


def _lowest(field: CycloField, rows, den: int, length: int) -> RowTable:
    """The RowTable of the (k, integer numerators) rows over den > 0, in
    rising k, with its zero rows dropped and brought to lowest terms by one
    gcd: the row form that ``_rows`` gives the elements they hold."""
    rows = [(k, row) for k, row in rows if any(row)]
    g = den
    for _, row in rows:
        if g == 1:
            break
        g = math.gcd(g, *row)
    if g != 1:
        rows = [(k, [x // g for x in row]) for k, row in rows]
        den //= g
    return RowTable(field, rows, den, length)


def _row_times(field: CycloField, left: list, lden: int, table: RowTable,
               n: int) -> tuple:
    """The rows (left / lden) * table to n terms, as (rows, lden * den)
    with den the table's denominator: folded integer rows, with no gcd
    taken.  At degree 1 and 2 a row pair is unpacked into its integers and
    multiplied into 2*degree - 1 scalar sums per output index; from
    _PACK_DEGREE on every row below n is packed once, at one digit width
    that holds each coefficient of the product, where both sides have
    rows; between them, the schoolbook loop.  From degree 3 on each output
    row is reduced by ``_fold``; ``_scalar_times`` folds its own rows."""
    deg = field.degree
    if deg <= 2:
        return _scalar_times(field, left, table.rows, n), lden * table.den
    right, rden = _head(table.rows, n), table.den
    acc = [None] * n
    if deg >= _PACK_DEGREE and left and right:
        # no coefficient, nor digit of a or b, exceeds sum |a|_1 * max |b|
        width = _digit_width(sum(sum(map(abs, a)) for _, a in left) * max(
            max(map(abs, b)) for _, b in right))
        right = [(j, _pack(b, width)) for j, b in right]
        for i, a in left:
            a = _pack(a, width)
            for j, b in right:
                k = i + j
                if k >= n:
                    break
                acc[k] = a * b if acc[k] is None else acc[k] + a * b
        acc = [v if v is None else _unpack(v, width, 2 * deg - 1)
               for v in acc]
    else:
        for i, a in left:
            for j, b in right:
                k = i + j
                if k >= n:
                    break
                if acc[k] is None:
                    acc[k] = [0] * (2 * deg - 1)
                _convolve_into(acc[k], a, b)
    rows = []
    for k, c in enumerate(acc):
        if c is not None:
            c = _fold(field, c)
            if any(c):
                rows.append((k, c))
    return rows, lden * rden


def _scalar_times(field: CycloField, left: list, right: list,
                  n: int) -> list:
    """``_row_times``' folded rows at degree 1 or 2, where a row is one or
    two integers: each pair of rows adds a0*b0 to s0[k], and at degree 2
    a0*b1 + a1*b0 to s1[k] and a1*b1 to s2[k], k the sum of their
    indices, with no call per pair.  The rows of right may run past n:
    each left row stops at its first pair past n, so they are not cut.  At
    degree 1 (L = 1, 2) s0[k] is the row as it stands.  At degree 2 (L = 3,
    4, 6) each (s0[k], s1[k], s2[k]) is folded in place by
    x^2 = -c0 - c1*x, Phi_L = c0 + c1*x + x^2:
    the one step of ``_fold`` there, with no call and no list per row."""
    s0 = [0] * n
    if field.degree == 1:
        for i, (a0,) in left:
            for j, (b0,) in right:
                k = i + j
                if k >= n:
                    break
                s0[k] += a0 * b0
        return [(k, [c]) for k, c in enumerate(s0) if c]
    s1, s2 = [0] * n, [0] * n
    for i, (a0, a1) in left:
        for j, (b0, b1) in right:
            k = i + j
            if k >= n:
                break
            s0[k] += a0 * b0
            s1[k] += a0 * b1 + a1 * b0
            s2[k] += a1 * b1
    c0, c1 = field.modulus[:2]
    rows = []
    for k, (x0, x1, x2) in enumerate(zip(s0, s1, s2)):
        if x2:
            x0 -= c0 * x2
            x1 -= c1 * x2
        if x0 or x1:
            rows.append((k, (x0, x1)))
    return rows


def _digit_width(bound: int) -> int:
    # bytes per packed digit, with 2^(8*width - 1) > bound
    return bound.bit_length() // 8 + 1


def _pack(v, width: int) -> int:
    # sum c_i 2^(8*width*i), |c_i| < 2^(8*width-1), in linear time: the
    # digits offset as _unpack's, as one byte string, less the offsets
    half = 1 << (8 * width - 1)
    raw = b"".join([(c + half).to_bytes(width, "little") for c in v])
    return int.from_bytes(raw, "little") - int.from_bytes(
        half.to_bytes(width, "little") * len(v), "little")


def _unpack(total: int, width: int, n: int) -> list:
    # the n signed digits of width bytes of total, each below 2^(8*width-1)
    # in absolute value: adding 2^(8*width-1) to every digit makes them all
    # nonnegative, and one byte string holds them
    half = 1 << (8 * width - 1)
    raw = (total + int.from_bytes(half.to_bytes(width, "little") * n, "little")
           ).to_bytes(width * n, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half
            for i in range(0, width * n, width)]


def _packed_convolution(pairs, den: int, deg: int) -> list:
    """The 2*deg-1 coefficients of sum (den/d) * a * b over the pairs.

    Each numerator is packed as sum c_i 2^(8*width*i), so one big-int
    product per pair forms its whole convolution (D. Harvey, J. Symbolic
    Comput. 44, 2009).  No coefficient of the sum exceeds the bound, sum
    over the pairs of (den/d) * |a|_1 * max|b|, so digits of width bytes
    with 2^(8*width-1) > bound hold each signed one (``_digit_width``).
    """
    bound = 0
    for a, b, d in pairs:
        bound += den // d * sum(map(abs, a)) * max(map(abs, b))
    width = _digit_width(bound)
    total = 0
    for a, b, d in pairs:
        prod = _pack(a, width) * _pack(b, width)
        total += prod if d == den else den // d * prod
    return _unpack(total, width, 2 * deg - 1)
