"""Exact arithmetic in cyclotomic fields Q(zeta_L), the numeric base of the package.

Elements are represented in Q[x]/Phi_L(x) as phi(L) integer numerators over
one shared positive denominator, the layout of FLINT's fmpq_poly and ANTIC's
nf_elem.  Every element is kept canonical (gcd(den, *num) == 1, zero is
(0, ..., 0)/1), so equality of field elements is a comparison of integer
tuples.  Every product of two elements is ``dot``: ``*`` is a one-pair
``dot``, which sums integer convolutions, reduces the sum once by fixed
integer rows of x^k mod Phi_L and takes one gcd.  ``dot`` alone chooses the
convolution by degree: a schoolbook loop below _PACK_DEGREE, one big-int
product of Kronecker-packed numerators from there on.  Inversion is an
extended Euclid in Z[x].
Roots of unity zeta_L^e are walked up by the shift x * v mod Phi_L, and
Phi_L itself is a Moebius product of the binomials x^d - 1.
Rational coordinates are available as Fractions through ``coeffs``.  All
values are immutable and every operation is exact; there is no floating
point anywhere.
"""

from __future__ import annotations

import math
import operator
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

    Computed as the Moebius product prod_{d | order} (x^d - 1)^mu(order/d):
    the factors with mu = 1 are multiplied in first, then those with
    mu = -1 are divided out exactly, each step O(order).  Monic of degree
    phi(order).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    # (q, mu(q)) for the squarefree divisors q of order
    moebius = [(1, 1)]
    for p in factorize(order):
        moebius += [(q * p, -mu) for q, mu in moebius]
    poly = [1]
    for q, mu in moebius:
        if mu == 1:  # times x^d - 1
            d = order // q
            prod = [-c for c in poly] + [0] * d
            for i, c in enumerate(poly, d):
                prod[i] += c
            poly = prod
    for q, mu in moebius:
        if mu == -1:  # exact quotient by x^d - 1: quo_i = quo_(i-d) - poly_i
            d = order // q
            quo = []
            for i in range(len(poly) - d):
                quo.append((quo[i - d] if i >= d else 0) - poly[i])
            poly = quo
    return tuple(poly)


def _times_x(v: list, low: tuple) -> None:
    # v <- x * v mod Phi_L in place; low holds the nonzero (index,
    # coefficient) pairs of x^degree mod Phi_L
    top = v.pop()
    v.insert(0, 0)
    if top:
        for j, c in low:
            v[j] += top * c


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
    """The cyclotomic field Q(zeta_L), L = order, as Q[x]/Phi_L(x)."""

    __slots__ = ("order", "modulus", "degree", "_low", "_red", "_roots",
                 "zero", "one")

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("field order must be >= 1")
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.degree = deg = len(self.modulus) - 1
        # Reduction rows: x^k mod Phi_L for k = degree .. 2*degree-2, kept
        # as the (index, integer coefficient) pairs of their nonzero entries.
        # Phi_L is monic, so x^degree = -(Phi_L - x^degree); its pairs are
        # the step of every shift x * v mod Phi_L.
        cur = [-c for c in self.modulus[:-1]]
        self._low = tuple((i, c) for i, c in enumerate(cur) if c)
        rows = []
        for _ in range(deg - 1):
            rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
            _times_x(cur, self._low)
        self._red = tuple(rows)
        self._roots: dict[int, CycloNumber] = {}
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
        """zeta_L^k, reduced mod Phi_L; k is taken mod L.

        x^e is a unit vector for e < degree.  Above that it is walked up by
        x^(e+1) = x * x^e mod Phi_L, O(degree) per step, from the nearest
        cached root below e; only the requested root is cached.
        """
        e = k % self.order
        z = self._roots.get(e)
        if z is None:
            roots, deg = self._roots, self.degree
            b = e
            while b >= deg and b not in roots:
                b -= 1
            if b < deg:
                v = [0] * deg
                v[b] = 1
            else:
                v = list(roots[b].num)
            for _ in range(b, e):
                _times_x(v, self._low)
            z = roots[e] = CycloNumber(self, tuple(v), 1)
        return z

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.order == self.order

    def __hash__(self):
        return hash(("CycloField", self.order))

    def __repr__(self):
        return f"CycloField({self.order})"


@lru_cache(maxsize=None)
def cyclo_field(order: int) -> CycloField:
    return CycloField(order)


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
    """a/da + b/db for canonical operands, reduced as Fraction addition is.

    Only primes of gcd(da, db) can divide the result's content and
    denominator together, so the final gcd is taken against that alone.
    """
    if da == db:
        num = tuple(map(operator.add, a, b))
        if da == 1:
            return CycloNumber(field, num, 1)
        g = math.gcd(da, *num)
        if g == 1:
            return CycloNumber(field, num, da)
        return CycloNumber(field, tuple(c // g for c in num), da // g)
    g = math.gcd(da, db)
    if g == 1:
        return CycloNumber(field, tuple(x * db + y * da for x, y in zip(a, b)),
                           da * db)
    sa, sb = da // g, db // g
    num = tuple(x * sb + y * sa for x, y in zip(a, b))
    g = math.gcd(g, *num)
    if g == 1:
        return CycloNumber(field, num, sa * db)
    return CycloNumber(field, tuple(c // g for c in num), sa * (db // g))


class CycloNumber:
    """An element of Q(zeta_L): integer coordinates num w.r.t. 1, zeta, ...,
    over one positive denominator den.

    The form is canonical (gcd(den, *num) == 1, zero is (0, ..., 0)/1), so
    equality and hashing compare the integer tuples directly.  The
    constructor is internal: it trusts its arguments to be canonical and
    does not check them.  Build elements with ``CycloField.element``,
    ``CycloField.from_rational``, ``CycloField.root`` or arithmetic.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num: tuple, den: int = 1):
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
        if isinstance(other, CycloNumber):
            f = self.field
            if other.field is not f and other.field.order != f.order:
                raise ValueError("field mismatch")
            return _sum(f, self.num, self.den, other.num, other.den)
        if isinstance(other, int):
            n = self.num
            return CycloNumber(self.field, (n[0] + other * self.den,) + n[1:],
                               self.den)
        if isinstance(other, Fraction):
            return _sum(self.field, self.num, self.den,
                        (other.numerator,) + (0,) * (self.field.degree - 1),
                        other.denominator)
        return NotImplemented

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
            q = Fraction(other)
            if q.numerator < 0:
                return self._scale(-q.denominator, -q.numerator)
            return self._scale(q.denominator, q.numerator)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

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

    def is_one(self) -> bool:
        return self.den == 1 and self.num == self.field.one.num

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        return (other.field.order == self.field.order
                and other.den == self.den and other.num == self.num)

    def __hash__(self):
        return hash((self.field.order, self.num, self.den))

    # -- rational view ------------------------------------------------------

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def root_exponent(self) -> tuple[int, int]:
        """(sign, e) with self = sign * zeta_L^e and 0 <= e < L.

        The sign is -1 only for odd L, where -1 is no power of zeta_L.  Found
        by one walk over x^e mod Phi_L that caches nothing; raises if the
        element is not a root of unity.
        """
        if self.is_zero():
            raise ValueError("zero is not a root of unity")
        f = self.field
        if self.den == 1:
            num = list(self.num)
            neg = [-c for c in num] if f.order % 2 else None
            v = list(f.one.num)
            for e in range(f.order):
                if v == num:
                    return 1, e
                if v == neg:
                    return -1, e
                _times_x(v, f._low)
        raise ValueError("element is not a root of unity")

    def multiplicative_order(self) -> int:
        """Exact order as a root of unity; raises if the element is not one."""
        sign, e = self.root_exponent()
        r = self.field.order // math.gcd(e, self.field.order)
        return r if sign == 1 else 2 * r

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"L": self.field.order, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json_dict(d: dict) -> "CycloNumber":
        return cyclo_field(d["L"]).element([Fraction(s) for s in d["coeffs"]])

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


# From this field degree on, dot packs its operands (Kronecker substitution):
# one big-int product per pair beats the O(degree^2) schoolbook loop there,
# and below it the loop is faster.  dot alone reads it; * is a one-pair dot.
_PACK_DEGREE = 12


def dot(field: CycloField, xs, ys) -> CycloNumber:
    """sum(x * y for x, y in zip(xs, ys)) for CycloNumbers of one field;
    the one product kernel, since x * y is dot(field, (x,), (y,)).

    The integer convolutions of the pairs with two nonzero operands are
    accumulated unreduced over one common denominator; the sum is reduced by
    the rows of x^k mod Phi_L once and brought to canonical form by one gcd.
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
    if deg >= _PACK_DEGREE:
        acc = _packed_convolution(pairs, den, deg)
    else:
        acc = [0] * (2 * deg - 1)
        for a, b, d in pairs:
            if d != den:
                s = den // d
                a = [s * c for c in a]
            for i, ai in enumerate(a):
                if ai:
                    for k, bj in enumerate(b, i):
                        acc[k] += ai * bj
    out = acc[:deg]
    for ck, row in zip(acc[deg:], field._red):
        if ck:
            for i, ri in row:
                out[i] += ck * ri
    return _canonical(field, out, den)


def _packed_convolution(pairs, den: int, deg: int) -> list:
    """The 2*deg-1 coefficients of sum (den/d) * a * b over the pairs.

    Each numerator is packed as sum c_i 2^(bits*i), so one big-int product
    per pair forms its whole convolution (D. Harvey, J. Symbolic Comput. 44,
    2009).  No coefficient of the sum exceeds the bound, sum over the pairs
    of (den/d) * |a|_1 * max|b|, so digits of bits (a multiple of 8) with
    2^(bits-1) > bound hold each signed one; adding 2^(bits-1) to every
    digit makes them all nonnegative, and one byte string unpacks them.
    """
    bound = 0
    for a, b, d in pairs:
        bound += den // d * sum(map(abs, a)) * max(map(abs, b))
    width = bound.bit_length() // 8 + 1  # bytes per digit
    bits = 8 * width

    def pack(v):
        packed = 0
        for c in reversed(v):
            packed = (packed << bits) + c
        return packed

    total = 0
    for a, b, d in pairs:
        prod = pack(a) * pack(b)
        total += prod if d == den else den // d * prod
    n = 2 * deg - 1
    half = 1 << (bits - 1)
    raw = (total + int.from_bytes(half.to_bytes(width, "little") * n, "little")
           ).to_bytes(width * n, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half
            for i in range(0, width * n, width)]


def embed_into(x: CycloNumber, field: CycloField) -> CycloNumber:
    """Embed x in a larger cyclotomic field via zeta_L -> zeta_L'^(L'/L).

    The target order must be a multiple of the source order; the map is a
    ring homomorphism.
    """
    if x.field.order == field.order:
        return x if x.field is field else CycloNumber(field, x.num, x.den)
    if field.order % x.field.order:
        raise ValueError("target field order must be a multiple of the source")
    step = field.order // x.field.order
    acc = [0] * field.degree
    for i, c in enumerate(x.num):
        if c:
            for j, r in enumerate(field.root(step * i).num):
                if r:
                    acc[j] += c * r
    return _canonical(field, acc, x.den)

