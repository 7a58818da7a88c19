"""Generalized twisted Bernoulli numbers and polynomials, and twisted power sums.

A TwistContext fixes a modulus d, a Dirichlet character chi mod d, and a root
of unity xi of exact finite order.  The Bernoulli numbers attached to the pair
are the EGF coefficients of

    t * sum_{a<d} chi(a) xi^a e^{at} / (xi^d e^{dt} - 1),

built, like every quotient of such factors in the package, by the one exact
builder factor_quotient.  A consequence pinned by the tests: B_0 = 0
whenever xi^d != 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .characters import DirichletCharacter, enumerate_characters
from .cyclo import CycloNumber, cyclo_field, embed_into
from .report import CheckReport
from .series import PowerSeries, first_difference


class TwistContext:
    """Modulus d, character chi mod d, twist root xi, and their common field.

    Values are immutable; per-context caches (Bernoulli tables, power sums,
    twisted variants) are filled lazily and are safe for concurrent reads
    once built.
    """

    __slots__ = ("chi", "xi", "d", "xi_order", "p", "s", "field",
                 "_chi_vals", "_xi_pows", "_bern", "_psums", "_twists",
                 "_bpoly_cache")

    def __init__(self, chi: DirichletCharacter, xi: CycloNumber,
                 p: int | None = None, s: int | None = None):
        self.chi = chi
        self.d = chi.modulus
        r = xi.multiplicative_order()
        self.xi_order = r
        if p is not None:
            if s is None:
                s = 0
                while p**s < r:
                    s += 1
            if p**s != r:
                raise ValueError("xi order is not the stated prime power")
        self.p = p
        self.s = s if p is not None else None

        m = chi.order
        if m <= 2:
            field = xi.field
        else:
            field = cyclo_field(math.lcm(xi.field.order, m))
        self.field = field
        self.xi = embed_into(xi, field)

        vals = []
        for a in range(self.d):
            k = chi.value_exponent(a)
            if k is None:
                vals.append(field.zero)
            elif m <= 2:
                vals.append(field.one if k == 0 else -field.one)
            else:
                vals.append(field.root((field.order // m) * k))
        self._chi_vals = tuple(vals)

        pows = [field.one]
        for _ in range(r - 1):
            pows.append(pows[-1] * self.xi)
        self._xi_pows = tuple(pows)

        self._bern: list[CycloNumber] | None = None
        self._psums: dict = {}
        self._twists: dict = {}
        self._bpoly_cache: dict = {}

    @classmethod
    def from_orders(cls, d: int, char_index: int = 0, xi_order: int = 1,
                    xi_exp: int = 1, p: int | None = None,
                    s: int | None = None) -> "TwistContext":
        """Build from primitive selectors: the char_index-th character mod d
        (enumeration order) and xi = zeta_{xi_order}^xi_exp."""
        chars = enumerate_characters(d)
        if not 0 <= char_index < len(chars):
            raise ValueError(f"character index out of range (0..{len(chars) - 1})")
        if xi_order < 1:
            raise ValueError("xi order must be >= 1")
        if math.gcd(xi_exp, xi_order) != 1:
            raise ValueError("xi exponent must be coprime to its order")
        xi = cyclo_field(xi_order).root(xi_exp)
        return cls(chars[char_index], xi, p=p, s=s)

    # -- cached evaluations ---------------------------------------------------

    def chi_at(self, a: int) -> CycloNumber:
        return self._chi_vals[a % self.d]

    def xi_pow(self, j: int) -> CycloNumber:
        return self._xi_pows[j % self.xi_order]

    def twist(self, c: int) -> "TwistContext":
        """The context with xi replaced by xi^c (character unchanged)."""
        key = c % self.xi_order
        ctx = self._twists.get(key)
        if ctx is None:
            if key == 0 and self.xi_order == 1:
                ctx = self
            else:
                ctx = TwistContext(self.chi, self._xi_pows[key])
            self._twists[key] = ctx
        return ctx

    def params(self) -> dict:
        return {"d": self.d, "chi_exponents": list(self.chi.exponents),
                "xi": self.xi.to_json_dict()}

    def __repr__(self):
        return (f"TwistContext(d={self.d}, chi={list(self.chi.exponents)}, "
                f"xi_order={self.xi_order})")


# -- series building blocks -----------------------------------------------

def char_sum_series(ctx: TwistContext, scale: int, truncation: int) -> PowerSeries:
    """sum_{a<d} chi(a) xi^(a*scale) e^(a*scale*t), truncated."""
    coeffs = [ctx.field.zero] * (truncation + 1)
    for a in range(ctx.d):
        cv = ctx.chi_at(a)
        if cv.is_zero():
            continue
        base = cv * ctx.xi_pow(a * scale)
        ac = a * scale
        for j in range(truncation + 1):
            coeffs[j] = coeffs[j] + base * Fraction(ac**j, math.factorial(j))
    return PowerSeries(coeffs)


def twist_unit_series(ctx: TwistContext, scale: int, truncation: int) -> PowerSeries:
    """xi^(d*scale) e^(d*scale*t) - 1, truncated."""
    u = ctx.xi_pow(ctx.d * scale)
    dc = ctx.d * scale
    coeffs = [u - 1]
    for j in range(1, truncation + 1):
        coeffs.append(u * Fraction(dc**j, math.factorial(j)))
    return PowerSeries(coeffs)


def factor_quotient(ctx: TwistContext, t_power: int, num: list, den: list,
                    truncation: int) -> PowerSeries:
    """t^t_power * prod(num) / prod(den), exact to t^truncation.

    A factor is ("unit", c), the series xi^(dc) e^(dct) - 1, or ("sum", c),
    the character sum sum_{a<d} chi(a) xi^(ac) e^(act).  Each denominator
    unit with xi^(dc) = 1 (vanish of them) gives up one t, and the quotient
    owes t^(vanish - t_power) when that is positive; dividing it out raises
    ValueError if t does not divide.  num and den are non-empty, and every
    factor is built to exactly the length the result needs.
    """
    # looked up per call, so wrappers set on the module attributes (as
    # perfbench/tracing.py does) see every factor built here
    make = {"unit": twist_unit_series, "sum": char_sum_series}
    vanish = sum(1 for kind, c in den
                 if kind == "unit" and ctx.xi_pow(ctx.d * c).is_one())
    shift = t_power - vanish
    length = max(truncation - shift, 0)

    def product(factors, upto):
        return reduce(operator.mul, [make[kind](ctx, c, upto)
                                     for kind, c in factors])

    bottom = product(den, length + vanish)
    if vanish:
        bottom = bottom.divide_by_t(vanish)
    q = product(num, length) * bottom.invert()
    if shift < 0:
        return q.divide_by_t(-shift)
    return q.shift_up(shift).truncate(truncation)


def bernoulli_gf(ctx: TwistContext, truncation: int) -> PowerSeries:
    """The Bernoulli generating function t*T/(xi^d e^{dt} - 1) as a series,
    T = sum_{a<d} chi(a) xi^a e^{at}."""
    return factor_quotient(ctx, 1, [("sum", 1)], [("unit", 1)], truncation)


@dataclass
class BernoulliTable:
    """B_0..B_N for one context, exactly the EGF coefficients times n!."""

    context: TwistContext
    values: list

    def __getitem__(self, n: int):
        return self.values[n]

    def __len__(self):
        return len(self.values)


def _bern_values(ctx: TwistContext, n_max: int) -> list:
    tab = ctx._bern
    if tab is None or len(tab) <= n_max:
        if tab is not None:  # grow geometrically: few rebuilds for rising n
            n_max = max(n_max, 2 * len(tab))
        gf = bernoulli_gf(ctx, n_max)
        tab = [gf.egf(n) for n in range(n_max + 1)]
        ctx._bern = tab
    return tab


def bernoulli_numbers(ctx: TwistContext, n_max: int) -> BernoulliTable:
    """Table of generalized twisted Bernoulli numbers B_0..B_{n_max}."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return BernoulliTable(ctx, _bern_values(ctx, n_max)[:n_max + 1])


def plain_twisted_numbers(xi: CycloNumber, n_max: int) -> list:
    """EGF coefficients of t/(xi e^t - 1); classical Bernoulli numbers at xi=1."""
    ctx = TwistContext(enumerate_characters(1)[0], xi)
    return bernoulli_numbers(ctx, n_max).values


def bernoulli_polynomial(ctx: TwistContext, n: int, x):
    """B_n(x) = sum_k C(n,k) B_k x^(n-k); x may be rational, cyclotomic, or SymPoly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    bern = _bern_values(ctx, n)
    if isinstance(x, int):
        x = Fraction(x)
    xp = [(x * 0) + 1] if not isinstance(x, Fraction) else [Fraction(1)]
    for _ in range(n):
        xp.append(xp[-1] * x)
    acc = bern[n] * xp[0]
    for k in range(n):
        acc = acc + bern[k] * (xp[n - k] * math.comb(n, k))
    return acc


def bernoulli_polynomial_gf(ctx: TwistContext, n: int, x):
    """Independent construction of B_n(x): n! [t^n] e^{xt} * (number GF)."""
    if isinstance(x, (int, Fraction)):
        x = ctx.field.from_rational(x)
    ex = PowerSeries.exp_scaled(x, n)
    return (bernoulli_gf(ctx, n) * ex).egf(n)


def power_sum(ctx: TwistContext, k: int, n: int) -> CycloNumber:
    """S_k(n) = sum_{a=0}^{n} chi(a) xi^a a^k, with the convention 0^0 = 1."""
    if k < 0 or n < 0:
        raise ValueError("k and n must be >= 0")
    key = (k, n)
    val = ctx._psums.get(key)
    if val is not None:
        return val
    acc = ctx.field.zero
    for a in range(n + 1):
        cv = ctx.chi_at(a)
        if cv.is_zero():
            continue
        acc = acc + cv * ctx.xi_pow(a) * Fraction(a**k)
    ctx._psums[key] = acc
    return acc


def powersum_gf_check(ctx: TwistContext, w: int, k_max: int) -> CheckReport:
    """Check the three expressions of the power-sum EGF quotient identity.

    Side A: (xi^{dw} e^{dwt} - 1)/(xi^d e^{dt} - 1) * sum_{a<d} chi(a) xi^a e^{at},
    from factor_quotient (when xi^d = 1 both units lose their t).
    Side B: sum_{a<dw} chi(a) xi^a e^{at} summed directly.
    Side C: sum_k S_k(dw-1) t^k / k! from the power sums.
    """
    if w < 1:
        raise ValueError("w must be >= 1")
    if k_max < 0:
        raise ValueError("truncation must be >= 0")
    d = ctx.d
    params = dict(ctx.params(), w=w, k_max=k_max)
    side_a = factor_quotient(ctx, 0, [("unit", w), ("sum", 1)], [("unit", 1)],
                             k_max)

    coeffs = [ctx.field.zero] * (k_max + 1)
    for a in range(d * w):
        cv = ctx.chi_at(a)
        if cv.is_zero():
            continue
        base = cv * ctx.xi_pow(a)
        for i in range(k_max + 1):
            coeffs[i] = coeffs[i] + base * Fraction(a**i, math.factorial(i))
    side_b = PowerSeries(coeffs)

    side_c = PowerSeries([power_sum(ctx, k, d * w - 1) / math.factorial(k)
                          for k in range(k_max + 1)])

    for name, lhs, rhs in (("quotient-vs-direct", side_a, side_b),
                           ("direct-vs-powersum", side_b, side_c)):
        diff = first_difference(lhs, rhs)
        if diff is not None:
            i, lc, rc = diff
            return CheckReport("powersum_gf_check", params, False,
                               f"{name} first differs at t^{i}: {lc} vs {rc}")
    return CheckReport("powersum_gf_check", params, True)
