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
from itertools import repeat

from .characters import DirichletCharacter, character
from .cyclo import CycloNumber, cyclo_field
from .report import CheckReport, first_mismatch
from .series import PowerSeries


class TwistContext:
    """Modulus d, character chi mod d, twist root xi, and their common field.

    Values are immutable; per-context caches are filled lazily and are safe
    for concurrent reads once built: the Bernoulli table (_bern), the
    power-sum tables per bound (_psums), the twisted contexts (_twists),
    the factor tables of factor_table (_factors), which quotients and the
    S pieces of symmetry's rows read, and the B piece tables of
    symmetry._bpoly (_bpoly_cache).
    """

    __slots__ = ("chi", "xi", "d", "xi_order", "p", "s", "field",
                 "_chi_roots", "_xi_root", "_xi_pows", "_bern",
                 "_psums", "_twists", "_factors", "_bpoly_cache")

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

        # Every value is a root of unity sign * zeta_L^e, kept as (sign, e):
        # xi, and chi(a) for a < d (None where chi(a) = 0).
        L = field.order
        sign, e = xi.root_exponent()
        e *= L // xi.field.order
        self._xi_root = (sign, e)
        roots = []
        for a in range(self.d):
            k = chi.value_exponent(a)
            if k is None:
                roots.append(None)
            elif m <= 2:  # chi(a) = (-1)^k
                roots.append((-1 if k else 1, 0))
            else:
                roots.append((1, (L // m) * k))
        self._chi_roots = tuple(roots)
        self.xi = _signed_root(field, sign, e)
        self._xi_pows = tuple(_signed_root(field, sign**j, e * j)
                              for j in range(r))

        self._bern: list[CycloNumber] | None = None
        self._psums: dict = {}
        self._twists: dict = {}
        self._factors: dict = {}
        self._bpoly_cache: dict = {}

    @classmethod
    def from_orders(cls, d: int, char_index: int = 0, xi_order: int = 1,
                    xi_exp: int = 1, p: int | None = None,
                    s: int | None = None) -> "TwistContext":
        """Build from primitive selectors: the char_index-th character mod d
        (enumeration order) and xi = zeta_{xi_order}^xi_exp."""
        chi = character(d, char_index)
        if xi_order < 1:
            raise ValueError("xi order must be >= 1")
        if math.gcd(xi_exp, xi_order) != 1:
            raise ValueError("xi exponent must be coprime to its order")
        xi = cyclo_field(xi_order).root(xi_exp)
        return cls(chi, xi, p=p, s=s)

    # -- cached evaluations ---------------------------------------------------

    def chi_at(self, a: int) -> CycloNumber:
        x = self._chi_roots[a % self.d]
        return self.field.zero if x is None else _signed_root(self.field, *x)

    def xi_pow(self, j: int) -> CycloNumber:
        return self._xi_pows[j % self.xi_order]

    def twist(self, c: int) -> "TwistContext":
        """The context with xi replaced by xi^c (character unchanged)."""
        key = c % self.xi_order
        if key == 1 % self.xi_order:  # xi^c = xi
            return self
        ctx = self._twists.get(key)
        if ctx is None:
            ctx = self._twists[key] = TwistContext(self.chi, self._xi_pows[key])
        return ctx

    def params(self) -> dict:
        return {"d": self.d, "chi_exponents": list(self.chi.exponents),
                "xi": self.xi.to_json_dict()}

    def __repr__(self):
        return (f"TwistContext(d={self.d}, chi={list(self.chi.exponents)}, "
                f"xi_order={self.xi_order})")


def _signed_root(field, sign: int, e: int) -> CycloNumber:
    z = field.root(e)
    return z if sign == 1 else -z


# -- series building blocks -----------------------------------------------

def char_sum_series(ctx: TwistContext, scale: int, truncation: int,
                    bound: int | None = None) -> PowerSeries:
    """sum_{a<=bound} chi(a) xi^(a*scale) e^(a*scale*t), truncated, with
    bound d - 1 by default: the t^j coefficient is scale^j/j! times
    S_j(bound) of the twist xi^scale."""
    if bound is None:
        bound = ctx.d - 1
    sums = power_sums(ctx.twist(scale), truncation, bound)
    return PowerSeries([sums[j] * Fraction(scale**j, math.factorial(j))
                        for j in range(truncation + 1)])


def twist_unit_series(ctx: TwistContext, scale: int, truncation: int) -> PowerSeries:
    """xi^(d*scale) e^(d*scale*t) - 1, truncated."""
    u = ctx.xi_pow(ctx.d * scale)
    dc = ctx.d * scale
    coeffs = [u - 1]
    for j in range(1, truncation + 1):
        coeffs.append(u * Fraction(dc**j, math.factorial(j)))
    return PowerSeries(coeffs)


def factor_table(ctx: TwistContext, key: tuple, upto: int) -> tuple:
    """The coefficients of one factor series to t^upto.  Key ("unit", c) is
    xi^(dc) e^(dct) - 1, and ("sum", c) or ("sum", c, bound) is the
    character sum sum_{a<=bound} chi(a) xi^(ac) e^(act), bound d - 1 by
    default.  Each table is built once per context and kept in
    ctx._factors, a bound of d - 1 under ("sum", c); a longer one than
    cached is built to at least twice the cached length."""
    if key[2:] == (ctx.d - 1,):
        key = key[:2]
    table = ctx._factors.get(key)
    if table is None or len(table) <= upto:
        # grow geometrically, as _bern_values does
        build = upto if table is None else max(upto, 2 * len(table))
        # module globals, read per call: wrappers set on the module
        # attributes (as perfbench/tracing.py does) see every build
        make = twist_unit_series if key[0] == "unit" else char_sum_series
        table = ctx._factors[key] = make(ctx, key[1], build, *key[2:]).coeffs
    return table[:upto + 1]


def factor_quotient(ctx: TwistContext, t_power: int, num: list, den: list,
                    truncation: int) -> PowerSeries:
    """t^t_power * prod(num) / prod(den), exact to t^truncation.

    A factor is a key of factor_table: ("unit", c), the series
    xi^(dc) e^(dct) - 1, or ("sum", c), the character sum
    sum_{a<d} chi(a) xi^(ac) e^(act).  Each denominator unit with
    xi^(dc) = 1 (vanish of them) gives up one t, and the quotient owes
    t^(vanish - t_power) when that is positive; dividing it out raises
    ValueError if t does not divide.  num and den are non-empty.  The
    factors are read from factor_table, and nothing else is cached: the
    products are formed here in the order of num and den, and the
    numerator product is divided by the denominator product.
    """
    vanish = sum(1 for kind, c in den
                 if kind == "unit" and ctx.xi_pow(ctx.d * c).is_one())
    shift = t_power - vanish
    length = max(truncation - shift, 0)

    def product(factors, upto):
        return reduce(operator.mul, [PowerSeries(factor_table(ctx, key, upto))
                                     for key in factors])

    bottom = product(den, length + vanish)
    if vanish:
        bottom = bottom.divide_by_t(vanish)
    q = product(num, length).divide(bottom)
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
    ctx = TwistContext(character(1, 0), xi)
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


def power_sums(ctx: TwistContext, k: int, n: int) -> list:
    """[S_0(n), .., S_k(n)] (or longer), S_j(n) = sum_{a<=n} chi(a) xi^a a^j
    with 0^0 = 1, from one table per bound n in ctx._psums, grown in place.
    A nonzero chi(a) xi^a is a root of unity sign * zeta_L^e, read off the
    context's (sign, exponent) records, so S_j(n) is the integer combination
    of the root vectors zeta_L^e with the weights sign * sum a^j over the
    points a of each (e, sign); no field product is formed."""
    if k < 0 or n < 0:
        raise ValueError("k and n must be >= 0")
    table = ctx._psums.setdefault(n, [])
    if len(table) <= k:
        field, d = ctx.field, ctx.d
        xi_sign, xi_e = ctx._xi_root
        points: dict[tuple, list] = {}  # (e, sign) -> [a]
        for a in range(n + 1):
            c = ctx._chi_roots[a % d]
            if c is not None:
                sign, e = c
                if xi_sign == -1 and a & 1:
                    sign = -sign
                points.setdefault(((e + a * xi_e) % field.order, sign),
                                  []).append(a)
        keys = sorted(points)  # roots asked for in rising order
        columns = (list(zip(*(field.root(e).num for e, _ in keys)))
                   or [()] * field.degree)
        for j in range(len(table), k + 1):
            weights = [sign * sum(map(pow, points[e, sign], repeat(j)))
                       for e, sign in keys]
            table.append(CycloNumber(field, tuple(
                sum(map(operator.mul, weights, col)) for col in columns)))
    return table


def power_sum(ctx: TwistContext, k: int, n: int) -> CycloNumber:
    """S_k(n) = sum_{a<=n} chi(a) xi^a a^k, read from the power_sums table."""
    return power_sums(ctx, k, n)[k]


def powersum_gf_check(ctx: TwistContext, w: int, k_max: int) -> CheckReport:
    """Check the three expressions of the power-sum EGF quotient identity.

    Side A: (xi^{dw} e^{dwt} - 1)/(xi^d e^{dt} - 1) * sum_{a<d} chi(a) xi^a e^{at},
    from factor_quotient (when xi^d = 1 both units lose their t).
    Side B: sum_{a<dw} chi(a) xi^a e^{at} summed directly, not via power_sums.
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

    detail = first_mismatch(
        (("quotient-vs-direct first differs", side_a, side_b),
         ("direct-vs-powersum first differs", side_b, side_c)))
    return CheckReport("powersum_gf_check", params, detail is None, detail)
