"""Generalized twisted Bernoulli numbers and polynomials, and twisted power sums.

A TwistContext fixes a modulus d, a Dirichlet character chi mod d, and a root
of unity xi of exact finite order.  The Bernoulli numbers attached to the pair
are the EGF coefficients of

    t * sum_{a<d} chi(a) xi^a e^{at} / (xi^d e^{dt} - 1),

read by ``bernoulli_gf``.  Each root of unity is an exponent f of zeta_M,
M = lcm(2, L), of order M/gcd(f, M).  Every quotient in the package is,
as in the paper, numerator units, each over ct, and one p-adic integral
c t I_c per scale c, I_c the ("ratio", c) table (over t where
xi^(dc) = 1), and a table row is one with no units whose Bernoulli pieces
are scales: ``quotient_plan`` derives its constant and power of t, and
``keyed_quotient``, the one evaluator, keeps it in the context's form
store and evaluates it as one ``cyclo.product`` of stored
``cyclo.RowTable``s, one table of the units in closed form, one ratio
table per scale and a row's character-sum tables.
The integral of scale 1, d^-v T(t) g_lambda(dt) (T the character sum,
lambda = xi^d, v = 1 iff lambda = 1, g_u(x) = 1/(u e^x - 1) the
Apostol-Bernoulli generating function), is the package's one division:
one table per twist, built by ``_ratio_table`` in the small field
Q(zeta_R), R the order of lambda, where that is a proper subfield of
Q(zeta_L) and phi(L) > 2, and otherwise in Q(zeta_L).  It has three
readers: bernoulli_gf is the plan of t I_1; since rescaling t by c is
replacing xi by xi^c, the ratio table of a scale c != 1 is the table of
the twist xi^c (one per class c mod xi's order, kept in the twist's
context) read at t -> ct; and a row's Bernoulli seed [c^j B_j/j!] is
the plan of c t I_c.  Each g_u reads the one table of its order R,
that of zeta_R, kept by Q(zeta_R).  Every such table is built to exactly
the length asked, and rebuilt, never doubled, when a longer one is asked
for.  A consequence pinned by the tests: B_0 = 0 whenever xi^d != 1.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .characters import DirichletCharacter, character
from .cyclo import (CycloNumber, RowTable, _canonical, _fold, _head, _lowest,
                    _row_times, _rows, cyclo_field, dot,
                    inverse_root_minus_one, product)
from .report import CheckReport, first_mismatch


class TwistContext:
    """Character chi mod d and twist root xi in their common field; no prime.

    Values are immutable; per-context caches are filled lazily and are safe
    for concurrent reads once built: the Bernoulli GF's last truncation
    (_bern; its stored form is the one copy of the Bernoulli numbers, grown
    geometrically), the power-sum tables per bound (_psums), the twisted
    contexts (_twists), and the factor tables of factor_table (_factors),
    which plans read, among them one units table per multiset of numerator
    units, one ratio table per scale and the sum tables of the rows' pieces,
    each a RowTable stored in that one form, the forms keyed_quotient has
    evaluated (_forms: plan -> its coefficients to the longest t^n asked,
    one entry per plan, whose slices serve every shorter n), and xi's JSON
    for params() (_xi_json).  The ("ratio", 1) table is the context's one
    scale-1 table: the Bernoulli GF's plan reads it, and so do the ratio
    tables (at t -> ct) of every scale c whose twist xi^c this context is.
    The Apostol tables it reads are kept by Q(zeta_R), one per root order R,
    and shared by every context of every field.  xi and each chi(a) are kept
    as exponents of zeta_M (_xi_root, _chi_roots), and no power of xi is
    stored: xi_pow reads it from the field's root cache, which holds only
    the roots asked for.
    """

    __slots__ = ("chi", "xi", "d", "xi_order", "field",
                 "_chi_roots", "_xi_root", "_bern",
                 "_psums", "_twists", "_factors", "_forms", "_xi_json")

    def __init__(self, chi: DirichletCharacter, xi: CycloNumber):
        self.chi = chi
        self.d = chi.modulus
        f = xi.root_exponent()  # xi = zeta_M^f in its own field, walked once
        self.xi_order = xi.field.period // math.gcd(f, xi.field.period)

        m = chi.order
        if m <= 2:
            field = xi.field
        else:
            field = cyclo_field(math.lcm(xi.field.order, m))
        self.field = field

        # xi and chi(a) = zeta_m^k, a < d, as exponents of the field's zeta_M
        M = field.period
        self._xi_root = f * (M // xi.field.period)
        self._chi_roots = tuple(None if k is None else M // m * k
                                for k in chi.value_exponents())
        self.xi = field.zeta(self._xi_root)

        self._bern = -1
        self._psums: dict = {}
        self._twists: dict = {}
        self._factors: dict = {}
        self._forms: dict = {}
        self._xi_json: dict | None = None

    @classmethod
    def from_orders(cls, d: int, char_index: int = 0, xi_order: int = 1,
                    xi_exp: int = 1) -> "TwistContext":
        """Build from primitive selectors: the char_index-th character mod d
        (enumeration order) and xi = zeta_{xi_order}^xi_exp, of any order."""
        chi = character(d, char_index)
        if xi_order < 1:
            raise ValueError("xi order must be >= 1")
        if math.gcd(xi_exp, xi_order) != 1:
            raise ValueError("xi exponent must be coprime to its order")
        xi = cyclo_field(xi_order).root(xi_exp)
        return cls(chi, xi)

    # -- cached evaluations ---------------------------------------------------

    def chi_at(self, a: int) -> CycloNumber:
        f = self._chi_roots[a % self.d]
        return self.field.zero if f is None else self.field.zeta(f)

    def xi_pow(self, j: int) -> CycloNumber:
        """xi^j, read from the field's root cache by xi's exponent: only the
        powers asked for are built."""
        return self.field.zeta(self._xi_root * j)

    def twist(self, c: int) -> "TwistContext":
        """The context with xi replaced by xi^c (character unchanged)."""
        key = c % self.xi_order
        if key == 1 % self.xi_order:  # xi^c = xi
            return self
        ctx = self._twists.get(key)
        if ctx is None:
            ctx = self._twists[key] = TwistContext(self.chi, self.xi_pow(key))
        return ctx

    def params(self) -> dict:
        """d, chi's exponents and xi as JSON, a fresh dict with fresh lists
        per call, so no two reports share a part; xi is rendered once."""
        xi = self._xi_json
        if xi is None:
            xi = self._xi_json = self.xi.to_json_dict()
        return {"d": self.d, "chi_exponents": list(self.chi.exponents),
                "xi": dict(xi, coeffs=list(xi["coeffs"]))}

    def __repr__(self):
        return (f"TwistContext(d={self.d}, chi={list(self.chi.exponents)}, "
                f"xi_order={self.xi_order})")


# -- series building blocks -----------------------------------------------

def char_sum_series(ctx: TwistContext, scale: int, truncation: int,
                    bound: int | None = None, t_scale=None) -> RowTable:
    """The RowTable of sum_{a<=bound} chi(a) xi^(a*scale) e^(a*t_scale*t)
    to t^truncation, with bound d - 1 and t_scale = scale by default: the
    t^j coefficient is t_scale^j/j! times S_j(bound) of the twist xi^scale,
    whose coordinates are integers.  So for t_scale = p/q, n = truncation
    and den = q^n n!, row j is S_j's numerators times p^j q^(n-j) n!/j!,
    brought to lowest terms by one gcd."""
    if bound is None:
        bound = ctx.d - 1
    if t_scale is None:
        t_scale = scale
    p, q = t_scale.as_integer_ratio()
    n = truncation
    sums = power_sums(ctx.twist(scale), n, bound)
    den = q**n * math.factorial(n)
    return _lowest(ctx.field, [
        (j, [x * w for x in sums[j].num])
        for j, w in enumerate(_weights(p, q, n))], den, n + 1)


def twist_units_series(ctx: TwistContext, scales: tuple,
                       truncation: int) -> RowTable:
    """The RowTable of the product of the units xi^(dc) e^(dct) - 1 over
    c in scales, to t^truncation, in closed form: the exponential sum over
    the subsets S of scales of (-1)^(|scales| - |S|) xi^(ds) e^(dst), s the
    sum of S.  The subsets of one sum s are counted together as a signed
    count w_s, the coefficients of prod (X^c - 1), so with n = truncation
    and den = n!, row k is the sum over s of w_s (ds)^k n!/k! times the
    integer coordinates of xi^(ds), brought to lowest terms by one gcd; no
    product of unit tables is formed."""
    counts = {0: 1}
    for c in scales:
        grown = {s: -w for s, w in counts.items()}
        for s, w in counts.items():
            grown[s + c] = grown.get(s + c, 0) + w
        counts = grown
    n = truncation
    rows = [[0] * ctx.field.degree for _ in range(n + 1)]
    for s, w in counts.items():
        if w:
            u = ctx.xi_pow(ctx.d * s).num
            for row, x in zip(rows, _weights(ctx.d * s, 1, n)):
                if x:
                    x *= w
                    for i, y in enumerate(u):
                        row[i] += x * y
    return _lowest(ctx.field, enumerate(rows), math.factorial(n), n + 1)


def _weights(p: int, q: int, n: int) -> list:
    # [p^j q^(n-j) n!/j! for j = 0..n]: (p/q)^j / j! over q^n n!
    out = [q**n * math.factorial(n)]
    for j in range(1, n + 1):
        out.append(out[-1] // (j * q) * p)
    return out


def factor_table(ctx: TwistContext, key: tuple, upto: int) -> RowTable:
    """The stored RowTable of one factor series, to t^upto or further.  Key
    ("units", cs) is the product of the units xi^(dc) e^(dct) - 1 over the
    sorted multiset cs (twist_units_series), the one table of a quotient's
    numerator units; ("sum", c, bound, sigma) is the character sum
    sum_{a<=bound} chi(a) xi^(ac) e^(a*sigma*t), sigma an int where it is
    integral; and ("ratio", c) is ("sum", c, d - 1, c) over the unit of c,
    times t where xi^(dc) = 1: the paper's p-adic integral of chi(x)
    xi^(cx) e^(cxt) over ct, or over c, of a scale or a Bernoulli piece.
    It is built at c = 1 only (``_ratio_table``), once per twist: at c != 1
    it is the twist xi^c's ("ratio", 1) table, stored in the twist's
    context, read at t -> ct (``_rescaled_table``).  Each table is built
    once per context, as a RowTable straight from integers, and kept in
    ctx._factors under its key, read by one lookup: a key has one spelling
    (a sigma m and Fraction(m) are one dict key).  It is built to exactly
    t^upto, and a longer one than cached is rebuilt to exactly t^upto: no
    table is built past the longest length asked for.  Any other key, a
    shorter sum key among them, raises ValueError."""
    table = ctx._factors.get(key)
    if table is None or table.length <= upto:
        table = ctx._factors[key] = _build(ctx, key, upto)
    return table


def _build(ctx: TwistContext, key: tuple, upto: int) -> RowTable:
    # the table of a stored key to exactly t^upto, stored nowhere; module
    # globals are read per call, so wrappers set on the module attributes
    # (as perfbench/tracing.py does) see every build
    kind = key[0]
    if kind == "ratio":
        return (_ratio_table(ctx, upto) if key[1] == 1 else
                _rescaled_table(ctx, key[1], upto))
    if kind == "units":
        return twist_units_series(ctx, key[1], upto)
    if kind == "sum" and len(key) == 4:
        return char_sum_series(ctx, key[1], upto, *key[2:])
    raise ValueError(f"unknown factor table key {key!r}")


def _bpoly(ctx: TwistContext, c: int, k: int) -> RowTable:
    """The seed [c^j B_j / j!] to j = k of a B piece of twist exponent c,
    B_j the Bernoulli numbers of xi^c, as a RowTable: the plan of the
    p-adic integral c t I_c of scale c, which a row reads as one of its
    scales."""
    return _rows(ctx.field, keyed_quotient(ctx, quotient_plan((), (c,)), k),
                 k + 1)


def _unit_root(ctx: TwistContext, c: int) -> int:
    """f with xi^(dc) = zeta_M^f, 0 <= f < M, M the field's period: the
    key of the root in its field, 0 where xi^(dc) = 1."""
    return ctx._xi_root * ctx.d * c % ctx.field.period


def _rescaled_table(ctx: TwistContext, c: int, upto: int) -> RowTable:
    """("ratio", c) to t^upto for c != 1, read off the twist xi^c's own
    ("ratio", 1) table F at t -> ct: the unit xi^(dc) e^(dct) - 1 is the
    twist's xi'^d e^(dt') - 1 at t' = ct, and so is each term
    chi(a) xi^(ca) e^(cat) of the sum, so the table is F(ct), divided by c
    where xi^(dc) = 1 and the t that F carries is ct.  Row k is F's times
    c^k over F's denominator times c^v, v = 1 iff xi^(dc) = 1, brought to
    lowest terms by one gcd; F is stored in the twist's context
    (``factor_table``), once per class c mod xi's order."""
    g = factor_table(ctx.twist(c), ("ratio", 1), upto)
    v = _unit_root(ctx, c) == 0
    return _lowest(ctx.field, [(k, [x * c**k for x in row])
                               for k, row in _head(g.rows, upto + 1)],
                   g.den * c**v, upto + 1)


def _inverse_table(ctx: TwistContext, build: int) -> RowTable:
    """The inverse of the unit of scale 1 to t^build, which
    _ratio_by_row_product multiplies its sum by: 1/(u e^x - 1) at x = dt,
    u = xi^d, or t times it where u = 1.  With g_u the field's table of the
    root u (``_apostol_table``), coefficient k is g_u's times d^(k - v),
    v = 1 iff u = 1; the rows are scaled and brought to lowest terms by one
    gcd."""
    root = _unit_root(ctx, 1)
    d = ctx.d
    g = _apostol_table(ctx.field, root, build)
    den = g.den * (d if root == 0 else 1)
    return _lowest(ctx.field, [(k, [x * d**k for x in row])
                               for k, row in g.rows if k <= build],
                   den, build + 1)


def _ratio_table(ctx: TwistContext, build: int) -> RowTable:
    """("ratio", 1) to t^build, d^-v T(t) g(dt): T = sum_j S_j t^j/j! the
    character sum, g the Apostol table of lambda = xi^d of order R, v = 1
    iff lambda = 1, so coefficient k is B_(k+1)/(k+1)!, or B_k/k!.  Built
    once per twist, in lambda's field Q(zeta_R) where that is a proper
    subfield of Q(zeta_L) and phi(L) > 2 (``_ratio_in_small_field``), and
    otherwise by one row product in Q(zeta_L) (``_ratio_by_row_product``):
    the fields are equal iff phi(R) = phi(L) (L. C. Washington,
    Introduction to Cyclotomic Fields, ch. 2), the combine then that
    product unpacked, and at phi(L) <= 2 the product is ``_scalar_times``.
    Both routes end in one ``_lowest``, so both give one table."""
    R = ctx.xi_order // math.gcd(ctx.d, ctx.xi_order)
    if ctx.field.degree > max(2, cyclo_field(R).degree):
        return _ratio_in_small_field(ctx, build)
    return _ratio_by_row_product(ctx, build)


def _ratio_by_row_product(ctx: TwistContext, build: int) -> RowTable:
    """_ratio_table in Q(zeta_L): the ("sum", 1, d - 1, 1) table, built
    unstored where none is stored long enough, times the unit's inverse."""
    n = build + 1
    [key] = quotient_plan((), (), ((1, ctx.d - 1, 1),))[2]
    table = ctx._factors.get(key)
    if table is None or len(table) < n:
        table = char_sum_series(ctx, 1, build)
    rows, den = _row_times(ctx.field, _head(table.rows, n), table.den,
                           _inverse_table(ctx, build), n)
    return _lowest(ctx.field, rows, den, n)


def _ratio_in_small_field(ctx: TwistContext, build: int) -> RowTable:
    """_ratio_table in Q(zeta_R): g's table of zeta_R read at zeta_R ->
    lambda = zeta_M^f.  Over g.den build! d^v, row k is the fold of
    sum_i lambda^i sum_j (g_(k-j))_i d^(k-j) build!/j! S_j, the power sums
    read at their spots (nonzero coordinates), lambda^i a signed shift."""
    field, d, n, f = ctx.field, ctx.d, build + 1, _unit_root(ctx, 1)
    small = cyclo_field(ctx.xi_order // math.gcd(d, ctx.xi_order))
    sums = [S.num for S in power_sums(ctx, build, d - 1)[:n]]
    spots = [m for m, column in enumerate(zip(*sums)) if any(column)]
    g = _apostol_table(small, small.period // small.order, build)
    g_rows = dict(g.rows)
    sums = [[S[m] for m in spots] for S in sums]
    weights = _weights(1, 1, build)  # build!/j!
    powers = field.root_terms((f * i, 1) for i in range(small.degree))
    rows = []
    for k in range(n):
        terms = [(g_rows[k - j], d**(k - j) * weights[j], sums[j])
                 for j in range(k + 1) if k - j in g_rows and any(sums[j])]
        acc = [0] * (2 * field.order)
        for i, (s, pm) in enumerate(powers):  # lambda^i = pm * zeta_L^s
            u = None
            for row, w, S in terms:
                if row[i]:
                    c = row[i] * w * pm
                    u = [c * y for y in S] if u is None else \
                        [x + c * y for x, y in zip(u, S)]
            if u is not None:  # lambda^i u: u's spot m goes to x^(m + s)
                for m, x in zip(spots, u):
                    acc[m + s] += x
        rows.append((k, _fold(field, acc)))
    return _lowest(field, rows, g.den * weights[0] * d**(f == 0), n)


def _apostol_table(field, f: int, upto: int) -> RowTable:
    """g_u to x^upto or further, u = zeta_M^f of exact order
    R = M/gcd(f, M), M the field's period: g_u = 1/(u e^x - 1), the
    Apostol-Bernoulli generating function, and x/(e^x - 1), the Bernoulli
    one, at u = 1 (T. M. Apostol, Pacific J. Math. 1, 1951).  The one table
    stored is that of zeta_R in Q(zeta_R), the field itself where R = L,
    kept as its _apostol and rebuilt to exactly x^upto when a longer one is
    asked for.  Since u e^x - 1 = (u - 1) + u (e^x - 1), with
    alpha = 1/(u - 1) (``inverse_root_minus_one``) it is g_0 = alpha and
    g_k = -(alpha + 1) sum_{i=1..k} g_(k-i)/i!, one ``dot`` against rational
    elements per coefficient; at R = 1, g_0 = 1 and
    g_k = -sum_{i=1..k} g_(k-i)/(i+1)!.  Any other root reads that table at
    zeta_R -> u: coordinate i of a coefficient goes to zeta_M^(f*i), one
    ``CycloField.root_sum`` per coefficient, with no product or division."""
    M = field.period
    R = M // math.gcd(f, M)
    own = field if R == field.order else cyclo_field(R)
    g = own._apostol
    if g is None or len(g) <= upto:
        one = R == 1
        w = [own.from_rational(Fraction(1, math.factorial(i + one)))
             for i in range(1, upto + 1)]
        alpha = own.one if one else inverse_root_minus_one(own,
                                                           own.period // R)
        beta = -1 if one else -1 - alpha
        out = [alpha]
        for _ in range(upto):
            out.append(beta * dot(own, w, reversed(out)))
        g = own._apostol = _rows(own, out, upto + 1)
    if own is field and (f - M // R) % M == 0:  # u = zeta_L itself
        return g
    fs = [f * i for i in range(own.degree)]
    return RowTable(field, [
        (k, field.root_sum(field.root_terms(zip(fs, row))).num)
        for k, row in _head(g.rows, upto + 1)], g.den, upto + 1)


def quotient_plan(units: tuple, scales: tuple, sums: tuple = (),
                  exp: tuple = (), const=1) -> tuple:
    """The plan (const', t_power, keys, exp) of const times the unit
    xi^(dc) e^(dct) - 1 over ct per c in units, the p-adic integral
    c t I_c of chi(x) xi^(cx) e^(cxt) per c in scales, the character sum
    sum_{a<=bound} chi(a) xi^(am) e^(a sigma t) per (m, bound, sigma) in
    sums and e^{(s.y) t}, s_y = exp[y]: its operands as a sorted multiset
    of factor_table keys, with no context, and the numbers they fix,
    computed here only: const' = const prod(scales) / prod(units), an int
    where it is integral, and t_power = #scales - #units.  The keys are
    ("units", cs), cs the sorted units, if any, then ("ratio", c) per
    sorted scale, then the sorted ("sum", m, bound, sigma), sigma an int
    where it is integral: the one speller of every key.  Equal plans are
    equal forms at every context."""
    num = const.numerator * math.prod(scales)
    den = const.denominator * math.prod(units)
    keys = [("units", tuple(sorted(units)))] if units else []
    keys += [("ratio", c) for c in sorted(scales)] + sorted(
        ("sum", m, bound, sigma.numerator if sigma.denominator == 1
         else sigma) for m, bound, sigma in sums)
    return (num // den if num % den == 0 else Fraction(num, den),
            len(scales) - len(units), tuple(keys), tuple(sorted(exp)))


def keyed_quotient(ctx: TwistContext, plan: tuple, truncation: int) -> tuple:
    """The coefficients of a ``quotient_plan``, its exp aside, to
    t^truncation: const t^shift times one ``cyclo.product`` of its keys'
    tables in plan order, shift its t power less one per ("ratio", c) key
    with xi^(dc) = 1.  The one evaluator of every form and the owner of
    the context's form store (``TwistContext``): an entry to t^m serves
    every truncation <= m by a slice, and a missing or shorter one is
    evaluated and replaces it.  truncation < 0 and an owed power of t
    that does not divide raise ValueError and store nothing."""
    F = ctx._forms.get(plan, ())
    if len(F) > truncation >= 0:
        return F[:truncation + 1]
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    const, shift, keys, _ = plan
    for key in keys:
        if key[0] == "ratio":
            shift -= _unit_root(ctx, key[1]) == 0
    length = max(truncation - shift, 0)
    q = product(ctx.field, [factor_table(ctx, key, length) for key in keys],
                length + 1, const)
    if shift < 0:
        if any(q[:-shift]):
            raise ValueError(f"not divisible by t^{-shift}")
        F = tuple(q[-shift:])
    else:
        F = ((ctx.field.zero,) * shift + tuple(q))[:truncation + 1]
    ctx._forms[plan] = F
    return F


_GF_PLAN = quotient_plan((), (1,))


def bernoulli_gf(ctx: TwistContext, truncation: int) -> tuple:
    """The coefficients of the Bernoulli generating function
    t*T/(xi^d e^{dt} - 1) to t^truncation, T = sum_{a<d} chi(a) xi^a e^{at}:
    the plan of the p-adic integral t I_1 of scale 1."""
    return keyed_quotient(ctx, _GF_PLAN, truncation)


class BernoulliTable:
    """B_0..B_N for one context, exactly the EGF coefficients times n!."""

    __slots__ = ("context", "values")

    def __init__(self, context: TwistContext, values: list):
        self.context = context
        self.values = values

    def __getitem__(self, n: int):
        return self.values[n]

    def __len__(self):
        return len(self.values)


def _bern_values(ctx: TwistContext, n: int) -> list:
    # B_0..B_n off the GF's stored form, the one copy, grown geometrically
    top = ctx._bern
    if top < n:
        top = ctx._bern = max(n, 2 * (top + 1))
    F = bernoulli_gf(ctx, top)
    return [c * math.factorial(j) for j, c in enumerate(F[:n + 1])]


def bernoulli_numbers(ctx: TwistContext, n_max: int) -> BernoulliTable:
    """Table of generalized twisted Bernoulli numbers B_0..B_{n_max}."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return BernoulliTable(ctx, _bern_values(ctx, n_max))


def bernoulli_polynomial(ctx: TwistContext, n: int, x):
    """B_n(x) = sum_k C(n,k) B_k x^(n-k); x may be rational, cyclotomic, or SymPoly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    bern = _bern_values(ctx, n)
    xp = [x ** 0]
    for _ in range(n):
        xp.append(xp[-1] * x)
    acc = bern[n] * xp[0]
    for k in range(n):
        acc = acc + bern[k] * (xp[n - k] * math.comb(n, k))
    return acc


def power_sums(ctx: TwistContext, k: int, n: int) -> list:
    """[S_0(n), .., S_k(n)] (or longer), S_j(n) = sum_{a<=n} chi(a) xi^a a^j
    with 0^0 = 1, from one table per bound n in ctx._psums, grown in place.
    A nonzero chi(a) xi^a is a root of unity zeta_M^f, f the sum of the
    context's exponents of chi(a) and xi^a, so S_j(n) is the sum of the
    integer weights a^j times zeta_M^f over the points.  One
    ``CycloField.root_terms`` maps every point's term to zeta_L once, its
    sign into the weight; then it is one ``CycloField.root_sum`` per
    power, the weights advanced by one integer product per point, and no
    field product."""
    if k < 0 or n < 0:
        raise ValueError("k and n must be >= 0")
    table = ctx._psums.setdefault(n, [])
    if len(table) <= k:
        d, j, xi_f = ctx.d, len(table), ctx._xi_root
        chi_f = ctx._chi_roots
        points = [a for a in range(n + 1) if chi_f[a % d] is not None]
        terms = ctx.field.root_terms([(chi_f[a % d] + a * xi_f, a**j)
                                      for a in points])
        exps = [e for e, _ in terms]
        weights = [w for _, w in terms]
        table.append(ctx.field.root_sum(zip(exps, weights)))
        while len(table) <= k:
            weights = list(map(operator.mul, weights, points))
            table.append(ctx.field.root_sum(zip(exps, weights)))
    return table


def power_sum(ctx: TwistContext, k: int, n: int) -> CycloNumber:
    """S_k(n) = sum_{a<=n} chi(a) xi^a a^k, read from the power_sums table."""
    return power_sums(ctx, k, n)[k]


def powersum_gf_check(ctx: TwistContext, w: int, k_max: int) -> CheckReport:
    """Check the three expressions of the power-sum EGF quotient identity.

    Side A: (xi^{dw} e^{dwt} - 1)/(xi^d e^{dt} - 1) * sum_{a<d} chi(a) xi^a e^{at},
    the ``quotient_plan`` of the unit of w over wt times the integral of
    scale 1, times w.
    Side B: sum_{a<dw} chi(a) xi^a e^{at} summed directly, not via power_sums:
    point by point, the integer numerators of a^i chi(a) xi^a accumulated
    over one denominator and brought to canonical form once per t^i/i!.
    Side C: sum_k S_k(dw-1) t^k / k! from the power sums.
    """
    if w < 1:
        raise ValueError("w must be >= 1")
    if k_max < 0:
        raise ValueError("truncation must be >= 0")
    d = ctx.d
    params = dict(ctx.params(), w=w, k_max=k_max)
    side_a = keyed_quotient(ctx, quotient_plan((w,), (1,), const=w), k_max)

    points = []
    for a in range(d * w):
        cv = ctx.chi_at(a)
        if not cv.is_zero():
            points.append((a, cv * ctx.xi_pow(a)))
    den = math.lcm(*(base.den for _, base in points))
    rows = [[0] * ctx.field.degree for _ in range(k_max + 1)]
    for a, base in points:
        x = den // base.den
        for row in rows:  # row i gains a^i chi(a) xi^a over den
            for m, y in enumerate(base.num):
                row[m] += x * y
            x *= a
    side_b = tuple(_canonical(ctx.field, row, den * math.factorial(i))
                   for i, row in enumerate(rows))

    side_c = tuple(power_sum(ctx, k, d * w - 1) / math.factorial(k)
                   for k in range(k_max + 1))

    detail = first_mismatch(
        (("quotient-vs-direct first differs", side_a, side_b),
         ("direct-vs-powersum first differs", side_b, side_c)))
    return CheckReport("powersum_gf_check", params, detail is None, detail)
