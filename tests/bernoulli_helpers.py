"""Test-only constructions of twisted Bernoulli numbers and polynomials,
kept out of the package because nothing in it needs them: they are
independent routes that the tests compare the package's own against,
the readers of the one scale-1 table per twist (bernoulli_gf, a ratio
table of any scale and a Bernoulli seed) with each of _ratio_table's two
builders forced on a fresh context, and the ratio table of one scale c, and
the inverse it multiplies by, built at that c, without the twist xi^c."""

from fractions import Fraction

from twistbern import bernoulli
from twistbern.bernoulli import (TwistContext, bernoulli_gf, bernoulli_numbers,
                                 char_sum_series, factor_table)
from twistbern.characters import character
from twistbern.cyclo import CycloNumber, RowTable, _lowest, _row_times
from twistbern.series import PowerSeries


def plain_twisted_numbers(xi: CycloNumber, n_max: int) -> list:
    """EGF coefficients of t/(xi e^t - 1); classical Bernoulli numbers at xi=1."""
    ctx = TwistContext(character(1, 0), xi)
    return bernoulli_numbers(ctx, n_max).values


def bernoulli_polynomial_gf(ctx: TwistContext, n: int, x):
    """Independent construction of B_n(x): n! [t^n] e^{xt} * (number GF)."""
    if isinstance(x, (int, Fraction)):
        x = ctx.field.from_rational(x)
    ex = PowerSeries.exp_scaled(x, n)
    return (PowerSeries(bernoulli_gf(ctx, n)) * ex).egf(n)


def ratio_route(small: bool):
    """The builder of _ratio_table's route named, to force it in place of
    the rule that picks one from the fields: the combine in Q(zeta_R)
    where small, the row product in Q(zeta_L) where not."""
    return (bernoulli._ratio_in_small_field if small
            else bernoulli._ratio_by_row_product)


def _routed(ctx: TwistContext, small: bool, read):
    """read(fresh), fresh a new context of ctx's chi and xi, with the
    route of _ratio_table forced (ratio_route), whatever the fields say.
    The fresh context stores no table, so read builds exactly one scale-1
    table, and this asserts that it did, by the builder forced: that
    builder ran once and the other never, and the unit's inverse is built
    iff the row product ran."""
    names = ("_ratio_by_row_product", "_ratio_in_small_field")
    saved = {name: getattr(bernoulli, name)
             for name in names + ("_inverse_table", "_ratio_table")}
    ran = []

    def counted(name):
        def call(*args):
            ran.append(name)
            return saved[name](*args)
        return call
    for name in names + ("_inverse_table",):
        setattr(bernoulli, name, counted(name))
    bernoulli._ratio_table = getattr(bernoulli, names[small])
    try:
        out = read(TwistContext(ctx.chi, ctx.xi))
    finally:
        for name, exact in saved.items():
            setattr(bernoulli, name, exact)
    assert ran == [names[small]] + ["_inverse_table"] * (not small), (
        ctx, small, ran)
    return out


def bernoulli_gf_by_division(ctx: TwistContext, truncation: int) -> tuple:
    """t*T/(xi^d e^{dt} - 1) to t^truncation, T = sum_{a<d} chi(a) xi^a
    e^{at}, by _ratio_table's route in the context's own field on a fresh
    context: t times its ("ratio", 1) table (T/(e^{dt} - 1) times t where
    xi^d = 1), the character sum's table times the Apostol table of
    zeta_R re-mapped to the root xi^d of order R in Q(zeta_L)."""
    return _routed(ctx, False, lambda fresh: bernoulli_gf(fresh, truncation))


def bernoulli_gf_in_small_field(ctx: TwistContext,
                                truncation: int) -> tuple:
    """The same, by _ratio_table's route in the small field Q(zeta_R) of
    the root xi^d: its Apostol table read at zeta_R -> xi^d."""
    return _routed(ctx, True, lambda fresh: bernoulli_gf(fresh, truncation))


def ratio_by_route(ctx: TwistContext, c: int, upto: int,
                   small: bool) -> tuple:
    """The elements of ("ratio", c) to t^upto on a fresh context, its
    twist's scale-1 table built by the route forced (_routed)."""
    return _routed(ctx, small, lambda fresh: factor_table(
        fresh, ("ratio", c), upto).elements())


def bpoly_by_route(ctx: TwistContext, c: int, k: int, small: bool) -> tuple:
    """The elements of the seed _bpoly(ctx, c, k) on a fresh context, its
    twist's scale-1 table built by the route forced (_routed)."""
    return _routed(ctx, small,
                   lambda fresh: bernoulli._bpoly(fresh, c, k).elements())


def inverse_table_at(ctx: TwistContext, c: int, build: int) -> RowTable:
    """The inverse of the unit of c to t^build built at its own c, the
    factor of ratio_table_at: 1/(u e^x - 1) at x = dct, u = xi^(dc), or t
    times it where u = 1, from the Apostol table of the root u in ctx's
    field, coefficient k times (dc)^(k - v), v = 1 iff u = 1, in lowest
    terms.  It reads no table of the twist xi^c."""
    root = bernoulli._unit_root(ctx, c)
    dc = ctx.d * c
    g = bernoulli._apostol_table(ctx.field, root, build)
    den = g.den * (dc if root == 0 else 1)
    return _lowest(ctx.field, [(k, [x * dc**k for x in row])
                               for k, row in g.rows if k <= build],
                   den, build + 1)


def ratio_table_at(ctx: TwistContext, c: int, build: int) -> RowTable:
    """("ratio", c) to t^build built at its own c: the character sum of
    scale c times inverse_table_at, one row product in lowest terms."""
    sums = char_sum_series(ctx, c, build)
    rows, den = _row_times(ctx.field, sums.rows, sums.den,
                           inverse_table_at(ctx, c, build), build + 1)
    return _lowest(ctx.field, rows, den, build + 1)
