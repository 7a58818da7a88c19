"""Test-only constructions of twisted Bernoulli numbers and polynomials,
kept out of the package because nothing in it needs them: they are
independent routes that the tests compare the package's own against."""

from fractions import Fraction

from twistbern.bernoulli import TwistContext, bernoulli_gf, bernoulli_numbers
from twistbern.characters import character
from twistbern.cyclo import CycloNumber
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
