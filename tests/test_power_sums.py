"""Oracle tests for the twisted power-sum kernel `bernoulli.power_sums`.

Every sum of chi(a) xi^(ca) a^k in the library reads the kernel's table:
`power_sum`, `char_sum_series` and `volkenborn_partial`.  Each is compared
here with its definition, summed point by point, over real and complex
characters and xi orders 1..6 (xi^d = 1 and xi^d != 1 both occur).
"""

import math
from fractions import Fraction

import pytest

from twistbern.bernoulli import (TwistContext, char_sum_series, power_sum,
                                 power_sums)
from twistbern.padic import volkenborn_partial

# (d, character index): trivial, real (d = 3, 4, 5) and complex (order 4 at
# d = 5, order 3 at d = 7) characters
CHARACTERS = [(1, 0), (3, 1), (4, 1), (5, 1), (5, 2), (7, 2)]
CONTEXTS = [(d, char, order) for d, char in CHARACTERS for order in range(1, 7)]
K_MAX = 8


def _direct(ctx, k, n, scale=1):
    """sum_{a=0}^{n} chi(a) xi^(a*scale) a^k by the definition (0^0 = 1)."""
    acc = ctx.field.zero
    for a in range(n + 1):
        acc = acc + ctx.chi_at(a) * ctx.xi_pow(a * scale) * a**k
    return acc


@pytest.mark.parametrize("d,char,order", CONTEXTS)
def test_power_sums_match_the_definition(d, char, order):
    ctx = TwistContext.from_orders(d, char, order)
    for n in sorted({0, 1, d - 1, 3 * d + 2}):
        table = power_sums(ctx, K_MAX, n)
        for k in range(K_MAX + 1):
            expected = _direct(ctx, k, n)
            assert table[k] == expected, (n, k)
            assert power_sum(ctx, k, n) == expected


@pytest.mark.parametrize("d,char,order", CONTEXTS)
def test_char_sum_series_matches_the_definition(d, char, order):
    ctx = TwistContext.from_orders(d, char, order)
    for scale in (1, 2, 5):
        got = char_sum_series(ctx, scale, K_MAX).coeffs
        for j in range(K_MAX + 1):
            expected = _direct(ctx, j, d - 1, scale) * Fraction(
                scale**j, math.factorial(j))
            assert got[j] == expected, (scale, j)


# xi orders that are prime powers p^s, so the context carries its prime
@pytest.mark.parametrize("d,char,order,p", [
    (d, char, order, p) for d, char in CHARACTERS
    for order, p in ((1, 2), (2, 2), (3, 3), (4, 2), (5, 5))])
def test_volkenborn_partial_matches_the_definition(d, char, order, p):
    ctx = TwistContext.from_orders(d, char, order, p=p)
    for level in range(3 if p == 2 else 2):
        total = d * p**level
        for k in range(K_MAX + 1):
            assert volkenborn_partial(ctx, k, level) == \
                _direct(ctx, k, total - 1) / total, (level, k)


def test_table_grows_in_place():
    ctx = TwistContext.from_orders(5, 1, 3)
    table = power_sums(ctx, 2, 9)
    assert len(table) == 3
    grown = power_sums(ctx, 7, 9)
    assert grown is table and ctx._psums[9] is table
    fresh = power_sums(TwistContext.from_orders(5, 1, 3), 7, 9)
    assert grown == fresh and len(fresh) == 8
    assert power_sums(ctx, 4, 9) is table  # a shorter request reads it


@pytest.mark.parametrize("d,char,order", CONTEXTS)
def test_point_values_are_integral(d, char, order):
    # chi(a) xi^a is zero or a root of unity: denominator 1
    ctx = TwistContext.from_orders(d, char, order)
    for a in range(2 * d * order):
        assert (ctx.chi_at(a) * ctx.xi_pow(a)).den == 1


def test_power_sums_validation():
    ctx = TwistContext.from_orders(3, 1, 2)
    for k, n in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="k and n must be >= 0"):
            power_sums(ctx, k, n)
        with pytest.raises(ValueError, match="k and n must be >= 0"):
            power_sum(ctx, k, n)


@pytest.mark.parametrize("order", range(1, 7))
def test_twist_by_one_is_the_context(order):
    ctx = TwistContext.from_orders(5, 1, order)
    assert ctx.twist(1) is ctx
    assert ctx.twist(1 + order) is ctx
    assert ctx.twist(1 - order) is ctx
    if order > 1:
        assert ctx.twist(2) is not ctx
