"""Oracle tests for the twisted power-sum kernel `bernoulli.power_sums`.

Every sum of chi(a) xi^(ca) a^k in the library reads the kernel's table:
`power_sum`, `char_sum_series` and `volkenborn_partial`.  Each is compared
here with its definition, summed point by point, over real and complex
characters and xi orders 1..6 (xi^d = 1 and xi^d != 1 both occur).
"""

import math
from fractions import Fraction

import pytest

from twistbern.bernoulli import (TwistContext, bernoulli_numbers,
                                 char_sum_series, power_sum, power_sums)
from twistbern.characters import character
from twistbern.cyclo import cyclo_field, euler_phi
from twistbern.padic import volkenborn_partial

from cyclo_helpers import embed_into, is_rational, rational_value

# (d, character index): trivial, real (d = 3, 4, 5) and complex (order 4 at
# d = 5, order 3 at d = 7) characters
CHARACTERS = [(1, 0), (3, 1), (4, 1), (5, 1), (5, 2), (7, 2)]
CONTEXTS = [(d, char, order) for d, char in CHARACTERS for order in range(1, 7)]
# a wide field: a character of order 100 mod 101 and xi of order 4 live in
# Q(zeta_100), degree 40, so most exponents e of the points exceed the degree
WIDE_CONTEXT = (101, 1, 4)
# three requests (d, character index, xi order) of perfbench's
# bernoulli_pool(), each in a field no smaller context reaches: Q(zeta_120)
# at the largest d = 211, Q(zeta_232) of the largest degree 112, and
# Q(zeta_159), odd, of degree 104
POOL_CONTEXTS = [(211, 14, 8), (59, 2, 8), (107, 2, 3)]
K_MAX = 8


def _direct(ctx, k, n, scale=1, xi=None):
    """sum_{a=0}^{n} chi(a) xi^(a*scale) a^k by the definition (0^0 = 1).

    chi(a) comes from the character and xi (by default zeta of the
    context's xi order, as from_orders builds it) is embedded here, so
    neither reads the context's own (sign, exponent) records.
    """
    field = ctx.field
    z = embed_into(xi or cyclo_field(ctx.xi_order).root(1), field)
    acc = field.zero
    for a in range(n + 1):
        v = ctx.chi(a)
        v = (field.from_rational(rational_value(v)) if is_rational(v)
             else embed_into(v, field))
        acc = acc + v * z ** (a * scale % ctx.xi_order) * a**k
    return acc


@pytest.mark.parametrize("d,char,order",
                         CONTEXTS + [WIDE_CONTEXT] + POOL_CONTEXTS)
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
        got = char_sum_series(ctx, scale, K_MAX).elements()
        for j in range(K_MAX + 1):
            expected = _direct(ctx, j, d - 1, scale) * Fraction(
                scale**j, math.factorial(j))
            assert got[j] == expected, (scale, j)


# xi orders p^s, and orders that p does not divide: a partial sum takes
# any prime
@pytest.mark.parametrize("d,char,order,p", [
    (d, char, order, p) for d, char in CHARACTERS
    for order, p in ((1, 2), (2, 2), (3, 3), (4, 2), (5, 5), (4, 3), (3, 2),
                     (6, 5))])
def test_volkenborn_partial_matches_the_definition(d, char, order, p):
    ctx = TwistContext.from_orders(d, char, order)
    for level in range(3 if p == 2 else 2):
        total = d * p**level
        for k in range(K_MAX + 1):
            assert volkenborn_partial(ctx, p, k, level) == \
                _direct(ctx, k, total - 1) / total, (level, k)


def test_power_sums_read_signed_roots():
    # xi = -zeta_3 (order 6) has the sign -1 in the odd-order field Q(zeta_3);
    # a real character in an odd-order field gives signs of its own
    for chi, xi in ((character(5, 1), -cyclo_field(3).root(1)),
                    (character(5, 2), -cyclo_field(3).root(2)),
                    (character(3, 1), cyclo_field(3).root(1)),
                    (character(7, 3), -cyclo_field(1).one)):
        ctx = TwistContext(chi, xi)
        for n in (0, 1, chi.modulus - 1, 4 * chi.modulus + 1):
            table = power_sums(ctx, 5, n)
            for k in range(6):
                assert table[k] == _direct(ctx, k, n, xi=xi), (chi, xi, n, k)


# -- the twisted Faulhaber identity ------------------------------------------
# For d | M and xi^M = 1 the generating function of S_k(M-1) is
# (e^{Mt} - 1)/t times the Bernoulli GF, so
#     S_k(M-1) = sum_{i<=k} C(k,i) B_i M^(k-i+1) / (k-i+1).

def _faulhaber(ctx, k, M):
    bern = bernoulli_numbers(ctx, k).values
    return sum((bern[i] * Fraction(math.comb(k, i) * M**(k - i + 1), k - i + 1)
                for i in range(k + 1)), ctx.field.zero)


def _check_faulhaber(ctx, k_max=5):
    base = math.lcm(ctx.d, ctx.xi_order)
    for M in (base, 2 * base, 3 * base):
        sums = power_sums(ctx, k_max, M - 1)
        for k in range(k_max + 1):
            assert sums[k] == _faulhaber(ctx, k, M), (ctx, M, k)


@pytest.mark.parametrize("d", range(1, 13))
def test_twisted_faulhaber_identity(d):
    # every character mod d, xi orders 1, 2, 3, 4, 6, three periods M, k <= 5
    for index in range(euler_phi(d)):
        for order in (1, 2, 3, 4, 6):
            _check_faulhaber(TwistContext.from_orders(d, index, order))


def test_twisted_faulhaber_exponent_and_sign_paths():
    # a character of order 7 at the prime 29 (field Q(zeta_21) with xi of
    # order 3), a real character in the odd-order field Q(zeta_3), and
    # xi = -zeta_3 carrying its own sign
    for ctx in (TwistContext.from_orders(29, 4, 3),
                TwistContext.from_orders(3, 1, 3),
                TwistContext(character(5, 1), -cyclo_field(3).root(1))):
        _check_faulhaber(ctx)
    assert (ctx.chi.order, ctx.xi_order, ctx.field.order) == (4, 6, 12)
    big = TwistContext.from_orders(29, 4, 3)
    assert (big.chi.order, big.field.order) == (7, 21)


@pytest.mark.parametrize("d,char,order,n", [(5, 1, 3, 9), (211, 14, 8, 210)])
def test_table_grows_in_place(d, char, order, n):
    # grown from a non-empty table, the weights of the powers 3..7 start
    # from a^3, not a^0
    ctx = TwistContext.from_orders(d, char, order)
    table = power_sums(ctx, 2, n)
    assert len(table) == 3
    grown = power_sums(ctx, 7, n)
    assert grown is table and ctx._psums[n] is table
    fresh = power_sums(TwistContext.from_orders(d, char, order), 7, n)
    assert grown == fresh and len(fresh) == 8
    assert power_sums(ctx, 4, n) is table  # a shorter request reads it
    assert [grown[k] for k in (3, 7)] == [_direct(ctx, k, n) for k in (3, 7)]


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
