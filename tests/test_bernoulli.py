import math
from fractions import Fraction

import pytest

from twistbern import bernoulli
from twistbern.bernoulli import (TwistContext, bernoulli_numbers,
                                 bernoulli_polynomial, bernoulli_polynomial_gf,
                                 plain_twisted_numbers, power_sum,
                                 powersum_gf_check)
from twistbern.characters import enumerate_characters
from twistbern.cyclo import cyclo_field
from twistbern.series import PowerSeries
from twistbern.sympoly import SymPoly


def classical_bernoulli(n_max):
    """Independent oracle: B_n from sum_{k<n} C(n,k) B_k = 0 for n >= 2."""
    b = [Fraction(1), Fraction(-1, 2)]
    for n in range(2, n_max + 1):
        s = sum(math.comb(n + 1, k) * b[k] for k in range(n))
        b.append(-s / (n + 1))
    return b


CLASSICAL_CTX = TwistContext.from_orders(1, 0, 1, 1)


def test_classical_reduction():
    table = bernoulli_numbers(CLASSICAL_CTX, 12)
    oracle = classical_bernoulli(12)
    for n in range(13):
        assert table[n] == oracle[n]
    assert table[12] == Fraction(-691, 2730)


def test_plain_twisted_examples():
    f2 = cyclo_field(2)
    vals = plain_twisted_numbers(f2.root(1), 2)   # xi = -1
    assert vals[0].is_zero()
    assert vals[1] == Fraction(-1, 2)
    z3 = cyclo_field(3).root(1)
    vals = plain_twisted_numbers(z3, 1)
    assert vals[1] * (z3 - 1) == 1                # B_1 = 1/(xi - 1)
    assert plain_twisted_numbers(cyclo_field(1).one, 4) == \
        bernoulli_numbers(CLASSICAL_CTX, 4).values


def test_b0_for_nontrivial_twist():
    # xi^d = 1 case: leading coefficients give B_0 = zeta_4 / 2
    ctx = TwistContext.from_orders(4, 1, 4, 1)
    z4 = ctx.field.root(ctx.field.order // 4)
    assert bernoulli_numbers(ctx, 0)[0] == z4 * Fraction(1, 2)
    # xi^d != 1 forces B_0 = 0, and B_0(x) = 0 for every x
    for d, idx, order in ((1, 0, 2), (1, 0, 3), (3, 1, 2), (4, 1, 3)):
        ctx = TwistContext.from_orders(d, idx, order, 1)
        assert not ctx.xi_pow(ctx.d).is_one()
        assert bernoulli_numbers(ctx, 0)[0].is_zero()
        y = SymPoly.variable("y", ctx.field)
        assert bernoulli_polynomial(ctx, 0, y).is_zero()


def test_bernoulli_polynomial_examples():
    # classical B_2(x) = x^2 - x + 1/6
    y = SymPoly.variable("y", CLASSICAL_CTX.field)
    p = bernoulli_polynomial(CLASSICAL_CTX, 2, y)
    assert p == y * y - y + Fraction(1, 6)
    # B_n(0) = B_n
    for ctx in (CLASSICAL_CTX, TwistContext.from_orders(4, 1, 4, 1)):
        table = bernoulli_numbers(ctx, 6)
        for n in range(7):
            assert bernoulli_polynomial(ctx, n, Fraction(0)) == table[n]


def test_bernoulli_polynomial_gf_agrees_with_binomial():
    contexts = (CLASSICAL_CTX,
                TwistContext.from_orders(4, 1, 4, 1),
                TwistContext.from_orders(3, 1, 3, 1),
                TwistContext.from_orders(5, 1, 2, 1))
    for ctx in contexts:
        y = SymPoly.variable("y1", ctx.field)
        for n in range(11):
            assert bernoulli_polynomial(ctx, n, Fraction(1, 2)) == \
                bernoulli_polynomial_gf(ctx, n, Fraction(1, 2))
            assert bernoulli_polynomial(ctx, n, y) == \
                bernoulli_polynomial_gf(ctx, n, y)


def test_generalized_classical_character_values():
    # xi = 1, nonprincipal chi mod 4: B_1 = (1/d) sum_a chi(a) a = -1/2
    ctx = TwistContext.from_orders(4, 1, 1, 1)
    table = bernoulli_numbers(ctx, 6)
    assert table[1] == Fraction(-1, 2)
    # finite-sum oracle: B_{n,chi} = d^{n-1} sum_a chi(a) B_n(a/d)
    oracle_b = classical_bernoulli(6)

    def classical_poly(n, x):
        return sum(math.comb(n, k) * oracle_b[k] * x ** (n - k)
                   for k in range(n + 1))

    chi = enumerate_characters(4)[1]
    for n in range(7):
        expected = Fraction(4) ** (n - 1) * sum(
            chi(a).rational_value() * classical_poly(n, Fraction(a, 4))
            for a in range(4) if not chi(a).is_zero())
        assert table[n] == expected


def test_power_sum_examples():
    assert power_sum(CLASSICAL_CTX, 2, 3) == 14
    ctx = TwistContext.from_orders(4, 1, 2, 1)
    assert power_sum(ctx, 1, 7) == 4     # -1 + 3 - 5 + 7
    ctx5 = TwistContext.from_orders(5, 1, 1, 1)
    assert power_sum(ctx5, 3, 0).is_zero()   # chi(0) = 0 for d > 1
    assert power_sum(CLASSICAL_CTX, 0, 0) == 1  # 0^0 = 1


def test_power_sum_recurrence():
    contexts = (CLASSICAL_CTX,
                TwistContext.from_orders(4, 1, 4, 1),
                TwistContext.from_orders(3, 1, 2, 1))
    for ctx in contexts:
        for k in range(4):
            for n in range(1, 12):
                step = ctx.chi_at(n) * ctx.xi_pow(n) * Fraction(n**k)
                assert power_sum(ctx, k, n) == power_sum(ctx, k, n - 1) + step


def test_powersum_gf_check_examples():
    assert powersum_gf_check(CLASSICAL_CTX, 1, 4).passed
    assert powersum_gf_check(CLASSICAL_CTX, 3, 5).passed
    ctx = TwistContext.from_orders(4, 1, 4, 1)
    assert powersum_gf_check(ctx, 2, 6).passed
    # xi^d != 1 branch
    ctx2 = TwistContext.from_orders(3, 1, 2, 1)
    assert powersum_gf_check(ctx2, 2, 6).passed


# xi^d = 1 (d = 3, xi = zeta_3) and xi^d != 1 (d = 3, xi = zeta_4); at w = 2
# the constant term of side A's unit quotient is nonzero in both
GF_CONTROLS = [(3, 1, 3), (3, 1, 4)]


@pytest.mark.parametrize("d,char,order", GF_CONTROLS)
def test_powersum_gf_check_catches_a_wrong_power_sum(monkeypatch, d, char,
                                                      order):
    ctx = TwistContext.from_orders(d, char, order)
    exact = bernoulli.power_sum
    monkeypatch.setattr(bernoulli, "power_sum",
                        lambda c, k, n: exact(c, k, n) + (k == 3))
    report = powersum_gf_check(ctx, 2, 6)
    assert not report.passed
    assert report.detail.startswith("direct-vs-powersum first differs at t^3:")


@pytest.mark.parametrize("d,char,order", GF_CONTROLS)
def test_powersum_gf_check_catches_a_wrong_side_a_factor(monkeypatch, d, char,
                                                         order):
    ctx = TwistContext.from_orders(d, char, order)
    exact = bernoulli.char_sum_series

    def perturbed(c, scale, truncation):
        coeffs = list(exact(c, scale, truncation).coeffs)
        if truncation >= 3:
            coeffs[3] = coeffs[3] + 1
        return PowerSeries(coeffs)

    monkeypatch.setattr(bernoulli, "char_sum_series", perturbed)
    report = powersum_gf_check(ctx, 2, 6)
    assert not report.passed
    assert report.detail.startswith("quotient-vs-direct first differs at t^3:")


def test_bernoulli_table_grows_geometrically(monkeypatch):
    builds = []
    exact = bernoulli.bernoulli_gf

    def counted(ctx, truncation):
        builds.append(truncation)
        return exact(ctx, truncation)

    monkeypatch.setattr(bernoulli, "bernoulli_gf", counted)
    ctx = TwistContext.from_orders(5, 1, 3)
    got = [bernoulli_numbers(ctx, n).values for n in range(17)]
    assert builds[0] == 0 and len(builds) <= 5
    fresh = TwistContext.from_orders(5, 1, 3)
    assert len(bernoulli_numbers(fresh, 16).values) == 17  # exactly n_max + 1
    assert len(fresh._bern) == 17
    for n, values in enumerate(got):
        assert values == fresh._bern[:n + 1]


def test_context_validation():
    with pytest.raises(ValueError):
        TwistContext.from_orders(1, 0, 4, 2)   # gcd(exp, order) != 1
    with pytest.raises(ValueError):
        TwistContext.from_orders(1, 5, 1, 1)   # character index out of range
    with pytest.raises(ValueError):
        TwistContext.from_orders(1, 0, 3, 1, p=2, s=1)  # order is not p^s
    ctx = TwistContext.from_orders(1, 0, 4, 1, p=2)
    assert ctx.s == 2  # s derived from the order


def test_twist_shares_field_and_caches():
    ctx = TwistContext.from_orders(5, 1, 3, 1)
    t = ctx.twist(2)
    assert t.field.order == ctx.field.order
    assert t.xi == ctx.xi_pow(2)
    assert ctx.twist(2) is t  # cached
    assert ctx.twist(2 + ctx.xi_order) is t


def test_bernoulli_table_shape():
    table = bernoulli_numbers(CLASSICAL_CTX, 5)
    assert len(table) == 6
    assert table.context is CLASSICAL_CTX
