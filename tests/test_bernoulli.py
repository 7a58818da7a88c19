import math
from fractions import Fraction

import pytest

from twistbern import bernoulli
from twistbern.bernoulli import (TwistContext, bernoulli_numbers,
                                 bernoulli_polynomial, power_sum,
                                 powersum_gf_check)
from twistbern.characters import character, enumerate_characters
from twistbern.cyclo import CycloField, CycloNumber, _rows, cyclo_field
from twistbern.sympoly import SymPoly

from bernoulli_helpers import (bernoulli_polynomial_gf, plain_twisted_numbers,
                               ratio_route)
from cyclo_helpers import rational_value


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
        assert ctx.xi_pow(ctx.d) != 1
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
            rational_value(chi(a)) * classical_poly(n, Fraction(a, 4))
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


@pytest.mark.parametrize("small", [True, False], ids=["small", "ratio"])
@pytest.mark.parametrize("d,char,order", GF_CONTROLS)
def test_powersum_gf_check_catches_a_wrong_side_a_factor(monkeypatch, d, char,
                                                         order, small):
    # side A multiplies the unit of w by the ("ratio", 1) table, built here
    # by each route of _ratio_table, forced, with its t^3 coefficient off
    # by one
    ctx = TwistContext.from_orders(d, char, order)
    routes = []
    exact = ratio_route(small)

    def perturbed(c, build):
        routes.append(small)
        coeffs = list(exact(c, build).elements())
        if build >= 3:
            coeffs[3] = coeffs[3] + 1
        return _rows(c.field, coeffs, len(coeffs))

    monkeypatch.setattr(bernoulli, "_ratio_table", perturbed)
    report = powersum_gf_check(ctx, 2, 6)
    assert routes == [small]
    assert not report.passed
    assert report.detail.startswith("quotient-vs-direct first differs at t^3:")


@pytest.mark.parametrize("d,char,order", GF_CONTROLS + [(1, 0, 1)])
def test_powersum_gf_check_catches_side_b_one_point_short(monkeypatch, d,
                                                          char, order):
    # side B summed over a < dw - 1 only: the point a = dw - 1 is dropped
    # by reading chi there as 0, and chi(dw - 1) xi^(dw - 1) is a root of
    # unity, so t^0 differs; side B is the only reader of chi_at here
    ctx = TwistContext.from_orders(d, char, order)
    last = 2 * d - 1
    assert not ctx.chi_at(last).is_zero()
    exact = TwistContext.chi_at
    monkeypatch.setattr(TwistContext, "chi_at", lambda self, a: (
        self.field.zero if a == last else exact(self, a)))
    report = powersum_gf_check(ctx, 2, 6)
    assert not report.passed
    assert report.detail.startswith("quotient-vs-direct first differs at t^0:")


def _gf_evaluations(monkeypatch) -> list:
    # the truncations at which bernoulli_gf evaluated the GF's plan, not
    # those its form store served by a slice
    evaluated = []
    exact = bernoulli.bernoulli_gf

    def counted(ctx, truncation):
        stored = len(ctx._forms.get(bernoulli._GF_PLAN, ()))
        F = exact(ctx, truncation)
        if len(ctx._forms[bernoulli._GF_PLAN]) != stored:
            evaluated.append(truncation)
        return F

    monkeypatch.setattr(bernoulli, "bernoulli_gf", counted)
    return evaluated


def test_bernoulli_table_grows_geometrically(monkeypatch):
    evaluated = _gf_evaluations(monkeypatch)
    ctx = TwistContext.from_orders(5, 1, 3)
    got = [bernoulli_numbers(ctx, n).values for n in range(17)]
    assert evaluated[0] == 0 and len(evaluated) <= 5
    fresh = TwistContext.from_orders(5, 1, 3)
    values = bernoulli_numbers(fresh, 16).values
    assert len(values) == 17  # exactly n_max + 1
    for n, head in enumerate(got):
        assert head == values[:n + 1]


def test_a_context_keeps_one_copy_of_its_bernoulli_numbers(monkeypatch):
    # the Bernoulli numbers are read off the GF's stored form: the context
    # keeps the truncation it grew that form to, and no list of B_n
    ctx = TwistContext.from_orders(19, 2, 60)
    values = bernoulli_numbers(ctx, 40).values
    assert ctx._bern == 40
    F = bernoulli.bernoulli_gf(ctx, 40)
    assert values == [math.factorial(n) * c for n, c in enumerate(F)]
    for name in TwistContext.__slots__:
        kept = getattr(ctx, name)
        assert not (isinstance(kept, (list, tuple))
                    and list(kept[:len(values)]) == values), name
    evaluated = _gf_evaluations(monkeypatch)
    assert len(bernoulli_numbers(ctx, 41)) == 42
    assert evaluated == [82] and ctx._bern == 82


@pytest.mark.parametrize("d", (1, 3, 4))
@pytest.mark.parametrize("r", (5, 8))
def test_xi_exp_picks_the_power_of_the_root(d, r):
    # from_orders(d, char, r, e) twists by xi = zeta_r^e, which is
    # zeta_L^(e*L/r) in the context's field Q(zeta_L)
    for char in range(len(enumerate_characters(d))):
        for e in range(1, 2 * r):
            if math.gcd(e, r) == 1:
                ctx = TwistContext.from_orders(d, char, r, e)
                L = ctx.field.order
                assert ctx.xi == ctx.field.root(e * L // r), (char, e)


def test_context_validation():
    with pytest.raises(ValueError):
        TwistContext.from_orders(1, 0, 4, 2)   # gcd(exp, order) != 1
    with pytest.raises(ValueError):
        TwistContext.from_orders(1, 5, 1, 1)   # character index out of range


def test_twist_shares_field_and_caches():
    ctx = TwistContext.from_orders(5, 1, 3, 1)
    t = ctx.twist(2)
    assert t.field.order == ctx.field.order
    assert t.xi == ctx.xi_pow(2)
    assert ctx.twist(2) is t  # cached
    assert ctx.twist(2 + ctx.xi_order) is t


def test_a_context_builds_only_the_powers_of_xi_asked_for():
    # xi of order 2003 in a field no other test uses: a context keeps xi
    # as its exponent of zeta_M and reads each power from the root cache
    # when asked, so it leaves xi's root alone there, not all 2003 powers
    field = CycloField(2003)
    ctx = TwistContext(character(1, 0), field.root(1))
    assert ctx.xi_order == 2003 and len(field._roots) <= 2
    assert ctx.xi_pow(2005) == ctx.xi_pow(2) == ctx.xi * ctx.xi
    assert ctx.twist(3).xi == ctx.xi_pow(3)
    assert len(field._roots) <= 4


@pytest.mark.parametrize("xi", [-cyclo_field(3).root(1), -cyclo_field(3).one,
                                cyclo_field(12).root(5), cyclo_field(1).one],
                         ids=["-zeta3", "-1", "zeta12^5", "1"])
def test_xi_pow_is_the_power_of_xi(xi):
    # signed roots of an odd field included, and exponents of either sign
    ctx = TwistContext(character(5, 1), xi)
    for j in range(-2 * ctx.xi_order, 2 * ctx.xi_order + 1):
        assert ctx.xi_pow(j) == ctx.xi ** j, j


def test_context_walks_the_root_of_xi_once(monkeypatch):
    calls = []
    walk = CycloNumber.root_exponent

    def counted(self):
        calls.append(self.field.order)
        return walk(self)
    monkeypatch.setattr(CycloNumber, "root_exponent", counted)
    ctx = TwistContext.from_orders(5, 1, 12, 5)
    assert len(calls) == 1 and ctx.xi_order == 12
    calls.clear()
    assert ctx.twist(3).xi_order == 4
    assert len(calls) == 1
    # -zeta_3 and -1 in Q(zeta_3) are odd powers of zeta_6: even orders
    f = cyclo_field(3)
    for xi, order in ((-f.root(1), 6), (-f.one, 2), (f.root(2), 3),
                      (f.one, 1)):
        calls.clear()
        assert TwistContext(character(1, 0), xi).xi_order == order
        assert len(calls) == 1


def test_bernoulli_table_shape():
    table = bernoulli_numbers(CLASSICAL_CTX, 5)
    assert len(table) == 6
    assert table.context is CLASSICAL_CTX
