import math
from fractions import Fraction

import pytest

from twistbern import padic
from twistbern.bernoulli import TwistContext, bernoulli_numbers
from twistbern.cyclo import cyclo_field
from twistbern.padic import (INFINITE, PadicContext, convergence_check,
                             padic_context, pi_valuation,
                             shift_identity_check, volkenborn_partial)


def test_pi_valuation_examples():
    p3 = padic_context(3, 1)
    f3 = cyclo_field(3)
    assert pi_valuation(f3.from_rational(3), p3) == 1
    assert pi_valuation(f3.one - f3.root(1), p3) == Fraction(1, 2)
    assert pi_valuation(f3.from_rational(2), p3) == 0
    assert pi_valuation(f3.zero, p3) == INFINITE
    with pytest.raises(ValueError):
        pi_valuation(cyclo_field(4).one, p3)


def test_pi_valuation_is_a_valuation():
    for (p, s) in ((3, 1), (2, 2)):
        pctx = padic_context(p, s)
        f = pctx.field
        samples = [f.from_rational(Fraction(p, 2)) if p > 2 else
                   f.from_rational(Fraction(2, 3)),
                   f.one - f.root(1), f.root(1) + 1,
                   f.from_rational(p**2), f.root(1) * 3 - 5]
        for a in samples:
            for b in samples:
                assert pi_valuation(a * b, pctx) == \
                    pi_valuation(a, pctx) + pi_valuation(b, pctx)
                if not (a + b).is_zero():
                    assert pi_valuation(a + b, pctx) >= \
                        min(pi_valuation(a, pctx), pi_valuation(b, pctx))


def test_volkenborn_partial_examples():
    ctx = TwistContext.from_orders(1, 0, 1, 1)
    assert volkenborn_partial(ctx, 3, 0, 1) == 1
    assert volkenborn_partial(ctx, 3, 1, 1) == 1
    assert volkenborn_partial(ctx, 3, 1, 2) == 4


def test_convergence_classic_rates():
    ctx = TwistContext.from_orders(1, 0, 1, 1)
    rep = convergence_check(ctx, padic_context(3, 0), 1, 5)
    assert rep.passed
    assert [v for _, v in rep.rows] == [Fraction(n) for n in range(1, 6)]
    rep0 = convergence_check(ctx, padic_context(3, 0), 0, 4)
    assert rep0.passed
    assert all(v == INFINITE for _, v in rep0.rows)
    rep1 = convergence_check(ctx, padic_context(3, 0), 1, 1)  # one level
    assert rep1.passed and rep1.rows == [(1, 1)]


def test_convergence_with_ramified_twist():
    ctx = TwistContext.from_orders(1, 0, 2, 1)
    rep = convergence_check(ctx, padic_context(2, 1), 1, 5)
    assert rep.passed
    ctx3 = TwistContext.from_orders(3, 1, 3, 1)
    rep = convergence_check(ctx3, padic_context(3, 1), 3, 5)
    assert rep.passed
    # valuations are genuinely fractional in the ramified case
    assert any(v != INFINITE and v.denominator == 2 for _, v in rep.rows)


def test_convergence_rejects_complex_characters():
    ctx = TwistContext.from_orders(5, 1, 5, 1)
    with pytest.raises(ValueError, match="unsupported"):
        convergence_check(ctx, padic_context(5, 1), 1, 3)
    # a character of order 3 mod 7 with xi of order 3 has its values in
    # Q(zeta_3) itself, and is refused all the same
    ctx = TwistContext.from_orders(7, 2, 3, 1)
    assert ctx.chi.order == 3 and ctx.field.order == 3
    with pytest.raises(ValueError, match="unsupported"):
        convergence_check(ctx, padic_context(3, 1), 1, 3)


@pytest.mark.parametrize("order,p,s", [(3, 2, 1), (4, 2, 1), (2, 2, 2),
                                       (1, 3, 1), (3, 3, 0), (4, 3, 1)])
def test_convergence_rejects_an_xi_order_other_than_p_to_the_s(order, p, s):
    ctx = TwistContext.from_orders(1, 0, order, 1)
    with pytest.raises(ValueError,
                       match="^xi order is not the stated prime power$"):
        convergence_check(ctx, padic_context(p, s), 1, 3)


def test_partial_sum_matches_bernoulli_limit_exactly_when_periodic():
    # with xi of order 3 and k=1 the partial averages stabilize at B_1
    ctx = TwistContext.from_orders(1, 0, 3, 1)
    b1 = bernoulli_numbers(ctx, 1)[1]
    for level in (1, 2, 3):
        assert volkenborn_partial(ctx, 3, 1, level) == b1


def test_shift_identity_examples():
    assert shift_identity_check(1, 1)   # B_1(1) - B_1 = 1
    assert shift_identity_check(3, 4)   # Faulhaber: 3*(0+1+4+9) = 42
    assert shift_identity_check(0, 5)   # constant function
    ctx = TwistContext.from_orders(1, 0, 1, 1)
    from twistbern.bernoulli import bernoulli_polynomial
    lhs = bernoulli_polynomial(ctx, 3, Fraction(4)) - bernoulli_numbers(ctx, 3)[3]
    assert lhs == 42


def test_shift_identity_rectangle():
    for m in range(9):
        for n in range(1, 7):
            assert shift_identity_check(m, n), (m, n)


def test_padic_context_validation():
    for p in (0, 1, 4, 9):
        with pytest.raises(ValueError, match="p must be prime"):
            padic_context(p, 1)
    with pytest.raises(ValueError):
        padic_context(3, -1)
    pctx = padic_context(2, 2)
    assert pctx.ramification == 2
    assert pctx.field.order == 4


def _valuation_by_division(alpha, pctx):
    # reference: rational content from the Fraction view, then repeated
    # division by pi while the reduction mod pi vanishes
    p = pctx.p
    content = min(_rational_val(c, p) for c in alpha.coeffs if c)
    beta = alpha / Fraction(p) ** content
    pi = pctx.field.one - pctx.field.root(1)
    steps = 0
    while pctx.field.degree >= 2 and sum(
            c.numerator * pow(c.denominator, -1, p) for c in beta.coeffs) % p == 0:
        beta = beta / pi
        steps += 1
    return Fraction(content) + Fraction(steps, pctx.ramification)


def _rational_val(q, p):
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def test_pi_valuation_matches_division_reference():
    for p, s in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
        pctx = padic_context(p, s)
        f = pctx.field
        pi = f.one - f.root(1)
        z = f.root(1)
        samples = [f.from_rational(Fraction(p**3, 7)), pi ** 5 * Fraction(2, 9),
                   (z + 3) * pi ** 2 / p**2, z ** 2 - z * Fraction(1, p) + 4,
                   f.from_rational(Fraction(5, p**2)) * pi ** (f.degree + 1)]
        for a in samples:
            assert pi_valuation(a, pctx) == _valuation_by_division(a, pctx)


def test_convergence_rejects_empty_or_negative_parameters():
    ctx = TwistContext.from_orders(1, 0, 3, 1)
    with pytest.raises(ValueError, match="k must be >= 0"):
        convergence_check(ctx, padic_context(3, 1), -1, 3)
    for n_max in (0, -1):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            convergence_check(ctx, padic_context(3, 1), 1, n_max)


@pytest.mark.parametrize("valuations,detail", [
    ([1, 2, 3, 4], None),
    ([INFINITE, 1, INFINITE, 2], None),             # exact levels are skipped
    ([4, 4, 5, 6], "from N=1 (4) to N=2 (4)"),      # a stall fails
    ([0, Fraction(-1, 2), INFINITE, INFINITE], "from N=1 (0) to N=2 (-1/2)"),
    ([1, INFINITE, 3, 2], "from N=3 (3) to N=4 (2)"),
])
def test_convergence_passes_iff_the_finite_valuations_rise(
        monkeypatch, valuations, detail):
    # the verdict rule alone, on scripted valuations of levels 1..4
    rows = iter(valuations)
    monkeypatch.setattr(padic, "pi_valuation", lambda diff, pctx: next(rows))
    ctx = TwistContext.from_orders(1, 0, 1, 1)
    rep = convergence_check(ctx, padic_context(3, 0), 1, 4)
    assert rep.rows == list(zip(range(1, 5), valuations))
    assert rep.passed == (detail is None)
    assert rep.detail == (detail and f"valuation not increasing {detail}")


@pytest.mark.parametrize("p", [2, 3, 1000003])
def test_padic_context_accepts_primes(p):
    assert padic_context(p, 0).p == p


@pytest.mark.parametrize("p", [1, 4, 1000001])  # 1000001 = 101 * 9901
def test_padic_context_rejects_non_primes(p):
    with pytest.raises(ValueError, match="p must be prime"):
        padic_context(p, 0)


@pytest.mark.parametrize("p,s", ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                 (5, 2), (7, 1)))
def test_pi_valuation_reads_every_power_of_pi_below_e(p, s):
    # 11 is a unit at p, so v(11 * pi^k) = k/e, with k = e - 1 the most
    # divisions by pi a p-integral element outside pZ[zeta] can take
    pctx = padic_context(p, s)
    f, e = pctx.field, pctx.ramification
    pi = f.one - f.root(1)
    for k in range(e):
        assert pi_valuation(11 * pi**k, pctx) == Fraction(k, e)
    # a stated ramification that the divisions reach is an internal error
    with pytest.raises(ArithmeticError):
        pi_valuation(11 * pi**(e - 1), PadicContext(pctx.p, pctx.s, pctx.field, e - 1))
