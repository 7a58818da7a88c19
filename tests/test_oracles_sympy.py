"""Cross-checks against sympy, an implementation independent of twistbern."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from twistbern.bernoulli import TwistContext, bernoulli_numbers  # noqa: E402
from twistbern.characters import enumerate_characters  # noqa: E402
from twistbern.cyclo import cyclotomic_polynomial  # noqa: E402

from cyclo_helpers import rational_value  # noqa: E402


def _assert_cyclotomic_matches(orders):
    x = sympy.Symbol("x")
    for order in orders:
        expected = sympy.Poly(sympy.cyclotomic_poly(order, x), x).all_coeffs()
        assert cyclotomic_polynomial(order) == \
            tuple(int(c) for c in reversed(expected)), order


def test_cyclotomic_polynomials_match_sympy():
    # every order to 200, and the wide fields' orders above it (Moebius
    # products with up to four primes: 210, 390, 420)
    _assert_cyclotomic_matches(range(1, 201))
    _assert_cyclotomic_matches((204, 210, 216, 240, 252, 280, 300, 312, 336,
                                390, 420))


@pytest.mark.slow
def test_cyclotomic_polynomials_match_sympy_to_600():
    _assert_cyclotomic_matches(range(201, 601))


def test_classical_bernoulli_numbers_match_sympy():
    n_max = 40
    values = bernoulli_numbers(TwistContext.from_orders(1), n_max).values
    for n, v in enumerate(values):
        b = sympy.bernoulli(n)
        expected = Fraction(int(b.p), int(b.q))
        if n == 1:
            # sympy >= 1.12 takes B_1 = +1/2, older versions -1/2;
            # twistbern's generating function t/(e^t - 1) gives -1/2
            expected = -abs(expected)
        assert rational_value(v) == expected, n


def test_generalized_bernoulli_numbers_match_sympy_polynomials():
    # at xi = 1: B_{n,chi} = d^(n-1) sum_{a<d} chi(a) B_n(a/d), with the
    # right-hand side formed in Q(zeta_L) from sympy's Bernoulli polynomials
    # (whose degree-1 member is x - 1/2, the convention used here)
    n_max = 10
    for d in range(1, 13):
        for idx in range(len(enumerate_characters(d))):
            ctx = TwistContext.from_orders(d, idx, 1)
            values = bernoulli_numbers(ctx, n_max).values
            for n in range(n_max + 1):
                expected = ctx.field.zero
                for a in range(d):
                    b = sympy.bernoulli(n, sympy.Rational(a, d))
                    expected = expected + ctx.chi_at(a) * (
                        Fraction(int(b.p), int(b.q)) * Fraction(d) ** (n - 1))
                assert values[n] == expected, (d, idx, n)
