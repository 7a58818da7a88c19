"""Cross-checks against sympy, an implementation independent of twistbern."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from twistbern.bernoulli import TwistContext, bernoulli_numbers  # noqa: E402
from twistbern.cyclo import cyclotomic_polynomial  # noqa: E402


def test_cyclotomic_polynomials_match_sympy():
    x = sympy.Symbol("x")
    for order in range(1, 201):
        expected = sympy.Poly(sympy.cyclotomic_poly(order, x), x).all_coeffs()
        assert cyclotomic_polynomial(order) == \
            tuple(int(c) for c in reversed(expected)), order


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
        assert v.rational_value() == expected, n
