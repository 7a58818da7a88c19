"""The field's table of each root of unity against Apostol-Bernoulli numbers
from Stirling numbers, computed by sympy alone.

For a root of unity u != 1, the table g_u = 1/(u e^x - 1) of
``bernoulli._apostol_table`` has coefficient k = AB_(k+1)(u)/(k+1)!, with

    AB_k(lambda) = k sum_{j<k} (-1)^j j! S(k-1, j) lambda^j/(lambda-1)^(j+1),

S the Stirling numbers of the second kind.  This follows from
x/(lambda e^x - 1) = x/(lambda - 1) sum_j (-mu)^j (e^x - 1)^j with
mu = lambda/(lambda - 1), and (e^x - 1)^j/j! = sum_n S(n, j) x^n/n!
(T. M. Apostol, Pacific J. Math. 1, 1951; R. L. Graham, D. E. Knuth and
O. Patashnik, Concrete Mathematics, section 7.4).  It takes one inverse of
lambda - 1 and no series division.  At u = 1 the table is x/(e^x - 1),
whose coefficient k is B_k/k!.  The oracle works in sympy polynomials mod
``cyclotomic_poly(L)``, reading u = zeta_M^f, M = lcm(2, L), from its
key f alone as the f-th power of zeta_M = x (even L) or -x^((L+1)/2) (odd
L), and uses nothing of ``cyclo.py``; the tables are read through their
coordinates.
"""

import math
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.functions.combinatorial.numbers import stirling  # noqa: E402

from twistbern.bernoulli import _apostol_table  # noqa: E402
from twistbern.cyclo import CycloField  # noqa: E402

TOP = 12
X = sympy.Symbol("x")


def _fraction(q) -> Fraction:
    q = sympy.Rational(q)
    return Fraction(int(q.p), int(q.q))


def _coordinates(poly, degree: int) -> tuple:
    """The coordinates of a polynomial of degree < degree, constant first."""
    coeffs = [_fraction(c) for c in reversed(poly.all_coeffs())]
    return tuple(coeffs + [Fraction(0)] * (degree - len(coeffs)))


def _bernoulli(k: int) -> Fraction:
    # sympy 1.14 takes B_1 = +1/2; the table's x/(e^x - 1) has -1/2
    return Fraction(-1, 2) if k == 1 else _fraction(sympy.bernoulli(k))


def apostol_oracle(order: int, root: int, top: int) -> list:
    """The coordinates of coefficients 0..top of g_u over Q(zeta_order),
    u = zeta_M^f for root f, M = lcm(2, order)."""
    phi = sympy.Poly(sympy.cyclotomic_poly(order, X), X, domain="QQ")
    degree = phi.degree()
    zeta_m = X if order % 2 == 0 else -X**((order + 1) // 2)
    lam = sympy.Poly(zeta_m**root, X, domain="QQ").rem(phi)
    if lam == sympy.Poly(1, X, domain="QQ"):
        return [_coordinates(sympy.Poly(_bernoulli(k) / math.factorial(k), X,
                                        domain="QQ"), degree)
                for k in range(top + 1)]
    inv = sympy.Poly(sympy.invert((lam - 1).as_expr(), phi.as_expr(), X), X,
                     domain="QQ")
    mu = (lam * inv).rem(phi)
    powers = [sympy.Poly(1, X, domain="QQ")]
    for _ in range(top):
        powers.append((powers[-1] * mu).rem(phi))
    out = []
    for k in range(top + 1):
        # AB_(k+1)/(k+1)! = (1/(lambda - 1)) sum_j (-1)^j j! S(k, j) mu^j / k!
        acc = sympy.Poly(0, X, domain="QQ")
        for j in range(k + 1):
            s = stirling(k, j)
            if s:
                acc += powers[j] * ((-1)**j * math.factorial(j) * int(s))
        out.append(_coordinates((acc * inv).rem(phi) * sympy.Rational(
            1, math.factorial(k)), degree))
    return out


def _roots(order: int) -> range:
    """Every key f of a root of unity zeta_M^f of Q(zeta_order),
    M = lcm(2, order): for odd orders, the odd f are the roots -zeta^e that
    are no power of zeta."""
    return range(math.lcm(2, order))


@pytest.mark.parametrize("order", [3, 4, 5, 7, 8, 9, 12])
def test_every_root_table_is_its_apostol_bernoulli_numbers(order):
    # a fresh field: every table is built here, to exactly x^TOP
    field = CycloField(order)
    for root in _roots(order):
        table = _apostol_table(field, root, TOP)
        assert len(table) == TOP + 1
        got = [c.coeffs for c in table.elements()]
        assert got == apostol_oracle(order, root, TOP), root


def test_the_oracle_is_minus_one_over_e_to_the_x_plus_one_at_minus_one():
    # u = -1 (order 4, f = 2): g_u = -1/(e^x + 1) = -1/2 + x/4 - x^3/48 +
    # x^5/480 - ..., a classical expansion written out by hand
    want = [Fraction(-1, 2), Fraction(1, 4), 0, Fraction(-1, 48), 0,
            Fraction(1, 480)]
    assert [row[0] for row in apostol_oracle(4, 2, 5)] == want
    assert all(row[1] == 0 for row in apostol_oracle(4, 2, 5))
