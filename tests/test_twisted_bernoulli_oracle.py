"""The twisted Bernoulli numbers B_{n,chi,xi} against Apostol-Bernoulli
numbers from Stirling numbers, computed by sympy alone.

With lambda = xi^d, t e^(at)/(lambda e^(dt) - 1) is (1/d) times
(dt) e^((a/d) dt)/(lambda e^(dt) - 1), so

    B_{n,chi,xi} = d^(n-1) sum_{a<d} chi(a) xi^a AB_n(a/d; lambda)
                 = sum_k C(n, k) d^(k-1) AB_k(lambda) E_(n-k),

with AB_n(y; lambda) = sum_k C(n, k) AB_k(lambda) y^(n-k) and
E_j = sum_{a<d} chi(a) xi^a a^j.  For lambda != 1, AB_0 = 0 and

    AB_k(lambda) = k sum_{j<k} (-1)^j j! S(k-1, j) lambda^j/(lambda-1)^(j+1),

S the Stirling numbers of the second kind; at lambda = 1, AB_k = B_k with
B_1 = -1/2 (T. M. Apostol, Pacific J. Math. 1, 1951; R. L. Graham,
D. E. Knuth and O. Patashnik, Concrete Mathematics, section 7.4).

The oracle takes xi = zeta_order^exponent from (order, exponent) alone,
never from a context, and chi(a) = zeta_m^k from the character's value
exponents, m its order.  It works in sympy polynomials mod
``cyclotomic_poly(N)``, N = lcm(2, order, m), with one inverse of
lambda - 1 and no series division, and uses nothing of ``cyclo.py``; a
package value in Q(zeta_L), L | N, is read through its coordinates at
zeta_L -> X^(N/L).  Each context is built by ``from_orders``, and, where
order = 2M with M odd, also from xi = -zeta_M^k, the same root as a negated
root of the odd field Q(zeta_M), where lambda keeps a sign -1 for odd d.
``bernoulli_numbers`` and both routes of ``bernoulli_gf``, each forced
(``bernoulli_helpers``), must give the oracle's B_0..B_6.  Both routes
read the Apostol table of zeta_R, R the order of lambda, so this is the
independent check of that table's use for the numbers themselves.  A
subset runs by default; the sweep of at least 150 contexts is marked slow.
"""

import math
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.functions.combinatorial.numbers import stirling  # noqa: E402

from twistbern.bernoulli import TwistContext, bernoulli_numbers  # noqa: E402
from twistbern.characters import character, enumerate_characters  # noqa: E402
from twistbern.cyclo import cyclo_field  # noqa: E402

from bernoulli_helpers import (bernoulli_gf_by_division,  # noqa: E402
                               bernoulli_gf_in_small_field)

TOP = 6
X = sympy.Symbol("x")


def _poly(expr):
    return sympy.Poly(expr, X, domain="QQ")


def _bernoulli(k: int):
    # sympy 1.14 takes B_1 = +1/2; x/(e^x - 1) has -1/2
    return sympy.Rational(-1, 2) if k == 1 else sympy.bernoulli(k)


def oracle_numbers(d: int, char: int, order: int, exponent: int,
                   top: int) -> tuple:
    """(N, [B_0..B_top]) of character(d, char) and xi = zeta_order^exponent,
    each B_n a sympy Poly in X = zeta_N reduced mod Phi_N."""
    chi = character(d, char)
    m = chi.order
    N = math.lcm(2, order, m)
    phi = _poly(sympy.cyclotomic_poly(N, X))
    xi_e = N // order * exponent

    def root(k):  # zeta_N^k
        return _poly(X**(k % N)).rem(phi)

    lam = root(xi_e * d)
    if lam == _poly(1):
        ab = [_poly(_bernoulli(k)) for k in range(top + 1)]
    else:
        inv = _poly(sympy.invert((lam - 1).as_expr(), phi.as_expr(), X))
        terms = [inv]  # lambda^j/(lambda - 1)^(j + 1)
        for _ in range(top):
            terms.append((terms[-1] * lam * inv).rem(phi))
        ab = [_poly(0)] + [
            sum((terms[j] * (k * (-1)**j * math.factorial(j)
                             * int(stirling(k - 1, j)))
                 for j in range(k)), _poly(0))
            for k in range(1, top + 1)]
    points = [(a, N // m * k + xi_e * a)
              for a, k in enumerate(chi.value_exponents()) if k is not None]
    sums = [sum((root(e) * a**j for a, e in points), _poly(0))
            for j in range(top + 1)]  # E_j, with 0^0 = 1
    return N, [sum(((ab[k] * sums[n - k]).rem(phi)
                    * (math.comb(n, k) * sympy.Rational(d)**(k - 1))
                    for k in range(n + 1)), _poly(0))
               for n in range(top + 1)]


def _as_oracle(x, N: int, phi):
    """A package element of Q(zeta_L) as a Poly in X = zeta_N mod Phi_N."""
    step = N // x.field.order
    return _poly(sum(sympy.Rational(c.numerator, c.denominator) * X**(i * step)
                     for i, c in enumerate(x.coeffs))).rem(phi)


def _contexts(d: int, char: int, order: int, exponent: int) -> list:
    """Fresh contexts of (d, char, zeta_order^exponent): from_orders, and
    for order = 2M, M odd, the negated root -zeta_M^k of Q(zeta_M)."""
    make = [lambda: TwistContext.from_orders(d, char, order, exponent)]
    if order % 4 == 2:
        M = order // 2   # zeta_order^exponent = -zeta_M^((exponent + M)/2)
        xi = -cyclo_field(M).root((exponent + M) // 2)
        make.append(lambda: TwistContext(character(d, char), xi))
    return make


def _check(d: int, char: int, order: int, exponent: int) -> None:
    N, want = oracle_numbers(d, char, order, exponent, TOP)
    phi = _poly(sympy.cyclotomic_poly(N, X))
    for make in _contexts(d, char, order, exponent):
        got = {"bernoulli_numbers": bernoulli_numbers(make(), TOP).values}
        for route in (bernoulli_gf_by_division, bernoulli_gf_in_small_field):
            got[route.__name__] = [c * math.factorial(n) for n, c in
                                   enumerate(route(make(), TOP))]
        for name, values in got.items():
            assert [_as_oracle(b, N, phi) for b in values] == want, \
                (name, make(), d, char, order, exponent)


def _coprime(order: int) -> list:
    return [e for e in range(1, order + 1) if math.gcd(e, order) == 1]


# lambda = 1 (order | d), lambda != 1, characters of order 1, 2 and 4,
# negated roots of Q(zeta_3) and Q(zeta_5) with odd d, where lambda keeps
# its sign -1, and with even d, where it loses it
SUBSET = [(1, 0, 1, 1), (1, 0, 2, 1), (1, 0, 6, 5), (3, 1, 3, 2),
          (3, 1, 6, 1), (4, 1, 4, 3), (4, 1, 2, 1), (4, 1, 6, 5),
          (5, 1, 10, 3), (5, 2, 3, 1), (5, 3, 4, 1), (7, 1, 6, 1),
          (2, 0, 10, 7)]


@pytest.mark.parametrize("d,char,order,exponent", SUBSET)
def test_the_numbers_are_the_apostol_bernoulli_sums(d, char, order,
                                                    exponent):
    _check(d, char, order, exponent)


def test_the_oracle_at_xi_one_is_the_generalized_bernoulli_numbers():
    # chi mod 4 real, xi = 1: B_{1,chi} = -1/2, B_3 = 3/2, and B_n = 0 for
    # even n (an odd character), a classical table written out by hand
    N, got = oracle_numbers(4, 1, 1, 1, 5)
    assert N == 2
    assert [g.as_expr() for g in got] == [0, Fraction(-1, 2), 0,
                                          Fraction(3, 2), 0,
                                          Fraction(-25, 2)]


SWEEP = [(d, char, order, exponent) for d in (1, 2, 3, 4, 5, 7)
         for char in range(len(enumerate_characters(d)))
         for order in (1, 2, 3, 4, 5, 6, 8, 10)
         for exponent in _coprime(order)[:2]]


def test_the_sweep_covers_150_contexts():
    assert sum(len(_contexts(*case)) for case in SWEEP) >= 150


@pytest.mark.slow
@pytest.mark.parametrize("d,char,order,exponent", SWEEP)
def test_every_swept_context_is_its_apostol_bernoulli_sums(d, char, order,
                                                           exponent):
    _check(d, char, order, exponent)
