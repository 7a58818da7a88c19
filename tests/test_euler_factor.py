"""The same twisted Bernoulli numbers through a second modulus.

Let chi' be chi mod d induced to the modulus F = d*p, p prime: chi'(a) =
chi(a) where gcd(a, F) = 1, and 0 elsewhere.  Splitting the terms with
p | a off the generating function
t sum_{a<F} chi'(a) xi^a e^{at} / (xi^F e^{Ft} - 1) gives

    B_n(chi', xi) = B_n(chi, xi) - chi(p) p^(n-1) B_n(chi, xi^p),

the Euler factor of an imprimitive character (Washington, *Introduction
to Cyclotomic Fields*, 4.1), twisted; where p | d, chi(p) = 0 and chi' is
chi read with period F.  Nothing in the package relates two moduli: the
two sides have different character sums, and where p divides the order R
of xi^d, different R, so another Apostol table and perhaps another route
of ``_ratio_table``; the right side also reads the twist xi^p, the
substitution on which every ratio table of a scale c != 1 rests.  The
relation is checked on ``bernoulli_numbers``, on the Bernoulli
generating function as a form, asked at t^N and then served from each
context's form store at every lower n, and on the Bernoulli polynomials,

    B_n(chi', xi; x) = B_n(chi, xi; x) - chi(p) p^(n-1) B_n(chi, xi^p; x/p),

through ``bernoulli_polynomial``.

The relation is linear, so an error that scales every B_n alike survives
wherever both sides take one route.  Integrality covers that: where R > 1
is not a prime power, xi^d - 1 is a unit of Z[zeta_L], so every B_n has
integer coordinates in the power basis, and where R = p^k only p divides
a denominator.
"""

import math
from fractions import Fraction

import pytest

from twistbern import symmetry
from twistbern.bernoulli import (TwistContext, bernoulli_numbers,
                                 bernoulli_polynomial, quotient_plan)
from twistbern.characters import enumerate_characters
from twistbern.cyclo import cyclo_field

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

N = 8
#: t times the p-adic integral of scale 1: the Bernoulli generating function
GF = quotient_plan((), (1,))


def induced(chi, F: int):
    """The character mod F, a multiple of chi's modulus d, that is chi on
    the units mod F: chi(a) where gcd(a, F) = 1, and 0 elsewhere."""
    d = chi.modulus
    want = tuple(chi.value_exponent(a % d) if math.gcd(a, F) == 1 else None
                 for a in range(F))
    [psi] = [psi for psi in enumerate_characters(F)
             if psi.order == chi.order and psi.value_exponents() == want]
    return psi


def _roots(orders):
    """Every root of unity of each order, as an element of its own field."""
    for r in orders:
        for e in range(r):
            if math.gcd(e, r) == 1:
                yield cyclo_field(r).root(e)


def _prime_power_base(R: int) -> int | None:
    """p where R = p^k, k >= 1; None where R is 1 or not a prime power."""
    p = next((q for q in range(2, R + 1) if R % q == 0), None)
    while p is not None and R % p == 0:
        R //= p
    return p if R == 1 else None


def _check_euler_factor(chi, p: int, xi, n_max: int) -> None:
    """Assert the relation for B_0..B_n_max at chi, xi and the prime p, on
    the Bernoulli numbers and on the generating functions as forms."""
    ctx = TwistContext(chi, xi)
    other = TwistContext(induced(chi, chi.modulus * p), ctx.xi)
    twist = ctx.twist(p)
    assert other.field is ctx.field is twist.field
    chi_p = ctx.chi_at(p)
    left, right, at_p = (bernoulli_numbers(where, n_max)
                         for where in (other, ctx, twist))
    for n in range(n_max + 1):
        assert left[n] == right[n] - chi_p * Fraction(p) ** (n - 1) * at_p[
            n], (chi, p, xi, n)
    # the generating functions as forms, each asked at t^n_max, then
    # served from its context's store at every lower n
    for where in (other, ctx, twist):
        symmetry._form(where, GF, n_max)
    for n in range(n_max, -1, -1):
        gf, gf_d, gf_p = (symmetry._form(where, GF, n)[1]
                          for where in (other, ctx, twist))
        assert gf[n] == gf_d[n] - chi_p * Fraction(p) ** (n - 1) * gf_p[n], (
            chi, p, xi, n)


def test_the_euler_factor_relates_b_n_at_d_and_at_d_times_p():
    points = 0
    for d in (1, 3, 4, 5):
        for chi in enumerate_characters(d):
            for p in (2, 3, 5):
                for xi in _roots(range(1, 7)):
                    _check_euler_factor(chi, p, xi, N)
                    points += 1
    assert points == 324


def test_the_euler_factor_relates_b_n_x_at_d_and_at_d_times_p():
    # the sum over a < F at x splits as the one at d at x less chi(p) p^n
    # times the one of the twist xi^p at x/p, scaled by 1/p
    points = 0
    for d in (1, 3, 4, 5):
        for chi in enumerate_characters(d):
            for p in (2, 3):
                other = induced(chi, d * p)
                for r in (1, 2, 3, 4, 6):
                    ctx = TwistContext(chi, cyclo_field(r).root(1))
                    left = TwistContext(other, ctx.xi)
                    twist, chi_p = ctx.twist(p), ctx.chi_at(p)
                    for x in (Fraction(0), Fraction(1, 3), Fraction(5, 2)):
                        for n in range(7):
                            assert bernoulli_polynomial(left, n, x) == (
                                bernoulli_polynomial(ctx, n, x)
                                - chi_p * Fraction(p) ** (n - 1)
                                * bernoulli_polynomial(twist, n, x / p)), (
                                chi, p, r, x, n)
                            points += 1
    assert points == 1890


@pytest.mark.slow
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.integers(1, 12), st.sampled_from((2, 3, 5, 7)), st.integers(1, 30),
       st.data())
def test_the_euler_factor_off_the_grid(d, p, r, data):
    chi = data.draw(st.sampled_from(enumerate_characters(d)))
    e = data.draw(st.sampled_from([e for e in range(r)
                                   if math.gcd(e, r) == 1]))
    _check_euler_factor(chi, p, cyclo_field(r).root(e), 6)


def test_b_n_is_integral_where_the_order_of_xi_to_the_d_is_no_prime_power():
    values = 0
    for d in range(1, 6):
        for chi in enumerate_characters(d):
            for xi in _roots(range(2, 13)):
                ctx = TwistContext(chi, xi)
                R = ctx.xi_order // math.gcd(ctx.xi_order, d)
                if R == 1:
                    continue
                p = _prime_power_base(R)
                for n, b in enumerate(bernoulli_numbers(ctx, 10).values):
                    den = b.den
                    while p is not None and den % p == 0:
                        den //= p
                    assert den == 1, (d, chi, xi, R, n, b)
                    values += 1
    assert values == 4653
