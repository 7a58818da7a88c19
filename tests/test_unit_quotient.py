"""Oracles for the division by a unit, ``cyclo.unit_quotient``.

The unit of a root of unity u = sign * zeta_L^e and a scale s is the series
u e^(st) - 1.  Its elements are built here directly, u - 1 and u s^i/i!,
with no recurrence, and multiplied by ``cyclo.product``: the quotient q of
a sequence a times the unit must give back a, or t * a at u = 1, where the
quotient is a t / (e^(st) - 1).  The roots cover every (sign, e) of the
small fields, sign -1 at odd L included, and of two wide fields of the
wide-field benchmark.  ``inverse_root_minus_one``, 1/(u - 1) from a root
sum, is checked against the extended-Euclid ``CycloNumber.inverse`` at
every root u != 1 of every field up to L = 60.
"""

import math
from fractions import Fraction

import pytest

from twistbern.cyclo import (cyclo_field, inverse_root_minus_one, product,
                             unit_quotient)

SMALL = (1, 2, 3, 4, 5, 7, 9, 12, 15)
SCALES = (1, 3, Fraction(-5, 2))
# two fields of perfbench's bernoulli_pool() with the modulus d of their
# request as the scale: Q(zeta_99) (odd, degree 60, d = 199) and
# Q(zeta_232) (degree 112, the largest of the pool, d = 59)
WIDE = ((99, 199), (232, 59))
N = 6


def _roots(L):
    """Every key (sign, e) of a root of unity of Q(zeta_L): sign -1 only
    for odd L, where -1 is no power of zeta_L."""
    return [(sign, e) for sign in ((1, -1) if L % 2 else (1,))
            for e in range(L)]


def _root(field, sign, e):
    z = field.root(e)
    return z if sign == 1 else -z


def _numerator(field):
    """N coefficients, dense and sparse, rational and not, one zero."""
    return tuple(field.root_sum([(k, 1), (3 * k + 1, -2)]) * Fraction(1, k + 1)
                 + k if k != 2 else field.zero for k in range(N))


def _check(L, root, scale):
    field = cyclo_field(L)
    a = _numerator(field)
    q = unit_quotient(field, a, root, scale)
    assert len(q) == N
    u = _root(field, *root)
    unit = [u - 1] + [u * (Fraction(scale) ** i / math.factorial(i))
                      for i in range(1, N + 1)]
    if root == (1, 0):   # q * unit == t * a: unit_0 = 0 leaves q_N unread
        assert product(field, [list(q) + [field.zero], unit], N + 1) == \
            [field.zero, *a], (L, root, scale)
    else:
        assert product(field, [q, unit], N) == list(a), (L, root, scale)


@pytest.mark.parametrize("L", SMALL)
def test_unit_quotient_times_its_unit_is_the_numerator(L):
    for root in _roots(L):
        for scale in SCALES:
            _check(L, root, scale)


@pytest.mark.parametrize("L,scale", WIDE)
def test_unit_quotient_at_every_root_of_a_wide_field(L, scale):
    assert cyclo_field(L).degree >= 60
    for root in _roots(L):
        _check(L, root, scale)


def test_the_root_sum_inverse_is_the_field_inverse():
    seen = set()
    for L in range(1, 61):
        field = cyclo_field(L)
        for sign, e in _roots(L):
            if (sign, e) == (1, 0):
                continue
            u = _root(field, sign, e)
            assert inverse_root_minus_one(field, (sign, e)) == \
                (u - 1).inverse(), (L, sign, e)
            seen.add(sign)
    assert seen == {1, -1}
