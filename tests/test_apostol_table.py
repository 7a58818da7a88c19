"""Oracles for the Apostol tables, ``bernoulli._apostol_table``.

The table of a root of unity u = sign * zeta_L^e is g_u = 1/(u e^x - 1),
or x/(e^x - 1) at u = 1.  The unit u e^x - 1 is built here directly, its
elements u - 1 and u/i!, with no recurrence, and multiplied by
``cyclo.product``: the table times the unit must be 1, or x at u = 1.  The
roots cover every (sign, e) of the small fields, sign -1 at odd L
included, and of two wide fields of the wide-field benchmark, so every
table is read both as the field's own table of zeta_L and re-mapped from
the table of zeta_R of a smaller field; each field keeps at most one table,
its own.  ``inverse_root_minus_one``, 1/(u - 1) from a root sum, is
checked against the extended-Euclid ``CycloNumber.inverse`` at every root
u != 1 of every field up to L = 60.
"""

import math
from fractions import Fraction

import pytest

from twistbern.bernoulli import _apostol_table
from twistbern.cyclo import (CycloField, RowTable, cyclo_field,
                             inverse_root_minus_one, product)

SMALL = (1, 2, 3, 4, 5, 7, 9, 12, 15)
# two fields of perfbench's bernoulli_pool(): Q(zeta_99) (odd, degree 60)
# and Q(zeta_232) (degree 112, the largest of the pool)
WIDE = (99, 232)
N = 6


def _roots(L):
    """Every key (sign, e) of a root of unity of Q(zeta_L): sign -1 only
    for odd L, where -1 is no power of zeta_L."""
    return [(sign, e) for sign in ((1, -1) if L % 2 else (1,))
            for e in range(L)]


def _root(field, sign, e):
    z = field.root(e)
    return z if sign == 1 else -z


def _check(field, root):
    table = _apostol_table(field, root, N)
    assert len(table) >= N + 1
    u = _root(field, *root)
    unit = [u - 1] + [u * Fraction(1, math.factorial(i))
                      for i in range(1, N + 2)]
    g = list(table.elements()[:N + 1])
    if root == (1, 0):   # g * unit == x: unit_0 = 0 leaves g_N unread
        assert product(field, [g + [field.zero], unit], N + 2)[:N + 1] == \
            [field.zero, field.one] + [field.zero] * (N - 1), root
    else:
        assert product(field, [g, unit], N + 1) == \
            [field.one] + [field.zero] * N, root


def _every_root(L):
    # a fresh field: its own table is built here
    field = CycloField(L)
    for root in _roots(L):
        _check(field, root)
    assert isinstance(field._apostol, RowTable)
    assert field._apostol.field is field and len(field._apostol) == N + 1


@pytest.mark.parametrize("L", SMALL)
def test_every_table_times_its_unit_is_one(L):
    _every_root(L)


@pytest.mark.parametrize("L", WIDE)
def test_every_table_of_a_wide_field_times_its_unit_is_one(L):
    assert cyclo_field(L).degree >= 60
    _every_root(L)


def test_a_longer_table_is_rebuilt_to_exactly_the_length_asked():
    field = CycloField(5)
    short = _apostol_table(field, (1, 1), 3)
    assert field._apostol is short and len(short) == 4
    assert _apostol_table(field, (1, 2), 2).elements()[:3] == \
        _apostol_table(field, (1, 2), 3).elements()[:3]
    assert field._apostol is short
    longer = _apostol_table(field, (1, 1), 5)
    assert field._apostol is longer and len(longer) == 6
    assert longer.elements()[:4] == short.elements()


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
