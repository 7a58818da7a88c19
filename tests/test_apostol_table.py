"""Oracles for the Apostol tables, ``bernoulli._apostol_table``.

The table of a root of unity u = zeta_M^f, M = lcm(2, L), is
g_u = 1/(u e^x - 1),
or x/(e^x - 1) at u = 1.  The unit u e^x - 1 is built here directly, its
elements u - 1 and u/i!, with no recurrence, and multiplied by
``cyclo.product``: the table times the unit must be 1, or x at u = 1.  The
roots cover every exponent f of the small fields, the odd f of odd L
(roots that are no power of zeta_L) included, and of two wide fields of the wide-field benchmark, so every
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
    """Every key f of a root of unity zeta_M^f of Q(zeta_L), M = lcm(2, L):
    for odd L, the odd f are the roots that are no power of zeta_L."""
    return range(math.lcm(2, L))


def _check(field, root):
    table = _apostol_table(field, root, N)
    assert len(table) >= N + 1
    u = field.zeta(root)
    unit = [u - 1] + [u * Fraction(1, math.factorial(i))
                      for i in range(1, N + 2)]
    g = list(table.elements()[:N + 1])
    if root == 0:   # g * unit == x: unit_0 = 0 leaves g_N unread
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
    field = CycloField(5)   # zeta_5 = zeta_10^2
    short = _apostol_table(field, 2, 3)
    assert field._apostol is short and len(short) == 4
    assert _apostol_table(field, 4, 2).elements()[:3] == \
        _apostol_table(field, 4, 3).elements()[:3]
    assert field._apostol is short
    longer = _apostol_table(field, 2, 5)
    assert field._apostol is longer and len(longer) == 6
    assert longer.elements()[:4] == short.elements()


def test_the_root_sum_inverse_is_the_field_inverse():
    seen = set()
    for L in range(1, 61):
        field = cyclo_field(L)
        for f in _roots(L):
            if f == 0:
                continue
            u = field.zeta(f)
            assert inverse_root_minus_one(field, f) == \
                (u - 1).inverse(), (L, f)
            seen.add(L % 2 == 1 and f % 2 == 1)   # u no power of zeta_L
    assert seen == {False, True}
