"""The factor tables and Bernoulli seeds built as integer rows, against
their definitions written with elements and Fractions.

``char_sum_series``, ``twist_units_series`` and ``symmetry._bpoly`` build
their ``RowTable``s straight from integers.  Each must hold the
coefficients of its definition written with elements and Fractions: the
sum table S_j(bound) t_scale^j / j! of the twist xi^scale, the unit table
(u - 1, u (dc)^1/1!, u (dc)^2/2!, ...) with u = xi^(dc) formed here as a
power of xi, and the seed c^j B_j / j!.  Its rows must be in lowest terms,
that is, exactly the row form ``cyclo._rows`` gives those elements: no
zero row, rising k, and gcd(den, every numerator) = 1.
"""

import math
from fractions import Fraction

import pytest

from twistbern.bernoulli import (TwistContext, bernoulli_numbers,
                                 char_sum_series, power_sums,
                                 twist_units_series)
from twistbern.characters import character, enumerate_characters
from twistbern.cyclo import _rows, cyclo_field
from twistbern.symmetry import _bpoly

CONTEXTS = ([TwistContext.from_orders(d, char, order) for d in (1, 3, 4, 5)
             for char in range(len(enumerate_characters(d)))
             for order in (1, 2, 3, 4, 6)]
            + [TwistContext.from_orders(7, 1, 7),     # Q(zeta_42), degree 12
               # xi = -zeta_3, an odd power of zeta_6, in the odd field
               TwistContext(character(3, 1), -cyclo_field(3).root(1)),
               TwistContext(character(5, 1), -cyclo_field(3).root(1))])
IDS = [repr(ctx) for ctx in CONTEXTS]
TOP = 8


def assert_row_form_of(table, elements):
    """table holds elements, in the one lowest-terms row form."""
    assert len(table) == len(elements)
    assert table.elements() == tuple(elements)
    flat = _rows(table.field, elements, len(elements))
    assert table.den == flat.den > 0
    assert [(k, list(row)) for k, row in table.rows] == \
        [(k, list(row)) for k, row in flat.rows]
    assert math.gcd(table.den, *(x for _, row in table.rows for x in row)) == 1


@pytest.mark.parametrize("ctx", CONTEXTS, ids=IDS)
def test_a_sum_table_is_its_element_construction(ctx):
    d = ctx.d
    for scale in (1, 2, 5):
        for bound in (None, 0, 1, 3 * d + 2):
            for t_scale in (None, 0, 3, Fraction(3, 2), Fraction(-5, 6)):
                top_bound = d - 1 if bound is None else bound
                sigma = scale if t_scale is None else t_scale
                for n in (0, 1, TOP):
                    sums = power_sums(ctx.twist(scale), n, top_bound)
                    want = [sums[j] * Fraction(sigma**j, math.factorial(j))
                            for j in range(n + 1)]
                    assert_row_form_of(
                        char_sum_series(ctx, scale, n, bound, t_scale), want)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=IDS)
def test_a_unit_table_is_its_element_construction(ctx):
    for scale in (1, 2, 3, 4, 125):
        dc = ctx.d * scale
        u = ctx.xi ** dc
        for n in (0, 1, 2, TOP):
            want = [u - 1] + [u * Fraction(dc**j, math.factorial(j))
                              for j in range(1, n + 1)]
            assert_row_form_of(twist_units_series(ctx, (scale,), n), want)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=IDS)
def test_a_seed_table_is_its_element_construction(ctx):
    for c in (1, 2, 3, 6, 12):
        for k in (0, 3, TOP, 2 * TOP + 1):
            seed = _bpoly(ctx, c, k)
            assert len(seed) > k
            bern = bernoulli_numbers(ctx.twist(c), len(seed) - 1)
            assert_row_form_of(seed, [
                b * Fraction(c**j, math.factorial(j))
                for j, b in enumerate(bern.values)])
