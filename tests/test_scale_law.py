"""The ratio tables of every scale c against their per-c builds.

The paper's substitution principle: rescaling t by c is replacing the twist
xi by xi^c.  So ("ratio", c) of a context is the ("ratio", 1) table F of
its twist xi^c read at t -> ct, divided by c where the unit
xi^(dc) e^(dct) - 1 vanishes at t = 0 (v = 1), and factor_table builds it
so, from one F per class c mod xi's order.  Here each is compared, rows and
denominator, with the same table built at its own c with no twist
(``bernoulli_helpers.ratio_table_at``), for
c = 1..12 at every length 0..10 asked in rising order: on the 36 contexts of
the series benchmark (every character mod 1, 3, 4 and 5, xi of order 1 to
4) and on odd fields L whose xi is no power of zeta_L: -zeta_L^e, an odd
power of zeta_2L.
"""

import pytest

from twistbern import bernoulli
from twistbern.bernoulli import TwistContext, factor_table
from twistbern.characters import character, enumerate_characters
from twistbern.cyclo import cyclo_field

from bernoulli_helpers import ratio_table_at

SERIES = [TwistContext.from_orders(d, char, order)
          for d in (1, 3, 4, 5)
          for char in range(len(enumerate_characters(d)))
          for order in (1, 2, 3, 4)]
# xi = -zeta_L^e in an odd field L, kept as the odd exponent of zeta_2L
SIGNED = [TwistContext(character(1, 0), -cyclo_field(3).root(1)),
          TwistContext(character(3, 1), -cyclo_field(3).root(2)),
          TwistContext(character(1, 0), -cyclo_field(5).root(2)),
          TwistContext(character(4, 1), -cyclo_field(7).root(1))]
SCALES = range(1, 13)
TOP = 10
BUILDERS = (("ratio", ratio_table_at),)


def _rows(table):
    return table.den, [(k, list(row)) for k, row in table.rows]


@pytest.mark.parametrize("ctx", SERIES + SIGNED, ids=repr)
def test_every_scale_is_its_per_c_build(ctx):
    # a fresh context per kind; lengths rise per c, so each table is rebuilt
    # to exactly the length asked, and a later c of one class reads its
    # twist's table stored longer than it asks for
    for kind, build in BUILDERS:
        fresh = TwistContext(ctx.chi, ctx.xi)
        for c in SCALES:
            for upto in range(TOP + 1):
                table = factor_table(fresh, (kind, c), upto)
                assert len(table) == upto + 1
                assert _rows(table) == _rows(build(fresh, c, upto)), \
                    (kind, c, upto)
            assert fresh._factors[kind, c] is table


def test_the_grid_meets_every_class_of_scale():
    # c = 0 and c = 1 mod xi's order (the twist xi^c = 1 and the context
    # itself at c != 1), other classes, vanishing units (v = 1) and live
    # ones, and the signed roots of odd fields
    assert len(SERIES) == 36
    seen = set()
    for ctx in SERIES + SIGNED:
        for c in SCALES:
            r = c % ctx.xi_order
            seen.add(("0" if r == 0 else "1" if r == 1 % ctx.xi_order
                      and c != 1 else "other",
                      bernoulli._unit_root(ctx, c) == 0))
    assert seen >= {("0", True), ("1", False), ("1", True),
                    ("other", False), ("other", True)}
    for ctx in SIGNED:
        assert ctx.field.order % 2 and ctx._xi_root % 2
