"""Identity R1 at the table level: a Bernoulli seed is c t^(1-v) times the
p-adic integral ("ratio", c), v = 1 iff xi^(dc) = 1.

``symmetry._row_form`` states a table row as a quotient with no units: each
B piece of twist exponent c is the ratio table of scale c, with c in the
row's const and t^(1-v) in its shift.  ``symmetry_helpers.seed_form``
evaluates the row by the seed route instead, one product of ``_bpoly``
seeds and character-sum tables read from the row's pieces.  The two must
give the same form for every ``_ROWS`` row at n <= 6, each on a fresh
context of its own, over the acceptance grid's contexts, a context where
xi^d != 1 but xi^(dc) = 1 for even c, and an odd field Q(zeta_3) whose xi
is an odd power of zeta_6, no power of zeta_3.
"""

import pytest

from twistbern import symmetry
from twistbern.bernoulli import TwistContext
from twistbern.characters import character, enumerate_characters
from twistbern.cyclo import cyclo_field

from symmetry_helpers import seed_form

N_MAX = 6
WEIGHTS = ((1, 1, 1), (1, 2, 3), (2, 3, 5))


def _grid():
    """(label, make) per context: the acceptance grid, then the two extra
    contexts; make builds a fresh one."""
    points = [(f"d{d}-chi{idx}-xi{r}",
               lambda d=d, idx=idx, r=r: TwistContext.from_orders(d, idx, r))
              for d in (1, 3, 4, 5)
              for idx in range(len(enumerate_characters(d)))
              for r in (1, 2, 3, 4)]
    # xi of order 10 at d = 5: xi^5 = -1, so xi^(dc) = 1 iff c is even
    points.append(("d5-chi1-xi10",
                   lambda: TwistContext.from_orders(5, 1, 10)))
    # xi = -zeta_3 = zeta_6^5 in Q(zeta_3): odd exponents of zeta_6 at d = 3
    points.append(("d3-chi1-minus-zeta3", lambda: TwistContext(
        character(3, 1), -cyclo_field(3).root(1))))
    return points


GRID = _grid()


def test_the_extra_contexts_meet_what_they_are_for():
    # B pieces of both kinds: at w = (1, 2, 3) the row triple_bernoulli
    # has c = 6, 3, 2, and xi^(dc) = 1 for c = 6 and 2 only
    unit = GRID[-2][1]()
    cs = [desc[1] for desc in symmetry._ROWS["triple_bernoulli"](
        1, 2, 3, unit.d)[1]]
    assert [unit.xi_pow(unit.d * c) == unit.field.one for c in cs] == [
        True, False, True]
    odd = GRID[-1][1]()
    assert odd.field.order == 3 and odd.xi_order == 6
    assert odd._xi_root % 2 == 1


@pytest.mark.parametrize("make", [make for _, make in GRID],
                         ids=[label for label, _ in GRID])
def test_a_row_form_is_its_seed_product(make):
    rows, seeds = make(), make()
    for w in WEIGHTS:
        for row in symmetry._ROWS:
            for n in range(N_MAX + 1):
                assert symmetry._row_form(row, rows, w, n) == seed_form(
                    row, seeds, w, n), (row, w, n)
