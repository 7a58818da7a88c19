"""One spelling per sum key.

``bernoulli.quotient_plan`` spells every character-sum key that
``symmetry.row_operands`` hands it as (c, bound, sigma) as ("sum", c,
bound, sigma), sigma an int where it is integral, and ``factor_table``
stores and reads a key by one lookup, with no normaliser.  So rows that
name one series name one key: the rows of theorems 3, 5 and 6 plan equal
to those of theorems 2, 4 and 4 at every point below, checking theorems
5 and 6 after theorems 2 and 4 stores no table, and no stored sum key
carries an integral Fraction.
"""

from fractions import Fraction

from twistbern.bernoulli import TwistContext, quotient_plan
from twistbern.characters import enumerate_characters
from twistbern.symmetry import (_B, _ROWS, _row_plan,
                                permutation_reduction_check, row_operands,
                                verify_theorem)

#: rows that name the same series as their partner at every point
SHARED = (("bernoulli_shifted_bernoulli", "bernoulli_bernoulli_powersum"),
          ("shifted_bernoulli_powersum", "bernoulli_powersum_powersum"),
          ("double_shifted_bernoulli", "bernoulli_powersum_powersum"))
D_GRID = (1, 3, 4, 5)
#: the acceptance grid's weight triples
THEOREM_W = ((1, 1, 1), (1, 2, 3), (2, 3, 5))


def _contexts():
    """Fresh contexts of the acceptance grid, none with a stored table."""
    return [TwistContext.from_orders(d, char, order) for d in D_GRID
            for char in range(len(enumerate_characters(d)))
            for order in (1, 2, 3, 4)]


def _stored(ctx) -> dict:
    """(context id, key) -> table of every table stored by ctx and the
    twists it made, theirs included."""
    out = {(id(ctx), key): table for key, table in ctx._factors.items()}
    for twist in ctx._twists.values():
        out.update(_stored(twist))
    return out


def test_rows_that_name_one_series_plan_equal():
    w_grid = [(a, b, c) for a in range(1, 6) for b in range(1, 6)
              for c in range(1, 6)]
    equal = sum(_row_plan(_ROWS[row], d, w) == _row_plan(_ROWS[partner], d, w)
                for d in D_GRID for w in w_grid for row, partner in SHARED)
    assert equal == len(D_GRID) * len(w_grid) * len(SHARED) == 1500


def test_a_shift_keeps_a_fractional_sigma_and_writes_an_integral_one():
    # no _ROWS entry has a fractional s*c/q, so a made-up one: a B piece
    # of c = 1 with shifts s/q = 1/2, 3/2, 4/2 and 3/3
    def entry(w1, w2, w3, d):
        return 1, [_B(1, 1, 1, (d, 1, 1, 2), (d, 1, 3, 2), (d, 1, 4, 2),
                      (d, 1, 3, 3))]
    sums = row_operands(entry, 3, (1, 2, 3))[2]
    assert sums == ((1, 2, Fraction(1, 2)), (1, 2, Fraction(3, 2)),
                    (1, 2, 2), (1, 2, 1))
    keys = quotient_plan((), (), sums)[2]
    assert keys == (("sum", 1, 2, Fraction(1, 2)), ("sum", 1, 2, 1),
                    ("sum", 1, 2, Fraction(3, 2)), ("sum", 1, 2, 2))
    assert [type(key[3]) for key in keys] == [Fraction, int, Fraction, int]


def test_theorems_5_and_6_read_the_tables_of_theorems_2_and_4():
    for ctx in _contexts():
        for w in THEOREM_W:
            for tid in (2, 4):
                for n in range(7):
                    assert verify_theorem(tid, ctx, w, n).passed
        before = _stored(ctx)
        for w in THEOREM_W:
            for tid in (5, 6):
                for n in range(7):
                    assert verify_theorem(tid, ctx, w, n).passed
        after = _stored(ctx)
        assert after.keys() == before.keys(), ctx
        assert all(after[key] is table for key, table in before.items())


def test_no_stored_sum_key_holds_an_integral_fraction():
    sums = 0
    for ctx in _contexts():
        for w in THEOREM_W:
            for tid in range(1, 9):
                verify_theorem(tid, ctx, w, 4)
            for group in (4, 8):
                permutation_reduction_check(group, ctx, w, 4)
        for _, key in _stored(ctx):
            if key[0] == "sum":
                sums += 1
                assert len(key) == 4, key
                assert not (type(key[3]) is Fraction
                            and key[3].denominator == 1), key
    assert sums
