"""The tables of the B pieces against the per-point route.

A B piece (c, u, slot, sums) of a row contributes the Bernoulli seed
`symmetry._bpoly(ctx, c, k)`, [c^j B_j / j!], times one character-sum
factor table per sums entry (A, m, s, q), the series
sum_{a<A} chi(a) xi^(am) e^{(s*c/q) a t} under the key
("sum", m, A - 1, s*c/q), a stored RowTable.  The seed is stored nowhere:
it is c t^(1-v) times the stored ("ratio", c) table, v = 1 iff
xi^(dc) = 1 (R1, pinned here), which a row multiplies itself.  Both are
read here through `RowTable.elements`.  Their Cauchy product, formed here
by a schoolbook loop over element ``*`` and ``+``, holds c^k T_k / k!, and
no shift point is visited.  The oracle here visits every point:
T_k = sum_p coef_p * B_k(r_p), each term one `bernoulli_polynomial` at a
rational point, over the explicit product of the point sets of the piece's
sums entries.  The y-part of a piece (its u and slot) is checked at the
row level by tests/test_row_oracle.py.
"""

import math
from fractions import Fraction

import pytest

from twistbern.bernoulli import (TwistContext, bernoulli_polynomial,
                                 factor_table)
from twistbern.characters import enumerate_characters
from twistbern.symmetry import _ROWS, _bpoly

K_MAX = 8
WEIGHTS = ((3, 1, 2),)
# every character and xi order 1..4 for d <= 5; at d = 7 the per-point oracle
# costs most, so the six characters cycle through the four orders
CONTEXTS = [(d, idx, r) for d in (1, 3, 4, 5)
            for idx in range(len(enumerate_characters(d)))
            for r in (1, 2, 3, 4)] + [(7, idx, idx % 4 + 1) for idx in range(6)]


def _points(ctx, sums):
    """(coef_p, r_p) over the product of the point sets of the sums entries."""
    points = [(ctx.field.one, Fraction(0))]
    for bound, m, s, q in sums:
        points = [(coef * ctx.chi_at(a) * ctx.xi_pow(a * m),
                   r + Fraction(s * a, q))
                  for coef, r in points for a in range(bound)
                  if not ctx.chi_at(a).is_zero()]
    return points


def _oracle(ctx, c, k, sums):
    acc = ctx.field.zero
    for coef, r in _points(ctx, sums):
        acc = acc + bernoulli_polynomial(ctx.twist(c), k, r) * coef
    return acc


def _times(a, b):
    """The schoolbook Cauchy product of two coefficient tuples, truncated to
    the shorter."""
    return tuple(sum((a[i] * b[k - i] for i in range(1, k + 1)), a[0] * b[k])
                 for k in range(min(len(a), len(b))))


def _piece_table(ctx, c, k, sums):
    """The seed times the shift tables of the piece, to t^k."""
    seed = _bpoly(ctx, c, k)
    # R1, stored nowhere: the seed is c t^(1-v) ("ratio", c), v = 1 iff
    # xi^(dc) = 1, built afresh by each call
    s = ctx.xi_pow(ctx.d * c) != ctx.field.one  # 1 - v
    ratio = factor_table(ctx, ("ratio", c), k).elements()
    assert len(seed) == k + 1 and _bpoly(ctx, c, k) is not seed
    assert seed.elements() == ((ctx.field.zero,) * s + tuple(
        x * c for x in ratio))[:k + 1]
    table = seed.elements()
    for bound, m, s, q in sums:
        shift = factor_table(ctx, ("sum", m, bound - 1, Fraction(s * c, q)), k)
        assert len(shift) >= k + 1
        table = _times(table, shift.elements()[:k + 1])
    return table


def _b_pieces(d, w):
    """Every distinct (c, sums) of a B piece of a table row at the weights w."""
    return {(piece[1], piece[4]) for row in _ROWS.values()
            for piece in row(*w, d)[1] if piece[0] == "B"}


def test_rows_produce_single_and_double_shifts():
    sums = {sums for w in WEIGHTS for _, sums in _b_pieces(3, w)}
    assert {len(s) for s in sums} == {0, 1, 2}
    # the printed theorem-3 variant scales t by s*c/q != m, a key of its own
    assert any(Fraction(s * c, q) != m for w in WEIGHTS
               for c, sums in _b_pieces(3, w) for _, m, s, q in sums)
    # the trivial character mod 4 is imprimitive
    assert not enumerate_characters(4)[0].is_primitive


@pytest.mark.parametrize("d,idx,r", CONTEXTS,
                         ids=[f"d{d}-chi{i}-xi{r}" for d, i, r in CONTEXTS])
def test_bpoly_matches_the_per_point_sum(d, idx, r):
    ctx = TwistContext.from_orders(d, idx, r, 1)
    for w in WEIGHTS:
        for c, sums in sorted(_b_pieces(d, w)):
            for k in range(K_MAX + 1):
                got = _piece_table(ctx, c, k, sums)[k] * Fraction(
                    math.factorial(k), c**k)
                want = _oracle(ctx, c, k, sums)
                assert got == want, (w, c, sums, k)
