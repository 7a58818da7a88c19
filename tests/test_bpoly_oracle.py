"""The scalar tables of the B pieces against the per-point route.

`symmetry._bpoly` sums the shift points of a piece through their moments
(power sums) and never visits a point; its table holds c^k T_k / k!.  The
oracle here visits every point: T_k = sum_p coef_p * B_k(r_p), each term one
`bernoulli_polynomial` at a rational point, over the explicit product of the
point sets of the piece's sums entries.  The y-part of a piece (its u and
slot) is checked at the row level by tests/test_row_oracle.py.
"""

import math
from fractions import Fraction

import pytest

from twistbern.bernoulli import TwistContext, bernoulli_polynomial
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


def _b_pieces(d, w):
    """Every distinct (c, sums) of a B piece of a table row at the weights w."""
    return {(piece[1], piece[4]) for row in _ROWS.values()
            for piece in row(*w, d)[1] if piece[0] == "B"}


def test_rows_produce_single_and_double_shifts():
    sums = {sums for w in WEIGHTS for _, sums in _b_pieces(3, w)}
    assert {len(s) for s in sums} == {0, 1, 2}
    # the trivial character mod 4 is imprimitive
    assert not enumerate_characters(4)[0].is_primitive


@pytest.mark.parametrize("d,idx,r", CONTEXTS,
                         ids=[f"d{d}-chi{i}-xi{r}" for d, i, r in CONTEXTS])
def test_bpoly_matches_the_per_point_sum(d, idx, r):
    ctx = TwistContext.from_orders(d, idx, r, 1)
    for w in WEIGHTS:
        for c, sums in sorted(_b_pieces(d, w)):
            for k in range(K_MAX + 1):
                got = _bpoly(ctx, c, k, sums)[k] * Fraction(
                    math.factorial(k), c**k)
                want = _oracle(ctx, c, k, sums)
                assert got == want, (w, c, sums, k)
