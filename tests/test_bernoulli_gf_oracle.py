"""bernoulli_gf by the two routes of its ("ratio", 1) table, against each
other.

In the small field Q(zeta_R) of the root lambda = xi^d, of order R,
_ratio_table reads the Apostol table of zeta_R and maps zeta_R -> lambda =
zeta_M^f, M = lcm(2, L), by shifts of the power sums' combinations; in Q(zeta_L)
itself it multiplies the character sum's table by the same Apostol table,
re-mapped there to lambda.  Both
routes read one table, so they check each other's combining, not the
table: ``test_twisted_bernoulli_oracle.py`` checks the numbers.
``_ratio_table`` picks a route from the two fields; here each builder is
forced on a fresh context (``bernoulli_helpers``), and they must agree
coefficient for coefficient,
with bernoulli_gf itself, on every request of perfbench's
``bernoulli_pool()`` (fields of degree 24 to 120), on the 36 contexts of
the series benchmark to t^12, at d = 1 to t^20 and t^30 with xi of order
49 and 81, where every power sum but S_0 is zero and the small field's
combine skips them, and on negated roots xi = -zeta_L^k of odd fields,
where lambda can be an odd power of zeta_2L, no power of zeta_L, whose odd
powers lambda^i carry the sign of zeta_2L = -zeta_L^((L+1)/2).
The sweep over every d <= 15, character, xi order <= 15 and coprime
exponent is marked slow.  The rule itself is pinned at fixed requests,
with both builders stubbed, so no table is built and nothing is timed.
"""

import math
import sys
from pathlib import Path

import pytest

from twistbern import bernoulli
from twistbern.bernoulli import TwistContext, _unit_root, bernoulli_gf
from twistbern.characters import character, enumerate_characters
from twistbern.cyclo import cyclo_field

from bernoulli_helpers import (bernoulli_gf_by_division,
                               bernoulli_gf_in_small_field)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import bernoulli_pool  # noqa: E402

ODD_FIELDS = (3, 5, 7, 9, 15, 21)
# (d, character index): trivial, real, order 4 (an even field) and order 3
# (an odd one)
SIGNED_CHARACTERS = [(1, 0), (3, 1), (4, 1), (5, 1), (7, 2)]


def _agree(make, truncations):
    """Both routes on fresh contexts from make(); returns (negated, R) of
    the root lambda = xi^d = zeta_M^f, R its order and negated whether it
    is no power of zeta_L (odd f at odd L)."""
    for truncation in truncations:
        ctx = make()
        want = bernoulli_gf_by_division(make(), truncation)
        assert bernoulli_gf_in_small_field(ctx, truncation) == want, \
            (ctx, truncation)
        assert bernoulli_gf(make(), truncation) == want
    f = _unit_root(ctx, 1)
    M = ctx.field.period
    return f % (M // ctx.field.order) != 0, M // math.gcd(f, M)


@pytest.mark.parametrize("L,d,char,order,n", bernoulli_pool())
def test_every_pool_request_agrees(L, d, char, order, n):
    assert TwistContext.from_orders(d, char, order).field.order == L
    _agree(lambda: TwistContext.from_orders(d, char, order),
           sorted({0, 1, n + 1}))


def test_the_series_contexts_agree_to_t12():
    roots = {_agree(lambda: TwistContext.from_orders(d, char, order), (12,))
             for d in (1, 3, 4, 5)
             for char in range(len(enumerate_characters(d)))
             for order in (1, 2, 3, 4)}
    assert {R for _, R in roots} == {1, 2, 3, 4}


@pytest.mark.parametrize("order,n", [(49, 20), (49, 30), (81, 20)])
def test_long_series_at_d_1_agree(order, n):
    # S_j(0) = 0 for j >= 1: one power sum enters each coefficient
    negated, R = _agree(lambda: TwistContext.from_orders(1, 0, order), (n,))
    assert (negated, R) == (False, order)


def test_negated_roots_of_odd_fields_agree():
    seen = set()
    for L in ODD_FIELDS:
        for k in range(L):
            xi = -cyclo_field(L).root(k)
            for d, char in SIGNED_CHARACTERS:
                seen.add(_agree(lambda: TwistContext(character(d, char), xi),
                                (0, 1, 6)))
    # lambda = -zeta_L^e of even order R is no power of zeta_L in an odd
    # field
    assert (True, 2) in seen and (True, 42) in seen
    assert {R for negated, R in seen if negated} == {
        2, 6, 10, 14, 18, 30, 42}


@pytest.mark.slow
@pytest.mark.parametrize("d", range(1, 16))
def test_every_small_context_agrees(d):
    for char in range(len(enumerate_characters(d))):
        for order in range(1, 16):
            for exp in range(1, order + 1):
                if math.gcd(exp, order) == 1:
                    _agree(lambda: TwistContext.from_orders(d, char, order,
                                                            exp),
                           (0, 1, 2, 7))


# (d, character index, xi order, coefficients, phi(R), phi(L), route):
# R the order of lambda = xi^d, L the field's order.  The first six are the
# points (phi(R), spots, phi(L), coefficients) a timed cost rule was
# pinned at, as requests of those degrees.  Two of them, (1, 1, 1, 2) and
# (10006, 1, 10006, 3), took the small field under that rule and take the
# row product now; the other four keep their route
RULE_POINTS = [
    # a small lambda in a wide field, as on every bernoulli pool request
    (31, 0, 155, 6, 4, 120, "small"),
    # L = 1: the row product is _scalar_times
    (1, 0, 1, 2, 1, 1, "row"),
    # lambda of order 10007 (d = 1): Q(zeta_R) is the field itself
    (1, 0, 10007, 3, 10006, 10006, "row"),
    # R = L with many spots (60) and with few (2), to t^20
    (3, 1, 101, 21, 100, 100, "row"),
    (4, 1, 25, 21, 20, 20, "row"),
    # bernoulli --d 61 --char 1 --xi-order 420 --n 12
    (61, 1, 420, 12, 96, 96, "row"),
    # bernoulli --d 19 --char 2 --xi-order 60 --n 40, where the row
    # product took 2.8 times as long as the small field
    (19, 2, 60, 40, 16, 48, "small"),
]


@pytest.mark.parametrize("d,char,order,n,deg_r,deg_l,route", RULE_POINTS)
def test_the_route_follows_the_fields(d, char, order, n, deg_r, deg_l,
                                      route, monkeypatch):
    # the small field where phi(R) < phi(L) and phi(L) > 2, read from the
    # context alone: each builder is a stub that records its call
    ran = []
    for name, tag in (("_ratio_in_small_field", "small"),
                      ("_ratio_by_row_product", "row")):
        monkeypatch.setattr(bernoulli, name,
                            lambda ctx, build, tag=tag: ran.append(tag))
    ctx = TwistContext.from_orders(d, char, order)
    R = ctx.xi_order // math.gcd(d, ctx.xi_order)
    assert (cyclo_field(R).degree, ctx.field.degree) == (deg_r, deg_l)
    bernoulli._ratio_table(ctx, n - 1)
    assert ran == [route]
    assert (route == "small") == (deg_r < deg_l and deg_l > 2)
