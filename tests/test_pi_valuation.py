"""pi_valuation, a count of factors x - 1 mod p, against division by pi.

``padic.pi_valuation`` reads v(alpha) on Q(zeta_{p^s}) from the numerators
reduced mod p, by synthetic division by x - 1, since
Phi_{p^s} = (x - 1)^e mod p.  The reference (``_valuation_by_division`` of
test_padic.py) takes the rational content from the Fraction view and
divides by pi = 1 - zeta, with a field inverse per step, while the
reduction mod pi vanishes.  They must agree on every element the padic
benchmark values: V_N - B_k at every level N and each B_i, i <= k, of every
point of perfbench's ``padic_pool()``; and on drawn elements of
Q(zeta_{p^s}) for p^s <= 125 with a chosen power of pi and of p.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from twistbern.bernoulli import TwistContext, _bern_values  # noqa: E402
from twistbern.padic import (padic_context, pi_valuation,  # noqa: E402
                             volkenborn_partial)

from test_padic import _valuation_by_division  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import padic_pool  # noqa: E402


def _pool_elements():
    """(element, PadicContext) for every nonzero V_N - B_k and B_i of the
    padic benchmark's points."""
    out = []
    for p, s, d, char, k in padic_pool():
        ctx = TwistContext.from_orders(d, char, p**s)
        pctx = padic_context(p, s)
        bern = _bern_values(ctx, k)[:k + 1]
        diffs = [volkenborn_partial(ctx, p, k, level) - bern[k]
                 for level in range(1, s + 3)]
        out += [(x, pctx) for x in diffs + bern if not x.is_zero()]
    return out


def test_every_padic_pool_element_agrees_with_division():
    elements = _pool_elements()
    assert len(elements) > 600
    fractional = 0
    for x, pctx in elements:
        v = pi_valuation(x, pctx)
        assert v == _valuation_by_division(x, pctx), (x, pctx.p, pctx.s)
        fractional += v.denominator > 1
    assert fractional > 100


ORDERS = [(p, s) for p in (2, 3, 5) for s in range(7) if p**s <= 125]


@st.composite
def elements(draw):
    """An element of Q(zeta_{p^s}): small integer coordinates, some of
    them multiples of p, times pi^k and p^a/b for k below 2e (k = 0 in Q,
    where pi = 1 - 1 = 0)."""
    p, s = draw(st.sampled_from(ORDERS))
    pctx = padic_context(p, s)
    f = pctx.field
    coords = draw(st.lists(st.integers(-3, 3).map(
        lambda c: c * draw(st.sampled_from((1, p)))),
        min_size=f.degree, max_size=f.degree))
    if not any(coords):
        coords[0] = 1
    pi = f.one - f.root(1)
    k = draw(st.integers(0, 2 * pctx.ramification - 1)) if p**s > 1 else 0
    a = draw(st.integers(-2, 2))
    b = draw(st.sampled_from((1, 2, 3, 7, 10)))
    x = f.element(coords) * pi**k * Fraction(p) ** a / b
    return x, pctx


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(elements())
def test_drawn_elements_agree_with_division(case):
    x, pctx = case
    assert pi_valuation(x, pctx) == _valuation_by_division(x, pctx)
