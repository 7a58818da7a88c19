"""factor_quotient against the products it divides.

For every quotient the library builds (each _QUOTIENTS entry, the Bernoulli
generating function and side A of powersum_gf_check) the builder's q must
satisfy q * prod(den) == t^t_power * prod(num) up to t^truncation, with the
products formed here by plain PowerSeries multiplication.
"""

import operator
from functools import reduce

import pytest

from twistbern.bernoulli import (TwistContext, char_sum_series, factor_quotient,
                                 twist_unit_series)
from twistbern.characters import enumerate_characters
from twistbern.series import PowerSeries
from twistbern.symmetry import _FAMILY_MAX_I, _QUOTIENTS

CONTEXTS = [(d, char, order) for d in (1, 3, 4)
            for char in range(len(enumerate_characters(d)))
            for order in (1, 2, 3, 4)]
WEIGHTS = [(1, 1, 2), (2, 3, 2), (4, 4, 4)]
TOP = 8


def _cases(w):
    """(t_power, num, den) of every quotient built at the weights w."""
    cases = [(1, [("sum", 1)], [("unit", 1)])]            # bernoulli_gf
    for v in sorted(set(w)):                               # powersum side A
        cases.append((0, [("unit", v), ("sum", 1)], [("unit", 1)]))
    for family, max_i in sorted(_FAMILY_MAX_I.items()):
        for i in range(max_i + 1):
            _, t_power, num, den, _, _ = _QUOTIENTS[family](*w, i)
            cases.append((t_power, num, den))
    return cases


def _product(ctx, factors, truncation):
    make = {"unit": twist_unit_series, "sum": char_sum_series}
    return reduce(operator.mul, [make[kind](ctx, c, truncation)
                                 for kind, c in factors],
                  PowerSeries.one(ctx.field.one, truncation))


def _vanishing(ctx, den):
    return sum(ctx.xi_pow(ctx.d * c).is_one() for _, c in den)


@pytest.mark.parametrize("d,char,order", CONTEXTS)
def test_quotient_times_denominator_is_numerator(d, char, order):
    ctx = TwistContext.from_orders(d, char, order)
    for w in WEIGHTS:
        for t_power, num, den in _cases(w):
            # vanish extra coefficients pin every coefficient of q up to TOP
            upto = TOP + _vanishing(ctx, den)
            bottom = _product(ctx, den, upto)
            top = _product(ctx, num, upto).shift_up(t_power).truncate(upto)
            full = factor_quotient(ctx, t_power, num, den, upto)
            assert (full * bottom).coeffs == top.coeffs
            for truncation in range(TOP + 1):
                q = factor_quotient(ctx, t_power, num, den, truncation)
                assert q.truncation == truncation
                assert (q * bottom).coeffs == top.coeffs[:truncation + 1]
                assert q.coeffs == full.coeffs[:truncation + 1]


def test_grid_has_none_some_and_all_denominators_vanishing():
    seen = set()
    for d, char, order in CONTEXTS:
        ctx = TwistContext.from_orders(d, char, order)
        for w in WEIGHTS:
            for _, _, den in _cases(w):
                k = _vanishing(ctx, den)
                seen.add("none" if k == 0 else "all" if k == len(den) else "some")
    assert seen == {"none", "some", "all"}


@pytest.mark.parametrize("t_power,num,den", [
    (0, [("sum", 1)], [("unit", 1)]),
    (0, [("unit", 1)], [("unit", 1), ("unit", 2)]),
    (1, [("sum", 1)], [("unit", 1), ("unit", 1)]),
])
def test_an_owed_t_that_does_not_divide_raises(t_power, num, den):
    ctx = TwistContext.from_orders(1, 0, 1)    # every unit vanishes at t = 0
    with pytest.raises(ValueError, match="not divisible"):
        factor_quotient(ctx, t_power, num, den, 4)
