"""factor_quotient against the products it divides.

For every quotient the library builds (each _QUOTIENTS entry, the Bernoulli
generating function and side A of powersum_gf_check) the builder's q must
satisfy q * prod(den) == t^t_power * prod(num) up to t^truncation, with the
products formed here by plain PowerSeries multiplication.  The factor tables
are cached per context, and the S pieces of the expansion rows read the same
store.
"""

import operator
from functools import reduce

import pytest

from twistbern import bernoulli, symmetry
from twistbern.bernoulli import (TwistContext, char_sum_series, factor_quotient,
                                 twist_unit_series)
from twistbern.characters import enumerate_characters
from twistbern.series import PowerSeries
from twistbern.symmetry import (_FAMILY_MAX_I, _QUOTIENTS, _ROWS,
                                _THEOREM_PATTERNS, QuotientSpec,
                                _distinct_orders, permutation_invariance_check,
                                verify_theorem)

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
                  PowerSeries([ctx.field.one] + [ctx.field.zero] * truncation))


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


def test_each_factor_is_built_once_and_every_order_multiplies(monkeypatch):
    # The factor series are cached per context, so the six weight orders of
    # one invariance check share one build of each distinct (kind, c).  The
    # products are not cached: each order still multiplies its own factors
    # in its own operand order, which is what the invariance check compares.
    builds = []
    for kind, name in (("unit", "twist_unit_series"),
                       ("sum", "char_sum_series")):
        def counted(ctx, c, truncation, exact=getattr(bernoulli, name),
                    kind=kind):
            builds.append((kind, c))
            return exact(ctx, c, truncation)
        monkeypatch.setattr(bernoulli, name, counted)

    calls = []
    exact_quotient = symmetry.factor_quotient

    def quotient(ctx, t_power, num, den, truncation):
        calls.append([num, den, 0])
        return exact_quotient(ctx, t_power, num, den, truncation)
    monkeypatch.setattr(symmetry, "factor_quotient", quotient)

    exact_mul = PowerSeries.__mul__

    def mul(a, b):
        if isinstance(b, PowerSeries) and calls:
            calls[-1][2] += 1
        return exact_mul(a, b)
    monkeypatch.setattr(PowerSeries, "__mul__", mul)

    ctx = TwistContext.from_orders(3, 1, 4)
    spec = QuotientSpec("cyclic", 1, (1, 2, 3), ctx)
    assert permutation_invariance_check(spec, 6).passed
    assert len(calls) == 6
    keys = {key for num, den, _ in calls for key in num + den}
    # units at 6, 3, 2 over 1, 2, 3, and sums at 1, 2, 3
    assert len(keys) == 7
    assert sorted(builds) == sorted(keys)
    assert len({(tuple(num), tuple(den)) for num, den, _ in calls}) == 6
    for num, den, products in calls:
        assert products == len(num) - 1 + len(den) - 1

    builds.clear()
    calls.clear()
    assert permutation_invariance_check(spec, 4).passed
    assert builds == []
    assert [products for _, _, products in calls] == [7] * 6


def test_row_pieces_are_factor_tables(monkeypatch):
    # An S piece of a row reads the character-sum factor table of
    # factor_table under ("sum", c, bound), and a B piece reads one table
    # per (c, sums), built once and grown in place as n rises: the context
    # keeps no second per-piece store.
    tables = {}
    exact_bpoly = symmetry._bpoly

    def bpoly(ctx, c, k, sums):
        table = exact_bpoly(ctx, c, k, sums)
        tables.setdefault((c, sums), set()).add(id(ctx._bpoly_cache[c, sums]))
        return table
    monkeypatch.setattr(symmetry, "_bpoly", bpoly)

    ctx = TwistContext.from_orders(3, 1, 4)
    w, top = (1, 2, 3), 6
    for n in range(top + 1):
        for theorem in (2, 4, 5):
            assert verify_theorem(theorem, ctx, w, n).passed
    assert not hasattr(ctx, "_piece_tables")

    pieces = set()
    for theorem in (2, 4, 5):
        perms, row = _THEOREM_PATTERNS[theorem]
        for v in _distinct_orders(w, perms):
            pieces.update(_ROWS[row](*v, ctx.d)[1])
    s_pieces = {(desc[1], desc[2]) for desc in pieces if desc[0] == "S"}
    b_pieces = {(desc[1], desc[4]) for desc in pieces if desc[0] == "B"}
    assert s_pieces and any(sums for _, sums in b_pieces)

    for c, bound in s_pieces:
        key = ("sum", c) if bound == ctx.d - 1 else ("sum", c, bound)
        assert (ctx._factors[key][:top + 1]
                == char_sum_series(ctx, c, top, bound).coeffs)
    assert set(tables) == set(ctx._bpoly_cache) == b_pieces
    for key, ids in tables.items():
        assert ids == {id(ctx._bpoly_cache[key])}
        assert len(ctx._bpoly_cache[key]) == top + 1


def test_a_sum_of_bound_d_minus_1_is_stored_once():
    # a row's S piece of bound d - 1 and a quotient's ("sum", c) are one
    # series, kept under the one key ("sum", c)
    ctx = TwistContext.from_orders(3, 1, 4)
    assert verify_theorem(2, ctx, (1, 2, 3), 6).passed
    spec = QuotientSpec("pairwise", 1, (1, 2, 3), ctx)
    assert permutation_invariance_check(spec, 6).passed
    sums = [(key, table) for key, table in ctx._factors.items()
            if key[0] == "sum"]
    assert ("sum", 6) in dict(sums)
    for k, (key, table) in enumerate(sums):
        assert key[2:] != (ctx.d - 1,)
        for other, seq in sums[k + 1:]:
            top = min(len(table), len(seq))
            assert table[:top] != seq[:top], (key, other)


def test_a_row_form_has_n_plus_one_terms_from_longer_tables():
    # the piece tables of a context outgrow n once a larger n was asked for;
    # the row form is still E[:n+1]
    ctx = TwistContext.from_orders(3, 1, 4)
    w = (1, 2, 3)
    for row in _ROWS:
        long = symmetry._row_form(row, ctx, w, 8)[2]
        assert len(long) == 9
        for n in range(8):
            assert list(symmetry._row_form(row, ctx, w, n)[2]) == \
                list(long[:n + 1])
