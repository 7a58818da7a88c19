"""keyed_quotient of every quotient plan against the products it divides.

Every quotient the library builds (each _QUOTIENTS entry, the Bernoulli
generating function and side A of powersum_gf_check) is a prefactor times
t^t_power, its units and one p-adic integral per scale.  This file
rebuilds each as num / den, num its units and the character sum of each
scale and den the unit of each scale, and the q of the library's plan,
whose constant and power of t ``quotient_plan`` derives, must satisfy
q * prod(den) == prefactor t^t_power * prod(num) up to t^truncation, the
prefactor and t^t_power as the paper displays them (symmetry_helpers), and
so must bernoulli_gf, which
reads the ("ratio", 1) table by either route; the scale-1 inverse table of
each twist, which
every ratio table reads, times its unit must be 1, and must equal one
quotient of 1 by the unit.  The
products are formed here by a schoolbook Cauchy loop over element ``*`` and
``+``, not by ``cyclo.product``.  One context lies in a field of degree
_PACK_DEGREE or more, where ``cyclo.product`` packs its rows.  The factor
tables are cached per context as RowTables, read here through
``RowTable.elements``, and the S pieces and shift tables of the expansion
rows read the same store; the inverse tables read one table per root order
R, the Apostol table of zeta_R in Q(zeta_R).  The units of a numerator are
one table, a closed-form exponential sum, checked against ``cyclo.product``
of unit tables formed from elements.  The integral of each scale c is one
ratio table, checked against the twisted Bernoulli numbers of xi^c, built
on a fresh context by the row product; every quotient, with repeated
weights, must equal a schoolbook product of the elements of its numerator
series and of one quotient of 1 by each unit.  A ratio table of scale
c != 1 is the scale-1 table of the twist xi^c read at t -> ct, built once
per class of c and kept in the twist's context (checked against per-c
builds in test_scale_law.py), by either of two routes, which must agree
on every ratio and Bernoulli seed that reads it.  The library's own
``quotient_plan`` must give the units key first, then one ratio key per
sorted scale, on every quotient drawn here, and ``keyed_quotient`` must
owe one power of t less per scale whose unit vanishes.
"""

import itertools
import math
import re
from fractions import Fraction

import pytest

from twistbern import bernoulli, cyclo, symmetry
from twistbern.bernoulli import (TwistContext, _inverse_table, bernoulli_gf,
                                 char_sum_series, factor_table,
                                 keyed_quotient, quotient_plan,
                                 twist_units_series)
from twistbern.characters import character, enumerate_characters
from twistbern.cyclo import CycloField, _rows, cyclo_field, quotient
from twistbern.symmetry import (_FAMILY_MAX_I, _PERM6, _QUOTIENTS, _ROWS,
                                _THEOREM_PATTERNS, QuotientSpec,
                                _quotient_plan, permutation_invariance_check,
                                verify_theorem)

from bernoulli_helpers import (bernoulli_gf_by_division, bpoly_by_route,
                               ratio_by_route, ratio_route)
from cyclo_helpers import multiplicative_order
from symmetry_helpers import (PAPER_PREFACTORS, distinct_orders,
                              keys_by_hand, sum_key)

CONTEXTS = [(d, char, order) for d in (1, 3, 4)
            for char in range(len(enumerate_characters(d)))
            for order in (1, 2, 3, 4)] + [(7, 1, 7)]   # Q(zeta_42), degree 12
WEIGHTS = [(1, 1, 2), (2, 3, 2), (4, 4, 4)]
TOP = 8


def _cases(w):
    """(plan, prefactor, t_power, units, scales) of every quotient built at
    the weights w: the library's plan of its units and scales, and its
    prefactor and power of t as the paper displays them."""
    cases = [(quotient_plan((), (1,)), 1, 1, (), (1,))]   # the Bernoulli GF
    for v in sorted(set(w)):              # powersum side A, times v as there
        cases.append((quotient_plan((v,), (1,), const=v), 1, 0, (v,), (1,)))
    for family, max_i in sorted(_FAMILY_MAX_I.items()):
        for i in range(max_i + 1):
            units, scales, _ = _QUOTIENTS[family](*w, i)
            cases.append((_quotient_plan(_QUOTIENTS[family], i, w),
                          *PAPER_PREFACTORS[family](*w, i), units, scales))
    return cases


def _scaled(coefficients, const):
    return tuple(c * const for c in coefficients)


def _num_den(units, scales):
    """The quotient as num / den: num the units and the character sum of
    each scale, den the unit of each scale."""
    return ([("unit", c) for c in units] + [("sum", c) for c in scales],
            [("unit", c) for c in scales])


def _times(a, b):
    """The schoolbook Cauchy product of two coefficient tuples, truncated to
    the shorter."""
    return tuple(sum((a[i] * b[k - i] for i in range(1, k + 1)), a[0] * b[k])
                 for k in range(min(len(a), len(b))))


def _product(ctx, factors, truncation):
    out = (ctx.field.one,) + (ctx.field.zero,) * truncation
    for kind, c in factors:
        table = (twist_units_series(ctx, (c,), truncation) if kind == "unit"
                 else char_sum_series(ctx, c, truncation))
        out = _times(out, table.elements())
    return out


def _vanishing(ctx, scales):
    # the scales c whose unit xi^(dc) e^(dct) - 1 vanishes at t = 0
    return sum(ctx.xi_pow(ctx.d * c) == 1 for c in scales)


def _operands(units, scales):
    """The factor_table keys of a quotient plan's product, in its order:
    ("units", cs) for the sorted multiset cs of units, if there are any,
    then ("ratio", c) for each scale in sorted order."""
    return ([("units", tuple(sorted(units)))] if units else []) + [
        ("ratio", c) for c in sorted(scales)]


@pytest.mark.parametrize("d,char,order", CONTEXTS)
def test_quotient_times_denominator_is_numerator(d, char, order):
    ctx = TwistContext.from_orders(d, char, order)
    for w in WEIGHTS:
        for plan, prefactor, t_power, units, scales in _cases(w):
            num, den = _num_den(units, scales)
            # vanish extra coefficients pin every coefficient of q up to TOP
            upto = TOP + _vanishing(ctx, scales)
            bottom = _product(ctx, den, upto)
            top = _scaled(((ctx.field.zero,) * t_power
                           + _product(ctx, num, upto))[:upto + 1], prefactor)
            full = keyed_quotient(ctx, plan, upto)
            assert _times(full, bottom) == top
            for truncation in range(TOP + 1):
                q = keyed_quotient(ctx, plan, truncation)
                assert len(q) == truncation + 1
                assert _times(q, bottom) == top[:truncation + 1]
                assert q == full[:truncation + 1]


@pytest.mark.parametrize("small", [True, False], ids=["small", "ratio"])
@pytest.mark.parametrize("d,char,order", CONTEXTS)
def test_bernoulli_gf_times_its_unit_is_t_times_its_sum(d, char, order,
                                                        small, monkeypatch):
    # bernoulli_gf divides directly, not through a quotient plan: it is the
    # context's ("ratio", 1) table, stored there, by either route of
    # _ratio_table, forced here: in Q(zeta_R), R the order of xi^d, it reads
    # the Apostol table of zeta_R there and combines the power sums, and
    # builds no sum or unit table; in Q(zeta_L) it builds the character sum
    # for the ratio and does not store it.  Either runs the table's
    # recurrence only in Q(zeta_R), once per R, where the table is not yet
    # long enough
    monkeypatch.setattr(bernoulli, "_ratio_table", ratio_route(small))
    builds = []
    for kind, name in (("units", "twist_units_series"),
                       ("sum", "char_sum_series")):
        def counted(ctx, c, truncation, exact=getattr(bernoulli, name),
                    kind=kind):
            builds.append((kind, c, truncation))
            return exact(ctx, c, truncation)
        monkeypatch.setattr(bernoulli, name, counted)
    ctx = TwistContext.from_orders(d, char, order)
    R = multiplicative_order(ctx.xi ** d)
    fields = _apostol_tables(monkeypatch, R)
    v = _vanishing(ctx, (1,))
    upto = TOP + v
    bottom = _product(ctx, [("unit", 1)], upto)
    top = ((ctx.field.zero,) + _product(ctx, [("sum", 1)], upto))[:upto + 1]
    full = bernoulli_gf(ctx, upto)
    table = fields[R]._apostol
    assert len(table) == upto + v
    assert _times(full, bottom) == top
    for truncation in range(TOP + 1):
        fresh = TwistContext.from_orders(d, char, order)
        builds.clear()
        q = bernoulli_gf(fresh, truncation)
        assert len(q) == truncation + 1
        assert _times(q, bottom) == top[:truncation + 1]
        assert q == full[:truncation + 1]
        n = max(truncation - 1 + v, 0)
        assert builds == ([] if small else [("sum", 1, n)])
        assert fields[R]._apostol is table
        assert set(fresh._factors) == {("ratio", 1)}


def _apostol_tables(monkeypatch, *orders):
    """Empty the Apostol table of each cyclo_field(R), R in orders, for
    this test, and return {R: that field}."""
    fields = {R: cyclo_field(R) for R in orders}
    for field in fields.values():
        monkeypatch.setattr(field, "_apostol", None)
    return fields


def _built(fields):
    # the orders R whose field now keeps its table of zeta_R
    return sorted(R for R, field in fields.items()
                  if field._apostol is not None)


def _tabled(operands):
    """The ratio operands: each is read off the scale-1 table of its twist
    xi^c, kept in that twist's context, one per class c mod xi's order
    (the context itself where c = 1 mod it)."""
    return {key for key in operands if key[0] == "ratio"}


@pytest.mark.parametrize("d,char,order", [(3, 1, 4), (1, 0, 1), (4, 1, 2)])
def test_a_fresh_context_builds_tables_no_longer_than_a_quotient_needs(
        d, char, order, monkeypatch):
    # the product's operands are the tables of _operands(units, scales),
    # each built to exactly t^length on a fresh context, where t^length is
    # the top power of q before its powers of t are sliced on or off, and
    # stored there; a ratio table of c != 1 is read off the ("ratio", 1)
    # table of its twist xi^c (_rescaled_table), built once per class of c
    # to that length too and kept in the twist's context; a ratio table of
    # scale 1 is built by one of two routes, each forced here: in the small
    # field, from the power sums, or from the sum and inverse tables of its
    # context, built to that length and not stored; the inverse table reads
    # its field's table of the root, never the unit's table, so the unit
    # of a scale is not built
    builds = []

    def count(name, exact):
        def counted(*args):
            table = exact(*args)
            builds.append((name, len(table)))
            return table
        monkeypatch.setattr(bernoulli, name, counted)
    for name in ("twist_units_series", "char_sum_series", "_inverse_table",
                 "_rescaled_table"):
        count(name, getattr(bernoulli, name))
    for small, truncation in itertools.product((True, False), range(4)):
        count("_ratio_table", ratio_route(small))
        for plan, _, t_power, units, scales in _cases((1, 2, 3)):
            ctx = TwistContext.from_orders(d, char, order)
            builds.clear()
            keyed_quotient(ctx, plan, truncation)
            length = max(truncation - t_power + _vanishing(ctx, scales), 0)
            operands = set(_operands(units, scales))
            tabled = _tabled(operands)
            twists = {ctx.twist(c) for _, c in tabled}
            scaled = {key for key in tabled if key[1] != 1}
            assert set(ctx._factors) == operands | (
                {("ratio", 1)} if ctx in twists else set())
            for key in operands:
                assert len(ctx._factors[key]) == length + 1, key
            for twist in twists:
                assert len(twist._factors["ratio", 1]) == length + 1
                if twist is not ctx:
                    assert set(twist._factors) == {("ratio", 1)}
            # per twist: its ratio, and in Q(zeta_L) the sum and inverse
            # it multiplies
            assert len(builds) == (len(operands - tabled) + len(scaled)
                                   + (1 if small else 3) * len(twists))
            assert {n for _, n in builds} == {length + 1}


def test_the_build_contexts_meet_every_kind_of_twist_class():
    # c = 1 mod xi's order with c != 1 reads the context's own table, other
    # classes a twist's, and one class serves two scales of a quotient,
    # in the context and in a twist
    seen = set()
    for args in [(3, 1, 4), (1, 0, 1), (4, 1, 2)]:
        ctx = TwistContext.from_orders(*args)
        for *_, units, scales in _cases((1, 2, 3)):
            twists = [ctx.twist(c)
                      for _, c in _tabled(set(_operands(units, scales)))
                      if c != 1]
            seen.update(("self" if twist is ctx else "twist",
                         twists.count(twist) > 1) for twist in twists)
    assert seen == {("self", False), ("self", True), ("twist", False),
                    ("twist", True)}


@pytest.mark.parametrize("d,char,order", CONTEXTS)
def test_a_fresh_context_builds_each_unit_of_a_quotient_once(
        d, char, order, monkeypatch):
    # the units are built once, together, as the one units table of their
    # sorted multiset, and never one by one; the unit of a scale is not
    # built at all, since its ratio's inverse derives from the field's
    # table of its root
    builds = []
    for name in ("twist_units_series",):
        def counted(ctx, c, truncation, exact=getattr(bernoulli, name),
                    name=name):
            builds.append((name, c))
            return exact(ctx, c, truncation)
        monkeypatch.setattr(bernoulli, name, counted)
    for w in WEIGHTS:
        for plan, *_, units, scales in _cases(w):
            for truncation in (0, 3):
                ctx = TwistContext.from_orders(d, char, order)
                builds.clear()
                keyed_quotient(ctx, plan, truncation)
                assert builds == ([("twist_units_series",
                                    tuple(sorted(units)))] if units
                                  else []), (units, scales)


@pytest.mark.parametrize("d,char,order", CONTEXTS)
def test_an_inverse_table_times_its_unit_is_one(d, char, order):
    # the scale-1 inverse of the twist xi^c, which its ratio table reads,
    # is 1/u, or t/u where the unit u has no constant term
    ctx = TwistContext.from_orders(d, char, order)
    one = (ctx.field.one,) + (ctx.field.zero,) * TOP
    for c in range(1, 7):
        twist = ctx.twist(c)
        v = _vanishing(twist, (1,))
        unit = twist_units_series(twist, (1,), TOP + v).elements()[v:]
        inverse = _inverse_table(twist, TOP).elements()[:TOP + 1]
        assert _times(unit, inverse) == one


# xi = -zeta_3 in Q(zeta_3), the odd power zeta_6^5, and, with a character
# of order 4, in Q(zeta_12), where it is zeta_12^10, as zeta_12^10 itself
SIGNED = [(character(3, 1), -cyclo_field(3).root(1)),
          (character(5, 1), -cyclo_field(3).root(1)),
          (character(5, 1), cyclo_field(12).root(10))]


def _parent_inverse(ctx, c, top):
    """The inverse of the unit of c as one quotient of 1 by the unit's
    table, shifted by one where the unit vanishes at t = 0."""
    v = _vanishing(ctx, (c,))
    return tuple(quotient(ctx.field, (ctx.field.one,) + (ctx.field.zero,) * top,
                          twist_units_series(ctx, (c,), top + v)
                          .elements()[v:]))


@pytest.mark.parametrize("ctx", [TwistContext.from_orders(*args)
                                 for args in CONTEXTS]
                         + [TwistContext(*pair) for pair in SIGNED],
                         ids=[f"{d}-{char}-{order}"
                              for d, char, order in CONTEXTS]
                         + [f"signed-{k}" for k in range(len(SIGNED))])
def test_an_inverse_table_is_the_quotient_of_one_by_its_unit(ctx):
    # the scale-1 inverse of each twist xi^c, from the field's table of the
    # root u = xi^(dc), at dc up to 625 (the grid meets u = 1 and u != 1,
    # see the next test); its rows are in lowest terms, the row form of
    # the elements they hold
    for c in (*range(1, 7), 125):
        twist = ctx.twist(c)
        table = _inverse_table(twist, TOP)
        assert table.elements()[:TOP + 1] == _parent_inverse(twist, 1, TOP), c
        flat = _rows(ctx.field, table.elements(), len(table))
        assert table.den == flat.den
        assert [(k, list(r)) for k, r in table.rows] == \
            [(k, list(r)) for k, r in flat.rows]


def test_signed_roots_of_one_field_share_their_key():
    a, b = (TwistContext(*pair) for pair in SIGNED[1:])
    assert a.field is b.field and a._xi_root == b._xi_root == 10
    assert a.xi == b.xi
    for c in range(1, 13):
        assert bernoulli._unit_root(a, c) == bernoulli._unit_root(b, c)
    odd = TwistContext(*SIGNED[0])
    assert [bernoulli._unit_root(odd, c) for c in (1, 2)] == [3, 0]


def test_every_root_of_one_order_shares_one_inverse_table(monkeypatch):
    # a field no other test uses: its own table starts empty, and so, for
    # this test, do the tables of Q(zeta_2) and Q
    field = CycloField(4)
    first = TwistContext(character(1, 0), field.root(1))
    second = TwistContext(character(3, 1), field.root(1))
    assert first.field is second.field is field
    fields = _apostol_tables(monkeypatch, 1, 2)
    fields[4] = field
    # xi = i: u = xi^c is i, -1, -i, 1 at c = 1..4 in the first context and
    # -i, -1, i, 1 in the second (d = 3); i and -i read the field's own
    # table of zeta_4, -1 that of zeta_2 in Q(zeta_2), and 1 that of Q.
    # Each is the scale-1 inverse of the twist xi^c
    for c in range(1, 5):
        _inverse_table(first.twist(c), 6)
    assert _built(fields) == [1, 2, 4]
    stored = {R: f._apostol for R, f in fields.items()}
    assert all(len(table) == 7 for table in stored.values())
    for c in range(1, 5):
        twist = second.twist(c)
        table = _inverse_table(twist, 6)
        assert table.elements()[:7] == _parent_inverse(twist, 1, 6)
    assert all(f._apostol is stored[R] for R, f in fields.items())
    # a fresh context asking for one more coefficient than a table holds
    # rebuilds it, to exactly that length, by one recurrence
    third = TwistContext(character(1, 0), field.root(1))
    for c in (2, 4):
        twist = third.twist(c)
        table = _inverse_table(twist, 7)
        assert table.elements()[:8] == _parent_inverse(twist, 1, 7)
    assert field._apostol is stored[4]
    for R in (1, 2):
        grown = fields[R]._apostol
        assert len(stored[R]) == 7 and len(grown) == 8
        assert grown.elements()[:7] == stored[R].elements()


def test_inverse_tables_and_bernoulli_gf_meet_vanishing_and_live_units():
    seen = {(c == 1, _vanishing(TwistContext.from_orders(d, char, order),
                                (c,)))
            for d, char, order in CONTEXTS for c in range(1, 7)}
    assert seen == {(True, 0), (True, 1), (False, 0), (False, 1)}


@pytest.mark.parametrize("d,char,order", [(3, 1, 4), (1, 0, 1), (7, 1, 7)])
def test_a_ratio_table_grows_to_the_length_asked_and_keeps_its_prefix(
        d, char, order):
    ctx = TwistContext.from_orders(d, char, order)
    for c in (1, 2):
        stored = ()
        for upto in (2, 5, 12):
            table = factor_table(ctx, ("ratio", c), upto)
            assert table is ctx._factors["ratio", c]
            grown = table.elements()
            assert grown[:len(stored)] == stored
            # rebuilt to exactly t^upto
            assert len(grown) == upto + 1
            stored = grown
        # a shorter ask reads the stored table as it is
        assert factor_table(ctx, ("ratio", c), 3) is table


# the 36 contexts of the series benchmark (every character mod 1, 3, 4 and
# 5, xi of order 1 to 4) and the same characters at xi of order 6
RATIO_CONTEXTS = [TwistContext.from_orders(d, char, order)
                  for d in (1, 3, 4, 5)
                  for char in range(len(enumerate_characters(d)))
                  for order in (1, 2, 3, 4, 6)] + [TwistContext(*pair)
                                                   for pair in SIGNED]


def test_a_ratio_table_is_its_twists_bernoulli_numbers():
    # ("ratio", c) is t * sum / unit over ct: the twist xi^c's Bernoulli
    # generating function at ct, divided by ct, or by c where xi^(dc) = 1
    # and the inverse table carries the unit's t.  The generating function
    # of the twist is built on a fresh context by the row product in its
    # own field, forced (bernoulli_gf_by_division), so the table the ratio
    # reads, built by the route the rule picks, is not compared with itself.
    compared = set()
    for ctx in RATIO_CONTEXTS:
        for c in range(1, 9):
            gf = bernoulli_gf_by_division(ctx.twist(c), TOP + 1)
            v = _vanishing(ctx, (c,))
            got = factor_table(ctx, ("ratio", c), TOP).elements()[:TOP + 1]
            want = tuple(gf[k + 1 - v] * Fraction(c) ** (k - v)
                         for k in range(TOP + 1))
            assert got == want, (ctx, c)
            compared.add((ctx, c, v))
    assert len(compared) == len(RATIO_CONTEXTS) * 8
    assert {v for _, _, v in compared} == {0, 1}


def test_both_routes_build_every_ratio_and_seed():
    # the one scale-1 table of each twist, built by each route of
    # _ratio_table on a fresh context, serves the ratio of every scale and
    # the Bernoulli seed alike: the routes agree, and agree with the tables
    # of a context whose rule picks the route
    vanishing = set()
    for ctx in RATIO_CONTEXTS:
        for c in range(1, 9):
            ratio = ratio_by_route(ctx, c, TOP, True)
            assert ratio == ratio_by_route(ctx, c, TOP, False), (ctx, c)
            assert ratio == factor_table(ctx, ("ratio", c), TOP).elements()[
                :TOP + 1]
            seed = bpoly_by_route(ctx, c, TOP, True)
            assert seed == bpoly_by_route(ctx, c, TOP, False), (ctx, c)
            assert seed == bernoulli._bpoly(ctx, c, TOP).elements()[:TOP + 1]
            vanishing.add(_vanishing(ctx, (c,)))
    assert vanishing == {0, 1}


def test_a_ratio_reads_a_stored_sum_and_builds_its_inverse_unstored(
        monkeypatch):
    # ("ratio", 2) is the ("ratio", 1) table of the twist xi^2 read at
    # t -> 2t, kept in the twist's context, and the rescaled one is kept in
    # the context, each to exactly the length asked.  Where the twist's
    # ("sum", 1, d - 1, 1) is stored long enough (a row reads it) its ratio
    # multiplies it as it is; where not, it builds the sum to its own
    # length and does not store it, so the stored one keeps its length.
    # The inverse of the unit is built for each ratio build and never
    # stored.  At xi of order 1 the twist is the context itself.  The row
    # product is forced: the route in the small field reads neither
    monkeypatch.setattr(bernoulli, "_ratio_table", ratio_route(False))
    builds = []
    for name in ("char_sum_series", "_inverse_table"):
        def counted(*args, exact=getattr(bernoulli, name), name=name):
            builds.append(name)
            return exact(*args)
        monkeypatch.setattr(bernoulli, name, counted)
    for d, char, order in [(3, 1, 4), (1, 0, 1), (7, 1, 7)]:
        ctx = TwistContext.from_orders(d, char, order)
        twist = ctx.twist(2)
        assert (twist is ctx) == (order == 1)
        stored = factor_table(twist, ("sum", 1, d - 1, 1), 5)
        builds.clear()
        ratio = factor_table(ctx, ("ratio", 2), 5)
        assert builds == ["_inverse_table"]
        assert len(twist._factors["ratio", 1]) == len(ratio) == 6
        fresh = TwistContext.from_orders(d, char, order)
        assert ratio.elements() == factor_table(
            fresh, ("ratio", 2), 5).elements()
        builds.clear()
        longer = factor_table(ctx, ("ratio", 2), 7)
        assert sorted(builds) == ["_inverse_table", "char_sum_series"]
        assert longer.elements()[:6] == ratio.elements()
        assert ctx._factors["ratio", 2] is longer
        assert len(twist._factors["ratio", 1]) == len(longer) == 8
        assert twist._factors["sum", 1, d - 1, 1] is stored
        assert len(stored) == 6
        assert set(twist._factors) | set(ctx._factors) == {
            ("sum", 1, d - 1, 1), ("ratio", 1), ("ratio", 2)}


# repeated, distinct, one, a vanishing-heavy multiset and a large scale;
# the quotients' own multisets are big^i and {w2w3, w1w3, w1w2}
UNIT_SETS = [(2, 2, 2), (1, 2, 3), (2, 3, 6), (4,), (1, 1), (4, 4, 12),
             (3, 5, 5, 125)]


def _unit_elements(ctx, c, top):
    """(u - 1, u (dc)^1/1!, u (dc)^2/2!, ...) with u = xi^(dc) formed as a
    power of xi: the unit c's coefficients, by no table builder."""
    dc = ctx.d * c
    u = ctx.xi ** dc
    return [u - 1] + [u * Fraction(dc**j, math.factorial(j))
                      for j in range(1, top + 1)]


@pytest.mark.parametrize("ctx", [TwistContext.from_orders(*args)
                                 for args in CONTEXTS]
                         + [TwistContext(*pair) for pair in SIGNED],
                         ids=[f"{d}-{char}-{order}"
                              for d, char, order in CONTEXTS]
                         + [f"signed-{k}" for k in range(len(SIGNED))])
def test_a_units_table_is_the_product_of_its_unit_tables(ctx):
    # the closed form, a signed exponential sum over the subsets of cs,
    # against cyclo.product of the single unit tables, each formed from
    # elements; its rows are the lowest-terms row form of what it holds
    for cs in UNIT_SETS:
        for top in (0, 1, TOP):
            table = bernoulli.twist_units_series(ctx, cs, top)
            want = cyclo.product(ctx.field, [_unit_elements(ctx, c, top)
                                             for c in cs], top + 1)
            assert table.elements() == tuple(want), (cs, top)
            flat = _rows(ctx.field, want, top + 1)
            assert table.den == flat.den
            assert [(k, list(r)) for k, r in table.rows] == \
                [(k, list(r)) for k, r in flat.rows]
        stored = factor_table(ctx, ("units", cs), TOP)
        assert stored is ctx._factors["units", cs]
        assert stored.elements() == table.elements()


def test_unit_sets_meet_vanishing_live_and_mixed_units():
    # some multiset has every unit vanishing at t = 0, some none, some both,
    # and the odd-L signed context is among them
    seen = set()
    for ctx in [TwistContext.from_orders(*args) for args in CONTEXTS] + [
            TwistContext(*pair) for pair in SIGNED]:
        for cs in UNIT_SETS:
            v = _vanishing(ctx, cs)
            seen.add("none" if v == 0 else "all" if v == len(cs) else "some")
    assert seen == {"none", "some", "all"}
    assert TwistContext(*SIGNED[0]).field.order % 2 == 1


def _element_quotient(ctx, prefactor, t_power, units, scales, truncation):
    """The quotient by schoolbook products of elements: the num series
    and, per unit of den, one quotient of 1 by the unit (_parent_inverse),
    with no factor table or ratio, times the prefactor."""
    num, den = _num_den(units, scales)
    shift = t_power - _vanishing(ctx, scales)
    length = max(truncation - shift, 0)
    out = (ctx.field.one,) + (ctx.field.zero,) * length
    for kind, c in num:
        table = (twist_units_series(ctx, (c,), length) if kind == "unit"
                 else char_sum_series(ctx, c, length))
        out = _times(out, table.elements())
    for _, c in den:
        out = _times(out, _parent_inverse(ctx, c, length))
    if shift < 0:
        assert not any(out[:-shift])
        return _scaled(out[-shift:], prefactor)
    return _scaled(((ctx.field.zero,) * shift + out)[:truncation + 1],
                   prefactor)


@pytest.mark.parametrize("d,char,order", CONTEXTS)
def test_a_quotient_of_paired_tables_is_the_quotient_of_its_elements(
        d, char, order):
    # (2, 2, 3) repeats a weight: two scales read one ratio table
    ctx = TwistContext.from_orders(d, char, order)
    for w in (*WEIGHTS, (2, 2, 3)):
        for plan, prefactor, t_power, units, scales in _cases(w):
            for truncation in (0, 5):
                assert keyed_quotient(ctx, plan, truncation) \
                    == _element_quotient(ctx, prefactor, t_power, units,
                                         scales, truncation), (w, units,
                                                               scales)


# the 36 contexts of the series benchmark: every character mod 1, 3, 4 and
# 5, xi of order 1 to 4
SERIES_CONTEXTS = [TwistContext.from_orders(d, char, order)
                   for d in (1, 3, 4, 5)
                   for char in range(len(enumerate_characters(d)))
                   for order in (1, 2, 3, 4)]


def _owes(ctx, plan, prefactor, t_power, scales):
    # keyed_quotient of the plan is prefactor t^(t_power - vanishing
    # scales) times the product of its keys' tables
    return keyed_quotient(ctx, plan, 3) == keys_by_hand(
        ctx, plan[2], t_power, scales, 3, prefactor)


@pytest.mark.parametrize("ctx", SERIES_CONTEXTS, ids=repr)
def test_quotient_plans_are_the_units_then_one_ratio_per_scale(ctx):
    # every _QUOTIENTS family and index and powersum side A: the units key
    # first where there are units, the ratios in the sorted order of the
    # scales, and the t shift t_power less the scales whose unit vanishes
    met = set()
    for w in (*WEIGHTS, (2, 2, 3)):
        for family, max_i in _FAMILY_MAX_I.items():
            for i in range(max_i + 1):
                units, scales, _ = _QUOTIENTS[family](*w, i)
                met.add((family, i, bool(units)))
                plan = bernoulli.quotient_plan(units, scales)
                assert plan[2] == tuple(_operands(units, scales))
                assert _owes(ctx, plan, *PAPER_PREFACTORS[family](*w, i),
                             scales)
        for v in set(w):
            plan = bernoulli.quotient_plan((v,), (1,), const=v)
            assert plan == (1, 0, (("units", (v,)), ("ratio", 1)), ())
            assert type(plan[0]) is int and _owes(ctx, plan, 1, 0, (1,))
    assert {(family, i) for family, i, _ in met} == {
        (family, i) for family, max_i in _FAMILY_MAX_I.items()
        for i in range(max_i + 1)}
    assert {has_units for _, _, has_units in met} == {False, True}


@pytest.mark.parametrize("const", [2, Fraction(3, 2), Fraction(-1, 6)])
def test_a_constant_scales_every_coefficient_of_a_quotient(const):
    # const is applied at the product's last step, one scaling per row
    ctx = TwistContext.from_orders(3, 1, 4)
    for *_, units, scales in _cases((1, 1, 2)):
        q = keyed_quotient(ctx, quotient_plan(units, scales), TOP)
        assert keyed_quotient(ctx, quotient_plan(units, scales, const=const),
                              TOP) == _scaled(q, const)


def test_product_takes_stored_tables_of_its_field_only():
    # a table of an equal field object multiplies; one of another field
    # raises, first, in the middle or last
    ctx = TwistContext.from_orders(3, 1, 4)
    ours = factor_table(ctx, ("sum", 1, 2, 1), 4)
    fresh = TwistContext(character(3, 1), CycloField(4).root(1))
    same = factor_table(fresh, ("sum", 1, 2, 1), 4)
    assert same.field is not ours.field
    want = cyclo.product(ctx.field, [ours.elements(), ours.elements()], 5)
    assert cyclo.product(ctx.field, [ours, same], 5) == want
    other = factor_table(TwistContext.from_orders(3, 1, 3), ("sum", 1, 2, 1),
                         4)
    for seqs in ([other, ours], [ours, other, ours], [ours, other]):
        with pytest.raises(ValueError, match="field mismatch"):
            cyclo.product(ctx.field, seqs, 5)


@pytest.mark.parametrize("key", [("inv", 1), ("inv", 2), ("bogus", 1),
                                 ("bern", 1), ("bern", 3)])
def test_factor_table_refuses_a_key_it_does_not_know(key):
    # an unknown kind, the retired inverse and seed keys among them, is
    # refused by name, and nothing is stored
    ctx = TwistContext.from_orders(3, 1, 4)
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        factor_table(ctx, key, 3)
    assert not ctx._factors


def test_grid_has_none_some_and_all_denominators_vanishing():
    seen = set()
    for d, char, order in CONTEXTS:
        ctx = TwistContext.from_orders(d, char, order)
        for w in WEIGHTS:
            for *_, scales in _cases(w):
                k = _vanishing(ctx, scales)
                seen.add("none" if k == 0 else "all" if k == len(scales)
                         else "some")
    assert seen == {"none", "some", "all"}


@pytest.mark.parametrize("t_power,keys", [
    (0, (("ratio", 1),)),
    (0, (("units", (1,)), ("ratio", 1), ("ratio", 2))),
    (1, (("ratio", 1), ("ratio", 1))),
])
def test_an_owed_t_that_does_not_divide_raises(t_power, keys):
    # a plan written by hand with a power of t below quotient_plan's
    ctx = TwistContext.from_orders(1, 0, 1)    # every unit vanishes at t = 0
    with pytest.raises(ValueError, match="not divisible"):
        keyed_quotient(ctx, (1, t_power, keys, ()), 4)


def test_each_factor_is_built_once_and_every_order_multiplies(monkeypatch):
    # The factor series are cached per context, so the six weight orders of
    # one invariance check share one build of the units table, the same
    # multiset in every order, and one ratio table per scale: the
    # ("ratio", 1) table of its twist xi^c, kept in the twist's context and
    # read at t -> ct, one _row_times of the twist's sum and inverse
    # tables, each built once for it and not stored; the inverse table
    # reads the table of zeta_R of its root's order R, one recurrence per
    # order.  Each order's form, built alone (on an emptied form store),
    # multiplies its plan, one sorted multiset shared by every order, and
    # its one cyclo.product over _operands performs len(operands) - 1 factor
    # multiplications.  The context keeps the form of that one plan at the
    # longest t^n asked, so every later form of the plan at n' <= n, the
    # invariance check's (one group) or any order's, is its slice and
    # multiplies nothing.  The ratio tables are built by the row product,
    # forced here: the route in the small field builds no sum or inverse
    monkeypatch.setattr(bernoulli, "_ratio_table", ratio_route(False))
    builds = []
    for kind, name in (("units", "twist_units_series"),
                       ("sum", "char_sum_series")):
        def counted(ctx, c, truncation, exact=getattr(bernoulli, name),
                    kind=kind):
            builds.append((kind, c, ctx))
            return exact(ctx, c, truncation)
        monkeypatch.setattr(bernoulli, name, counted)

    ratios = []

    def ratio(*args, exact=bernoulli._row_times):
        ratios.append(args[3])
        return exact(*args)
    monkeypatch.setattr(bernoulli, "_row_times", ratio)

    calls = []
    exact_quotient = symmetry.keyed_quotient

    def quotient(ctx, plan, *args):
        units = next(key[1] for key in plan[2] if key[0] == "units")
        calls.append([units, tuple(key[1] for key in plan[2]
                                   if key[0] == "ratio"), 0, None])
        return exact_quotient(ctx, plan, *args)
    monkeypatch.setattr(symmetry, "keyed_quotient", quotient)

    def multiply(field, seqs, *args, exact=bernoulli.product):
        assert calls[-1][3] is None     # one product per order
        calls[-1][3] = list(seqs)
        return exact(field, seqs, *args)
    monkeypatch.setattr(bernoulli, "product", multiply)

    # a factor multiplication of cyclo.product: one factor multiplied into
    # the running rows
    def step(*args, exact=cyclo._row_times):
        if calls:
            calls[-1][2] += 1
        return exact(*args)
    monkeypatch.setattr(cyclo, "_row_times", step)

    # d = 3, a real character and xi = i in a field no other test uses, so
    # its roots xi^3 = -i, xi^6 = -1, xi^9 = i of the units 1, 2, 3 have no
    # table yet: the field's own table of zeta_4, and, emptied for this
    # test, that of zeta_2
    field = CycloField(4)
    ctx = TwistContext(character(3, 1), field.root(1))
    fields = _apostol_tables(monkeypatch, 2)
    fields[4] = field
    spec = QuotientSpec("cyclic", 1, (1, 2, 3), ctx)
    orders = distinct_orders(spec.w, _PERM6)

    def every_order(truncation, alone=False):
        forms = []
        for v in orders:
            if alone:
                ctx._forms.clear()
            forms.append(symmetry._quotient_form(
                QuotientSpec("cyclic", 1, v, ctx), truncation))
        return forms
    long = every_order(6, alone=True)
    assert len(calls) == 6
    # units at 6, 3, 2 and scales 1, 2, 3: the units are one table of
    # (2, 3, 6), the unit of scale 1 is never built, and the sum of each
    # scale c is built once, at scale 1 in the context of its twist xi^c
    # (xi^2 = -1 and xi^3 = -i are two twists), for that twist's ratio
    # table
    assert {(tuple(sorted(units)), tuple(sorted(scales)))
            for units, scales, _, _ in calls} == {((2, 3, 6), (1, 2, 3))}
    twists = {c: ctx.twist(c) for c in (1, 2, 3)}
    assert twists[1] is ctx and len(set(map(id, twists.values()))) == 3
    assert len(builds) == 4 and ("units", (2, 3, 6), ctx) in builds
    assert {(kind, c, id(where)) for kind, c, where in builds
            if kind == "sum"} == {("sum", 1, id(t)) for t in twists.values()}
    assert len({(units, scales) for units, scales, _, _ in calls}) == 1
    for units, scales, products, tables in calls:
        operands = _operands(units, scales)
        assert operands[0] == ("units", (2, 3, 6))
        assert [key[0] for key in operands] == ["units"] + ["ratio"] * 3
        assert all(table is ctx._factors[key]
                   for key, table in zip(operands, tables, strict=True))
        assert products == len(operands) - 1
    # only the operands are stored, each rescaled one to the length of its
    # twist's ("ratio", 1): a ratio's sum and inverse are not
    assert set(ctx._factors) == {("units", (2, 3, 6))} | {
        ("ratio", c) for c in (1, 2, 3)}
    for c in (2, 3):
        assert set(twists[c]._factors) == {("ratio", 1)}
        assert len(twists[c]._factors["ratio", 1]) == len(
            ctx._factors["ratio", c])
    assert _built(fields) == [2, 4]
    stored = {R: f._apostol for R, f in fields.items()}
    # one ratio build per twist, multiplying the twist's inverse table of 1
    assert len(ratios) == 3
    assert {table.elements() for table in ratios} == {
        _parent_inverse(twist, 1, 6) for twist in twists.values()}

    # the one plan's form, stored at t^6, serves each later round
    assert list(ctx._forms) == [symmetry._quotient_plan(_QUOTIENTS["cyclic"],
                                                        1, spec.w)]
    assert all(form == long[0] for form in long)
    for truncation, forms in ((6, 1), (4, 6), (4, 1)):
        builds.clear()
        calls.clear()
        ratios.clear()
        if forms == 1:
            report = permutation_invariance_check(spec, truncation)
            assert report.passed and report.compared == 1
        else:
            for scales, q in every_order(truncation):
                assert (scales, q) == (long[0][0], long[0][1][:5])
        # each served call of keyed_quotient multiplies nothing
        assert all(tables is None for *_, tables in calls)
        assert builds == [] and ratios == []
        assert all(f._apostol is stored[R] for R, f in fields.items())
    [stored_form] = ctx._forms.values()
    assert len(stored_form) == 7


def test_row_pieces_are_factor_tables(monkeypatch):
    # A B piece of twist exponent c is the stored ("ratio", c) table, one
    # RowTable per c, rebuilt once per length as n rises, with c in the
    # row's const and t^(1-v) in its shift, and one character-sum factor
    # table per shift entry (A, m, s, q), the series
    # sum_{a<A} chi(a) xi^(am) e^((s*c/q) a t); an S piece reads the factor
    # table ("sum", c, bound, c).  No ("bern", c) key is asked for.  A shift
    # with s*c/q = m reads the table of the S piece with that (m, bound),
    # and each row is one cyclo.product, which symmetry._form makes from
    # the row's plan the first time the plan is asked at its n; n rises
    # here, so a form asked again at that n (theorems 3, 5 and 6 plan their
    # rows equal to those of theorems 2, 4 and 4) is read from the store.
    ctx = TwistContext.from_orders(3, 1, 4)
    ratios, products, asked, seen = {}, [], set(), []
    exact_table, exact_product = bernoulli.factor_table, bernoulli.product

    def factor_table(where, key, upto):
        # the row's own tables; a twist's ("ratio", 1) is read by rescaling
        table = exact_table(where, key, upto)
        if where is ctx:
            asked.add(key[0])
            if key[0] == "ratio":
                assert table is ctx._factors[key] and len(table) > upto
                ratios.setdefault(key[1], {})[id(table)] = (table,
                                                            len(table))
        return table

    def product(*args):
        products[-1] += 1
        return exact_product(*args)

    def form(where, plan, n, exact=symmetry._form):
        products.append(0)
        seen.append((plan, n))
        return exact(where, plan, n)
    monkeypatch.setattr(bernoulli, "factor_table", factor_table)
    monkeypatch.setattr(bernoulli, "product", product)
    monkeypatch.setattr(symmetry, "_form", form)

    w, top, theorems = (1, 2, 3), 6, (2, 3, 4, 5, 6)
    for n in range(top + 1):
        for theorem in theorems:
            assert verify_theorem(theorem, ctx, w, n).passed
    first = [seen.index(asked_at) == k for k, asked_at in enumerate(seen)]
    assert products == list(map(int, first)) and 0 < sum(products) < len(seen)
    assert asked == {"ratio", "sum"}

    pieces = set(_ROWS["bernoulli_shifted_bernoulli_printed"](
        w[1], w[0], w[2], ctx.d)[1])
    for theorem in theorems:
        perms, row = _THEOREM_PATTERNS[theorem]
        for v in distinct_orders(w, perms):
            pieces.update(_ROWS[row](*v, ctx.d)[1])
    s_keys = {sum_key(desc[1], desc[2], desc[1])
              for desc in pieces if desc[0] == "S"}
    b_pieces = {(desc[1], desc[4]) for desc in pieces if desc[0] == "B"}
    shifts = {sum_key(m, A - 1, Fraction(s * c, q))
              for c, sums in b_pieces for A, m, s, q in sums}
    assert s_keys and shifts

    stored = {key[1] for key in ctx._factors if key[0] == "ratio"}
    assert set(ratios) == stored == {c for c, _ in b_pieces}
    for c, built in ratios.items():
        # one table per length the ratio reached, the last one kept
        lengths = [length for _, length in built.values()]
        assert len(set(lengths)) == len(lengths)
        assert max(built.values(), key=lambda tl: tl[1])[0] \
            is ctx._factors["ratio", c]
        # c t^(1-v) times it is the seed [c^j B_j / j!] of the twist xi^c
        v = ctx.xi_pow(ctx.d * c) == ctx.field.one
        ratio = exact_table(ctx, ("ratio", c), top).elements()
        bern = bernoulli.bernoulli_numbers(ctx.twist(c), top)
        assert ((ctx.field.zero,) * (1 - v) + tuple(
            x * c for x in ratio))[:top + 1] == tuple(
            bern[j] * Fraction(c**j, math.factorial(j))
            for j in range(top + 1))

    for key in s_keys | shifts:
        # each stored as long as the rows asked for, t^(n - shift)
        table = ctx._factors[key]
        assert table.elements() == char_sum_series(
            ctx, key[1], len(table) - 1, *key[2:]).elements(), key
    shared = {key for key in shifts if key[3] == key[1]} & s_keys
    printed = {key for key in shifts if key[3] != key[1]}
    assert shared and printed
    sums = {key for key in ctx._factors if key[0] == "sum"}
    assert sums == s_keys | shifts


def test_a_sum_of_bound_d_minus_1_is_stored_once():
    # a row's S piece of bound d - 1 and a quotient's sum of scale c are
    # one series, kept under the one key ("sum", c, d - 1, c)
    ctx = TwistContext.from_orders(3, 1, 4)
    assert verify_theorem(2, ctx, (1, 2, 3), 6).passed
    spec = QuotientSpec("pairwise", 1, (1, 2, 3), ctx)
    assert permutation_invariance_check(spec, 6).passed
    sums = [(key, table.elements()) for key, table in ctx._factors.items()
            if key[0] == "sum"]
    assert ("sum", 6, ctx.d - 1, 6) in dict(sums)
    for k, (key, table) in enumerate(sums):
        assert len(key) == 4
        for other, seq in sums[k + 1:]:
            top = min(len(table), len(seq))
            assert table[:top] != seq[:top], (key, other)


def test_a_row_form_has_n_plus_one_terms_from_longer_tables():
    # the piece tables of a context outgrow n once a larger n was asked for;
    # the row form (scales, const * E) still holds E[:n+1]
    ctx = TwistContext.from_orders(3, 1, 4)
    w = (1, 2, 3)
    for row in _ROWS:
        long = symmetry._row_form(row, ctx, w, 8)[1]
        assert len(long) == 9
        for n in range(8):
            assert list(symmetry._row_form(row, ctx, w, n)[1]) == \
                list(long[:n + 1])
