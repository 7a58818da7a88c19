"""Operands as data: each row and quotient states what it multiplies before
it multiplies.

``bernoulli.quotient_plan`` gives the plan of every form, its keys
``factor_table``'s: of a quotient from its ``_QUOTIENTS`` units and
scales (``symmetry._quotient_plan``), and of a row from
``symmetry.row_operands``' (const, scales, sums, exp), the row as a
quotient with no units (``symmetry._row_plan``).  A B piece of twist
exponent c is an integral scale, ("ratio", c), with c in the const; its
shift entries and the S pieces are ("sum", ...) keys, after the ratio keys.
Both read the ``_ROWS`` pieces, the ``_QUOTIENTS`` units and scales and the
roots' exponents only: with every product, table builder, power sum and
element operation replaced by one that raises, the operands of every row
and every quotient family are still built at every weight order of the
acceptance grid's points.  A row form is one ``cyclo.product`` of the
tables of its keys, sliced on by t^shift, as a quotient form is.
A check's plan, ``symmetry._check_plan``, groups its weight orders by
plan: a theorem check's rows, each sum key in its one spelling, and an
invariance check's quotients, whose orders all share one plan.
The orders of one group have equal forms, each built alone.
``tools/operand_census.py`` counts, from operands alone, what the checks
of a benchmark block compare.
"""

import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from twistbern import bernoulli, cyclo, symmetry
from twistbern.bernoulli import TwistContext, factor_table
from twistbern.characters import enumerate_characters
from twistbern.cyclo import CycloNumber
from twistbern.symmetry import (_FAMILY_MAX_I, _PERM6, _QUOTIENTS, _ROWS,
                                _THEOREM_PATTERNS, QuotientSpec,
                                _check_plan, _quotient_form, _quotient_plan,
                                _row_form, _row_plan, row_operands)

from symmetry_helpers import (PAPER_PREFACTORS, distinct_orders, owed_shift,
                              plan_groups, sum_key)

CONTEXTS = [TwistContext.from_orders(d, char, order) for d in (1, 3, 4, 5)
            for char in range(len(enumerate_characters(d)))
            for order in (1, 2, 3, 4)]
THEOREM_W = ((1, 1, 1), (1, 2, 3), (2, 3, 5))
ORDERS = [v for w in THEOREM_W for v in distinct_orders(w, _PERM6)]
#: the acceptance triples and their rotations
ROTATED_W = tuple(dict.fromkeys(w[k:] + w[:k] for w in THEOREM_W
                                for k in range(3)))

#: everything that multiplies, builds a table or adds elements
ARITHMETIC = [(cyclo, "product"), (bernoulli, "product"),
              (cyclo, "_row_times"), (cyclo, "dot"), (bernoulli, "dot"),
              (bernoulli, "_apostol_table"), (bernoulli, "factor_table"),
              (bernoulli, "keyed_quotient"),
              (symmetry, "keyed_quotient"),
              (bernoulli, "_bpoly"), (symmetry, "_bpoly"),
              (bernoulli, "power_sums"), (bernoulli, "_build"),
              (CycloNumber, "__mul__"), (CycloNumber, "__rmul__"),
              (CycloNumber, "__add__"), (CycloNumber, "__radd__"),
              (CycloNumber, "__sub__"), (CycloNumber, "__truediv__")]


def _forbid(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("operands reached arithmetic")
    for owner, name in ARITHMETIC:
        monkeypatch.setattr(owner, name, refuse)


def _row_keys(ctx, row, v):
    """(const, scales, t_power, keys, pieces) of a row's plan, its
    operands derived afresh, the entry's const as transcribed, and checked
    against its memoized plan, whose keys are one ratio per sorted scale,
    then the sorted sum keys, each sum spelled by sum_key."""
    entry = _ROWS[row]
    const, scales, sums, exp = row_operands(entry, ctx.d, v)
    plan = _row_plan(entry, ctx.d, v)
    assert const == entry(*v, ctx.d)[0]
    assert plan == (const * math.prod(scales), len(scales), tuple(
        [("ratio", c) for c in sorted(scales)]
        + sorted(sum_key(*s) for s in sums)), tuple(sorted(exp)))
    return plan[0], scales, plan[1], plan[2], entry(*v, ctx.d)


def test_operands_reach_no_arithmetic(monkeypatch):
    _forbid(monkeypatch)
    rows = quotients = 0
    for ctx in CONTEXTS:
        for v in ORDERS:
            for row in _ROWS:
                const, scales, t_power, keys, (const0, pieces) = _row_keys(
                    ctx, row, v)
                # each B piece is ("ratio", c) with c in the const; then the
                # sum keys, and no other kind
                bs = tuple(desc[1] for desc in pieces if desc[0] == "B")
                assert scales == bs and const == const0 * math.prod(bs)
                kinds = [key[0] for key in keys]
                assert keys[:len(bs)] == tuple(
                    ("ratio", c) for c in sorted(bs))
                assert kinds == ["ratio"] * len(bs) + ["sum"] * (
                    len(keys) - len(bs)) and keys
                assert t_power == len(bs)
                assert 0 <= owed_shift(ctx, t_power, scales) <= len(bs)
                rows += 1
            for family, max_i in _FAMILY_MAX_I.items():
                for i in range(max_i + 1):
                    _, scales, _ = _QUOTIENTS[family](*v, i)
                    plan = _quotient_plan.__wrapped__(_QUOTIENTS[family], i, v)
                    assert plan[:2] == PAPER_PREFACTORS[family](*v, i)
                    assert plan[2] and owed_shift(ctx, plan[1], scales) \
                        <= plan[1]
                    quotients += 1
    assert rows == len(CONTEXTS) * len(ORDERS) * len(_ROWS)
    assert quotients == len(CONTEXTS) * len(ORDERS) * sum(
        max_i + 1 for max_i in _FAMILY_MAX_I.values())


@pytest.mark.parametrize("ctx", CONTEXTS[::5], ids=repr)
def test_a_row_form_is_one_product_of_its_operand_tables(ctx, monkeypatch):
    products = []

    def product(*args, exact=bernoulli.product):
        products.append(args)
        return exact(*args)
    monkeypatch.setattr(bernoulli, "product", product)
    for n in (0, 1, 2, 5):
        for v in ORDERS:
            for row in _ROWS:
                const, scales, _, keys, _ = _row_keys(ctx, row, v)
                shift = owed_shift(ctx, len(scales), scales)
                exp = tuple(sorted(row_operands(_ROWS[row], ctx.d, v)[3]))
                length = max(n - shift, 0)
                tables = [factor_table(ctx, key, length) for key in keys]
                # a ratio key is stored as it is
                for key, table in zip(keys, tables):
                    if key[0] == "ratio":
                        assert table is ctx._factors[key]
                # built alone: the context's form store emptied first;
                # asked again, the form is read from the store
                ctx._forms.clear()
                products.clear()
                form = symmetry._row_form(row, ctx, v, n)
                assert len(products) == 1
                assert form == (exp, ((ctx.field.zero,) * shift + tuple(
                    cyclo.product(ctx.field, tables, length + 1, const)))[
                        :n + 1])
                assert symmetry._row_form(row, ctx, v, n) == form
                assert len(products) == 1
                assert "bern" not in {key[0] for key in keys}


def _census_tool(monkeypatch):
    # the tool puts src/ and perfbench/ on sys.path, for this test only
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = Path(__file__).resolve().parent.parent / "tools/operand_census.py"
    spec = importlib.util.spec_from_file_location("operand_census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_census_of_a_series_block_reads_operands_only(monkeypatch):
    # 360 of the 396 checks are invariance checks, and each compares one
    # order or one operand multiset; the 36 powersum_gf_checks differ
    tool = _census_tool(monkeypatch)
    _forbid(monkeypatch)
    assert list(tool.census("series", 1).values()) == [14, 346, 36]


def test_the_census_of_a_theorems_block_reads_operands_only(monkeypatch):
    # rows and quotients are read through one shape: 224 of the 1344
    # theorem checks have one order, and 280 one operand multiset
    tool = _census_tool(monkeypatch)
    _forbid(monkeypatch)
    assert list(tool.census("theorems", 1).values()) == [224, 280, 840]


def _tag_tables(monkeypatch):
    """Divide each table a form reads by a prime of its own key, so
    that two forms are equal only where their operand multisets are (or
    both are 0), not merely where a theorem makes their values equal.  The
    tables that table builders read, and those stored, are left as they
    are."""
    primes, depth = {}, [0]
    real = bernoulli.factor_table

    def prime(key):
        if key not in primes:
            p = max(primes.values(), default=1) + 1
            while any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
                p += 1
            primes[key] = p
        return primes[key]

    def tagged(ctx, key, upto):
        depth[0] += 1
        try:
            table = real(ctx, key, upto)
        finally:
            depth[0] -= 1
        if depth[0]:
            return table
        return cyclo.RowTable(table.field, table.rows,
                              table.den * prime(key),
                              table.length)
    monkeypatch.setattr(bernoulli, "factor_table", tagged)


def _grouped_orders_with_unequal_forms(plan, n=4):
    """(theorem, ctx, v, u) for each weight order v of a theorem check over
    the acceptance grid whose row form, built alone, differs from that of
    u, the first order of its group under plan.  Built alone: the
    context's form store is emptied before each form, so no form is read
    from an earlier one, of this pass or of an untagged one."""
    forms = {}

    def form(row, ctx, v):
        if (row, ctx, v) not in forms:
            ctx._forms.clear()
            forms[row, ctx, v] = _row_form(row, ctx, v, n)
        return forms[row, ctx, v]

    for ctx in CONTEXTS:
        for w in ROTATED_W:
            for theorem, (perms, row) in _THEOREM_PATTERNS.items():
                orders = distinct_orders(w, perms)
                for j, k in enumerate(plan(_ROWS[row], ctx.d, w, perms)):
                    if k != j and (form(row, ctx, orders[j])
                                   != form(row, ctx, orders[k])):
                        yield theorem, ctx, orders[j], orders[k]


def test_the_orders_of_one_plan_group_have_equal_forms(monkeypatch):
    _tag_tables(monkeypatch)
    def groups(entry, d, w, perms):
        return plan_groups(_check_plan(_row_plan, entry, d, w, perms), w,
                           perms)
    assert next(_grouped_orders_with_unequal_forms(groups), None) is None
    # theorem 3's printed variant is decided by its form: it has order 0's
    # scales, all nonzero, so its lift at n reads every F_j, j <= n
    row, variant = "bernoulli_shifted_bernoulli", \
        "bernoulli_shifted_bernoulli_printed"
    for ctx in CONTEXTS:
        for w in ROTATED_W:
            exp = row_operands(_ROWS[variant], ctx.d, (w[1], w[0], w[2]))[3]
            assert exp == row_operands(_ROWS[row], ctx.d, w)[3]
            assert exp and all(s for _, s in exp)


def test_a_plan_that_merges_every_order_fails_the_grid(monkeypatch):
    # the untagged forms of every order are equal wherever a theorem holds,
    # so only the tagged tables tell the orders' multisets apart
    def merged(entry, d, w, perms):
        return (0,) * len(distinct_orders(w, perms))
    assert next(_grouped_orders_with_unequal_forms(merged), None) is None
    _tag_tables(monkeypatch)
    assert next(_grouped_orders_with_unequal_forms(merged), None) is not None


def test_the_plan_reads_keys_as_factor_table_stores_them(monkeypatch):
    # a sum key has one spelling, ("sum", c, bound, sigma) with sigma an
    # int where it is integral; Fraction(2) hashes and compares as 2, so it
    # reads the same stored table, and a shorter sum key raises like any
    # other unknown key
    ctx = CONTEXTS[-1]
    d = ctx.d
    for key in (("sum", 2, d - 1, 2), ("sum", 2, d - 1, Fraction(2))):
        assert factor_table(ctx, key, 2) is ctx._factors["sum", 2, d - 1, 2]
    for key in (("sum", 2), ("sum", 2, d - 1)):
        with pytest.raises(ValueError, match="unknown factor table key"):
            factor_table(ctx, key, 2)
    for key in (("sum", 2, d, 2), ("sum", 2, d - 1, 3), ("ratio", 3),
                ("units", (1, 2))):
        assert factor_table(ctx, key, 2) is ctx._factors[key]
    # theorem 5's row spells a shift key ("sum", w1*w3, d*w2 - 1, w1*w3)
    # that its power sum at the order with w2, w3 interchanged spells
    # alike: one table, so one group, each plan derived afresh; with the
    # power sums spelled ("sum", c, bound), a second spelling of one
    # table, every order is its own group
    entry = _ROWS["shifted_bernoulli_powersum"]
    monkeypatch.setattr(symmetry, "_row_plan", symmetry._row_plan.__wrapped__)

    def groups():
        return plan_groups(_check_plan.__wrapped__(
            symmetry._row_plan, entry, d, (1, 2, 3), _PERM6), (1, 2, 3),
            _PERM6)
    assert groups() == (0, 0, 2, 2, 4, 4)
    one_spelling = symmetry._row_plan

    def short_power_sums(entry, d, w):
        const, t_power, keys, exp = one_spelling(entry, d, w)
        power_sums = {sum_key(c, bound, c)
                      for kind, c, bound, *_ in entry(*w, d)[1] if kind == "S"}
        return const, t_power, tuple(key[:3] if key in power_sums else key
                                     for key in keys), exp
    monkeypatch.setattr(symmetry, "_row_plan", short_power_sums)
    assert groups() == (0, 1, 2, 3, 4, 5)


#: w in {1, 2, 3}^3 and the acceptance triples with their rotations
QUOTIENT_W = tuple(dict.fromkeys(
    [(a, b, c) for a in (1, 2, 3) for b in (1, 2, 3) for c in (1, 2, 3)]
    + list(ROTATED_W)))


def test_every_order_of_a_quotient_is_one_plan_group_of_equal_forms(
        monkeypatch):
    # a _QUOTIENTS row has one operand multiset under every weight order,
    # so the plan has one group; each order's form, built alone from tagged
    # tables, equals that group's form, so one product decides the check
    _tag_tables(monkeypatch)
    forms = {}

    def form(family, i, ctx, v):
        if (family, i, ctx, v) not in forms:
            ctx._forms.clear()      # built alone, as above
            forms[family, i, ctx, v] = _quotient_form(
                QuotientSpec(family, i, v, ctx), 4)
        return forms[family, i, ctx, v]

    checks = 0
    for family, max_i in _FAMILY_MAX_I.items():
        for i in range(max_i + 1):
            entry = _QUOTIENTS[family]
            for w in QUOTIENT_W:
                orders = distinct_orders(w, _PERM6)
                plan = plan_groups(_check_plan(_quotient_plan, entry, i, w,
                                               _PERM6), w, _PERM6)
                assert plan == (0,) * len(orders)
                for ctx in CONTEXTS:
                    for v, k in zip(orders, plan):
                        assert form(family, i, ctx, v) == form(
                            family, i, ctx, orders[k]), (family, i, ctx, v)
                        checks += 1
    assert checks == len(CONTEXTS) * sum(
        max_i + 1 for max_i in _FAMILY_MAX_I.values()) * sum(
        len(distinct_orders(w, _PERM6)) for w in QUOTIENT_W)
