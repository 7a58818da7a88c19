"""Operands as data: each row and quotient states what it multiplies before
it multiplies.

``bernoulli.quotient_operands`` gives the (shift, keys) of every form, each
key one of ``factor_table``'s: of a quotient from its ``_QUOTIENTS`` units
and scales, and of a row from ``symmetry.row_operands``' (const, scales,
sums, exp), the row as a quotient with no units.  A B piece of twist
exponent c is an integral scale, ("ratio", c), with c in the const; its
shift entries and the S pieces are ("sum", ...) keys, after the ratio keys.
Both read the ``_ROWS`` pieces, the ``_QUOTIENTS`` units and scales and the
roots' exponents only: with every product, table builder, power sum and
element operation replaced by one that raises, the operands of every row
and every quotient family are still built at every weight order of the
acceptance grid's points.  A row form is one ``cyclo.product`` of the
tables of its keys, sliced on by t^shift, as a quotient form is.
``tools/operand_census.py`` counts, from operands alone, what the checks
of a benchmark block compare.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from twistbern import bernoulli, cyclo, symmetry
from twistbern.bernoulli import TwistContext, factor_table, quotient_operands
from twistbern.characters import enumerate_characters
from twistbern.cyclo import CycloNumber
from twistbern.symmetry import (_FAMILY_MAX_I, _PERM6, _QUOTIENTS, _ROWS,
                                _distinct_orders, row_operands)

CONTEXTS = [TwistContext.from_orders(d, char, order) for d in (1, 3, 4, 5)
            for char in range(len(enumerate_characters(d)))
            for order in (1, 2, 3, 4)]
THEOREM_W = ((1, 1, 1), (1, 2, 3), (2, 3, 5))
ORDERS = [v for w in THEOREM_W for v in _distinct_orders(w, _PERM6)]

#: everything that multiplies, builds a table or adds elements
ARITHMETIC = [(cyclo, "product"), (bernoulli, "product"),
              (cyclo, "_row_times"), (cyclo, "dot"), (bernoulli, "dot"),
              (bernoulli, "_apostol_table"), (bernoulli, "factor_table"),
              (bernoulli, "factor_quotient"), (symmetry, "factor_quotient"),
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
    """(const, scales, shift, keys, pieces) of a row, its operands derived
    afresh and checked against the memoized ones."""
    entry = _ROWS[row]
    operands = row_operands.__wrapped__(entry, ctx.d, v)
    assert row_operands(entry, ctx.d, v) == operands
    const, scales, sums, _ = operands
    shift, keys = quotient_operands(ctx, len(scales), (), scales, sums)
    return const, scales, shift, keys, entry(*v, ctx.d)


def test_operands_reach_no_arithmetic(monkeypatch):
    _forbid(monkeypatch)
    rows = quotients = 0
    for ctx in CONTEXTS:
        for v in ORDERS:
            for row in _ROWS:
                const, scales, shift, keys, (const0, pieces) = _row_keys(
                    ctx, row, v)
                # each B piece is ("ratio", c) with c in the const; then the
                # sum keys, and no other kind
                bs = tuple(desc[1] for desc in pieces if desc[0] == "B")
                assert scales == bs and const == const0 * math.prod(bs)
                kinds = [key[0] for key in keys]
                assert keys[:len(bs)] == [("ratio", c) for c in bs]
                assert kinds == ["ratio"] * len(bs) + ["sum"] * (
                    len(keys) - len(bs)) and keys
                assert 0 <= shift <= len(bs)
                rows += 1
            for family, max_i in _FAMILY_MAX_I.items():
                for i in range(max_i + 1):
                    _, t_power, units, scales, _, _ = _QUOTIENTS[family](
                        *v, i)
                    shift, keys = quotient_operands(ctx, t_power, units,
                                                    scales)
                    assert shift <= t_power and keys
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
                const, scales, shift, keys, _ = _row_keys(ctx, row, v)
                exp = dict(row_operands(_ROWS[row], ctx.d, v)[3])
                length = max(n - shift, 0)
                tables = [factor_table(ctx, key, length) for key in keys]
                # a ratio key is stored as it is
                for key, table in zip(keys, tables):
                    if key[0] == "ratio":
                        assert table is ctx._factors[key]
                products.clear()
                form = symmetry._row_form(row, ctx, v, n)
                assert len(products) == 1
                assert form == (exp, ((ctx.field.zero,) * shift + tuple(
                    cyclo.product(ctx.field, tables, length + 1, const)))[
                        :n + 1])
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
