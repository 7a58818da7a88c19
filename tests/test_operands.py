"""Operands as data: each row and quotient states what it multiplies before
it multiplies.

``symmetry.row_operands`` gives a row's (const, scales, keys) and
``bernoulli.quotient_operands`` a quotient's (shift, keys), each key one
of ``factor_table``'s.  Both read the ``_ROWS`` pieces, the ``_QUOTIENTS``
units and scales and the roots' exponents only: with every product, table
builder, power sum and element operation replaced by one that raises, the
operands of every row and every quotient family are still built at every
weight order of the acceptance grid's points.  A row form is one
``cyclo.product`` of the tables of its keys, the seeds included, which
``factor_table`` serves under ("bern", c).  ``tools/operand_census.py``
counts, from operands alone, what the checks of a benchmark block compare.
"""

import importlib.util
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
              (symmetry, "product"), (cyclo, "_row_times"),
              (cyclo, "dot"), (bernoulli, "dot"),
              (bernoulli, "_apostol_table"),
              (bernoulli, "factor_table"), (symmetry, "factor_table"),
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


def test_operands_reach_no_arithmetic(monkeypatch):
    _forbid(monkeypatch)
    rows = quotients = 0
    for ctx in CONTEXTS:
        for v in ORDERS:
            for row in _ROWS:
                const, scales, keys = row_operands(row, ctx.d, v)
                assert keys and all(key[0] in ("bern", "sum") for key in keys)
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
def test_a_row_form_is_one_product_of_its_operand_tables(ctx):
    n = 5
    for v in ORDERS:
        for row in _ROWS:
            const, scales, keys = row_operands(row, ctx.d, v)
            tables = [factor_table(ctx, key, n) for key in keys]
            for key, table in zip(keys, tables):
                if key[0] == "bern":
                    assert table is ctx._bpoly_cache[key[1]]
            assert symmetry._row_form(row, ctx, v, n) == (scales, tuple(
                cyclo.product(ctx.field, tables, n + 1, const)))


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
