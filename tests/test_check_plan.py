"""Check plans: the memoised operands a theorem or invariance check runs.

A form's plan is its operands as a sorted multiset (``bernoulli.
quotient_plan``): a row's from ``symmetry._row_plan``, its sum keys
already as ``factor_table`` stores them, and a quotient's from
``symmetry._quotient_plan``, both evaluated by ``symmetry._form``
(``bernoulli.keyed_quotient``).  ``symmetry._check_plan`` groups a
check's weight orders by plan, memoised per (planner, entry object, d or
i, w, perms), so no operand is derived and no key normalised per call.
These tests hold the planned forms to an oracle that shares no plan and
no evaluator with them: each order's own operand list, in the order the
entry writes it, through ``factor_table``, one ``cyclo.product`` and a
t-shift applied by hand (``symmetry_helpers.keys_by_hand``), at the
prefactor and power of t the paper displays (a row's transcribed constant
times its scales, a quotient's ``symmetry_helpers.PAPER_PREFACTORS``).
They also check that no plan number is an integral Fraction, that a
replaced entry is planned afresh, that reports share no mutable params,
and that ``compared`` states how many forms a check built.
"""

import itertools
import json
import math
from fractions import Fraction

from twistbern import symmetry
from twistbern.bernoulli import TwistContext
from twistbern.characters import enumerate_characters
from twistbern.symmetry import (_FAMILY_MAX_I, _PERM6, _QUOTIENTS, _ROWS,
                                _THEOREM_PATTERNS, QuotientSpec, _check_plan,
                                _quotient_form, _quotient_plan, _row_form,
                                _row_plan, permutation_invariance_check,
                                row_operands, verify_theorem)

from symmetry_helpers import (PAPER_PREFACTORS, distinct_orders,
                              keys_by_hand, plan_groups, sum_key)

#: the acceptance grid's contexts
CONTEXTS = [TwistContext.from_orders(d, char, order) for d in (1, 3, 4, 5)
            for char in range(len(enumerate_characters(d)))
            for order in (1, 2, 3, 4)]
#: the acceptance triples and their rotations
ROTATED_W = tuple(dict.fromkeys(w[k:] + w[:k]
                                for w in ((1, 1, 1), (1, 2, 3), (2, 3, 5))
                                for k in range(3)))
N_MAX = 6


def _row_oracle(entry, ctx, v, n):
    # the row form from its own operands: a ratio key per B piece, then a
    # sum key per sum the pieces list, spelled by sum_key, the transcribed
    # const times c per B piece, and the exp pairs in slot order
    const, scales, sums, exp = row_operands(entry, ctx.d, v)
    keys = [("ratio", c) for c in scales] + [sum_key(*s) for s in sums]
    return tuple(sorted(exp)), keys_by_hand(ctx, keys, len(scales), scales,
                                            n, const * math.prod(scales))


def _quotient_oracle(family, i, ctx, v, n):
    # the quotient form from its own units and scales, as the entry lists
    # them, at the paper's prefactor and power of t
    units, scales, exp = _QUOTIENTS[family](*v, i)
    prefactor, t_power = PAPER_PREFACTORS[family](*v, i)
    keys = [("units", units)] if units else []
    keys += [("ratio", c) for c in scales]
    return tuple(sorted(exp)), keys_by_hand(ctx, keys, t_power, scales, n,
                                            prefactor)


def _prefix(form, n):
    # a form to t^n is the form to a higher power cut to t^n: each
    # coefficient of a product reads only the factors' lower ones
    scales, q = form
    return scales, q[:n + 1]


def test_every_planned_row_form_equals_its_own_operands_quotient():
    # every _ROWS entry, the printed, swap and cycle variants among them,
    # over all six orders of each weight triple: the form of each order's
    # plan, built by the plan at each n, is the quotient of that order's
    # own operands
    checked = 0
    for ctx in CONTEXTS:
        for row, entry in _ROWS.items():
            for w in ROTATED_W:
                orders = distinct_orders(w, _PERM6)
                groups = plan_groups(
                    _check_plan(_row_plan, entry, ctx.d, w, _PERM6), w, _PERM6)
                oracles = [_row_oracle(entry, ctx, v, N_MAX) for v in orders]
                for n in range(N_MAX + 1):
                    planned = {k: _row_form(row, ctx, orders[k], n)
                               for k in set(groups)}
                    for v, k, oracle in zip(orders, groups, oracles):
                        assert planned[k] == _prefix(oracle, n), (
                            row, ctx, v, n)
                        checked += 1
    assert checked == len(CONTEXTS) * len(_ROWS) * (N_MAX + 1) * 37


def test_every_planned_quotient_form_equals_its_own_operands_quotient():
    checked = 0
    for ctx in CONTEXTS:
        for family, max_i in _FAMILY_MAX_I.items():
            entry = _QUOTIENTS[family]
            for i in range(max_i + 1):
                for w in ROTATED_W:
                    orders = distinct_orders(w, _PERM6)
                    groups = plan_groups(_check_plan(
                        _quotient_plan, entry, i, w, _PERM6), w, _PERM6)
                    oracles = [_quotient_oracle(family, i, ctx, v, N_MAX)
                               for v in orders]
                    for n in range(N_MAX + 1):
                        planned = {k: _quotient_form(QuotientSpec(
                            family, i, orders[k], ctx), n)
                            for k in set(groups)}
                        for v, k, oracle in zip(orders, groups, oracles):
                            assert planned[k] == _prefix(oracle, n), (
                                family, i, ctx, v, n)
                            checked += 1
    assert checked == len(CONTEXTS) * 10 * (N_MAX + 1) * 37


def test_derived_quotient_numbers_are_the_papers_prefactors():
    # quotient_plan derives each quotient's constant prod(scales) /
    # prod(units) and power #scales - #units; at every family and index
    # and every w in {1..7}^3 they are the paper's, as numbers and through
    # the forms: at (1, 0, 1) every scale's unit vanishes, at (3, 1, 4)
    # those of 4 | c, and t^t_power alone is not the form
    contexts = [TwistContext.from_orders(1, 0, 1),
                TwistContext.from_orders(3, 1, 4)]
    checked = 0
    for w in itertools.product(range(1, 8), repeat=3):
        for family, max_i in _FAMILY_MAX_I.items():
            for i in range(max_i + 1):
                plan = _quotient_plan(_QUOTIENTS[family], i, w)
                prefactor, t_power = PAPER_PREFACTORS[family](*w, i)
                assert plan[:2] == (prefactor, t_power), (family, i, w)
                scales = [key[1] for key in plan[2] if key[0] == "ratio"]
                for ctx in contexts:
                    assert symmetry.keyed_quotient(ctx, plan, 1) == \
                        keys_by_hand(ctx, plan[2], t_power, scales, 1,
                                     prefactor), (family, i, w, ctx)
                checked += 1
    assert checked == 7**3 * 10


def _integral_fraction(x) -> bool:
    return type(x) is Fraction and x.denominator == 1


def test_every_plan_key_is_stored_form():
    # factor_table reads a key by one lookup, as given: every planned sum
    # key is in the one spelling, (c, bound, sigma) with sigma an int
    # where it is integral; and every plan's constant is an int where it
    # is integral, so no plan hashes a Fraction where an int would do.
    # The orders of the acceptance triples and all of {1..4}^3 meet
    # constants of both kinds
    orders = dict.fromkeys(
        v for w in ROTATED_W + tuple(itertools.product(range(1, 5), repeat=3))
        for v in distinct_orders(w, _PERM6))
    kinds = set()
    for d in (1, 3, 4, 5):
        for v in orders:
            for entry in _ROWS.values():
                const, _, keys, _ = _row_plan(entry, d, v)
                scales = sorted(row_operands(entry, d, v)[1])
                assert keys[:len(scales)] == tuple(
                    ("ratio", c) for c in scales)
                assert all(len(key) == 4 and not _integral_fraction(key[3])
                           for key in keys[len(scales):])
                assert not _integral_fraction(const), (d, v, const)
                kinds.add(type(const))
            for family, max_i in _FAMILY_MAX_I.items():
                for i in range(max_i + 1):
                    const = _quotient_plan(_QUOTIENTS[family], i, v)[0]
                    assert not _integral_fraction(const), (family, i, v)
                    kinds.add(type(const))
    assert kinds == {int, Fraction}


def test_a_replaced_row_entry_is_planned_afresh(monkeypatch):
    # warm both memos with the real entry; a plan memoised by row name would
    # serve the real row's forms to the replacement and pass
    ctx, w = CONTEXTS[-1], (1, 2, 3)
    for tid in (1, 2):
        assert verify_theorem(tid, ctx, w, 3).passed
    rows = dict(_ROWS)
    monkeypatch.setattr(symmetry, "_ROWS", rows)
    real = rows["triple_bernoulli"]
    # the constant times w1: no longer symmetric
    rows["triple_bernoulli"] = lambda w1, w2, w3, d: (
        real(w1, w2, w3, d)[0] * w1, real(w1, w2, w3, d)[1])
    rep = verify_theorem(1, ctx, w, 3)
    assert not rep.passed and rep.compared == 3
    assert rep.detail.startswith("w-order (2, 1, 3) differs from w-order "
                                 "(1, 2, 3) at ")
    # a replaced entry with the real operands is one group again
    rows["triple_bernoulli"] = lambda *args: real(*args)
    rep = verify_theorem(1, ctx, w, 3)
    assert rep.passed and rep.compared == 1
    monkeypatch.undo()
    assert verify_theorem(1, ctx, w, 3).passed


def test_reports_of_one_context_share_no_params():
    ctx = CONTEXTS[-1]
    one = verify_theorem(1, ctx, (1, 2, 3), 2)
    other = verify_theorem(2, ctx, (1, 2, 3), 2)
    spec = QuotientSpec("single", 1, (1, 2, 3), ctx)
    check = permutation_invariance_check(spec, 2)
    before = json.dumps([other.params, check.params, ctx.params()])
    one.params["chi_exponents"].append(99)
    one.params["xi"]["coeffs"].append("99")
    one.params["xi"]["L"] = 0
    assert json.dumps([other.params, check.params, ctx.params()]) == before
    assert one.params["chi_exponents"][-1] == 99


def test_compared_counts_the_forms_a_check_built(monkeypatch):
    built = []
    real_form = symmetry._form
    monkeypatch.setattr(symmetry, "_form",
                        lambda *args: built.append(args) or real_form(*args))
    ctx = CONTEXTS[-1]
    for tid in _THEOREM_PATTERNS:
        for w in ROTATED_W:
            built.clear()
            rep = verify_theorem(tid, ctx, w, 3)
            # theorem 3's printed variant is a note, not a compared form
            assert rep.compared == len(built) - (tid == 3), (tid, w)
            assert "compared" not in rep.to_json_dict()
    # theorem 1's six orders are one multiset, theorem 2's three
    assert verify_theorem(1, ctx, (1, 2, 3), 3).compared == 1
    assert verify_theorem(2, ctx, (1, 2, 3), 3).compared == 3
    for family, max_i in _FAMILY_MAX_I.items():
        for i in range(max_i + 1):
            built.clear()
            rep = permutation_invariance_check(
                QuotientSpec(family, i, (2, 3, 5), ctx), 3)
            assert rep.passed and rep.compared == len(built) == 1
            assert "compared" not in rep.to_json_dict()
