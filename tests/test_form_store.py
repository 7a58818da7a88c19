"""The form store: each context keeps the forms ``bernoulli.keyed_quotient``
has evaluated, one entry per plan, at the longest t^n asked.

The paper's identities are identities of whole series, and truncation
commutes with the product, so a form evaluated to t^n holds its value at
every n' <= n: a plan stored at length >= n' + 1 is served by the slice
[:n'+1], and a plan missing or stored shorter is evaluated and replaces
its entry.  These tests hold every served form on the acceptance grid,
the Bernoulli GF's and ``powersum_gf_check``'s side A's among them, to a
fresh context's evaluation, check that n < 0 and a t-power that does not
divide raise at every n and store nothing, that the store lives on its
context (a context of other values, made where a dead one was, reads its
own forms), and that a reduction check multiplies each distinct plan
once.
"""

import gc

import pytest

from twistbern import bernoulli
from twistbern.bernoulli import (TwistContext, bernoulli_gf, keyed_quotient,
                                 quotient_plan)
from twistbern.characters import enumerate_characters
from twistbern.symmetry import (_FAMILY_MAX_I, _PERM6, _QUOTIENTS,
                                _REDUCTIONS, _ROWS, _quotient_plan,
                                _row_plan, permutation_reduction_check)

from symmetry_helpers import distinct_orders

#: the acceptance grid's weight triples
THEOREM_W = ((1, 1, 1), (1, 2, 3), (2, 3, 5))
N = 4
#: the Bernoulli GF's plan, the p-adic integral t I_1 of scale 1
GF = quotient_plan((), (1,))


def _side_a(w: int) -> tuple:
    """powersum_gf_check's side A at w: the unit of w over wt times the
    integral of scale 1, times w."""
    return quotient_plan((w,), (1,), const=w)


def _contexts():
    """Fresh contexts of the acceptance grid, none with a stored form."""
    return [TwistContext.from_orders(d, char, order) for d in (1, 3, 4, 5)
            for char in range(len(enumerate_characters(d)))
            for order in (1, 2, 3, 4)]


def _plans(d: int) -> list:
    """The distinct plans of every _ROWS entry and every _QUOTIENTS family
    and index at each weight order of the acceptance triples, modulus d,
    then the Bernoulli GF's and side A's at w = 1, 2, 3."""
    plans = {}
    for w in THEOREM_W:
        for v in distinct_orders(w, _PERM6):
            for entry in _ROWS.values():
                plans[_row_plan(entry, d, v)] = None
            for family, max_i in _FAMILY_MAX_I.items():
                for i in range(max_i + 1):
                    plans[_quotient_plan(_QUOTIENTS[family], i, v)] = None
    for plan in (GF, _side_a(1), _side_a(2), _side_a(3)):
        plans[plan] = None
    return list(plans)


def test_a_served_form_equals_a_fresh_evaluation_at_every_lower_n(
        monkeypatch):
    products = []
    real = bernoulli.product
    monkeypatch.setattr(bernoulli, "product",
                        lambda *args: products.append(args) or real(*args))
    checked = 0
    for ctx in _contexts():
        plans = _plans(ctx.d)
        products.clear()
        for plan in plans:
            keyed_quotient(ctx, plan, N)
        # one evaluation and one entry per plan, each to t^N
        assert len(products) == len(plans) and list(ctx._forms) == plans
        products.clear()
        served = {(plan, n): keyed_quotient(ctx, plan, n)
                  for n in range(N, -1, -1) for plan in plans}
        gf = [bernoulli_gf(ctx, n) for n in range(N + 1)]
        # served by slices: nothing evaluated, no entry shortened
        assert products == []
        assert all(len(F) == N + 1 for F in ctx._forms.values())
        for n in range(N + 1):
            # a fresh context per n evaluates each plan once, at n
            fresh = TwistContext(ctx.chi, ctx.xi)
            for plan in plans:
                assert served[plan, n] == keyed_quotient(fresh, plan, n), (
                    ctx, plan, n)
                checked += 1
            assert gf[n] == served[GF, n]
            assert list(fresh._forms) == plans
            assert all(len(F) == n + 1 for F in fresh._forms.values())
    assert checked >= 36 * 54 * (N + 1)


def test_a_longer_request_replaces_the_one_entry_of_its_plan():
    ctx = TwistContext.from_orders(3, 1, 4)
    plan = _row_plan(_ROWS["bernoulli_shifted_bernoulli"], ctx.d, (1, 2, 3))
    for n, stored in ((2, 3), (1, 3), (5, 6), (3, 6), (5, 6), (6, 7)):
        F = keyed_quotient(ctx, plan, n)
        assert len(F) == n + 1 and list(ctx._forms) == [plan]
        assert len(ctx._forms[plan]) == stored
        assert F == ctx._forms[plan][:n + 1]


def test_what_raises_raises_at_every_n_and_stores_nothing():
    # every unit vanishes at t = 0 at d = 1, xi = 1: a plan written by
    # hand with no t power over a unit and two scales owes a t that does
    # not divide, at every n
    ctx = TwistContext.from_orders(1, 0, 1)
    owing = (1, 0, (("units", (1,)), ("ratio", 1), ("ratio", 2)), ())
    for n in range(6):
        with pytest.raises(ValueError, match="not divisible"):
            keyed_quotient(ctx, owing, n)
    assert ctx._forms == {}
    stored = {plan: keyed_quotient(ctx, plan, 4)
              for plan in (GF, _side_a(2))}
    for n in (-1, -3):
        for plan in (GF, owing, _side_a(2)):
            with pytest.raises(ValueError, match="truncation must be >= 0"):
                keyed_quotient(ctx, plan, n)
        with pytest.raises(ValueError, match="truncation must be >= 0"):
            bernoulli_gf(ctx, n)
    assert ctx._forms == stored
    # a context with xi^d != 1, whose GF holds no t to cancel
    ctx = TwistContext.from_orders(3, 1, 1)
    for n in (-1, -3):
        with pytest.raises(ValueError, match="truncation must be >= 0"):
            bernoulli_gf(ctx, n)
    assert ctx._forms == {}


def test_the_store_lives_and_dies_with_its_context():
    # only its context holds the store, and a context of other values
    # made after one dies, at what may be the same address, reads its own
    # forms, never the dead one's
    for k in range(12):
        ctx = TwistContext.from_orders(3, 1, (3, 4, 6)[k % 3])
        assert ctx._forms == {}
        form = keyed_quotient(ctx, GF, 5)
        assert form == keyed_quotient(TwistContext(ctx.chi, ctx.xi), GF, 5)
        assert gc.get_referrers(ctx._forms) == [ctx]
        del ctx


def test_a_reduction_check_multiplies_each_distinct_plan_once(monkeypatch):
    # every left-hand row plans equal to its partner on the grid, so the
    # check's products are its partners' distinct plans, compared in its
    # report and kept out of its JSON
    products = []
    real = bernoulli.product
    monkeypatch.setattr(bernoulli, "product",
                        lambda *args: products.append(args) or real(*args))
    for ctx in _contexts():
        for w in THEOREM_W:
            for group, (partner, pairs) in _REDUCTIONS.items():
                plans = {_row_plan(_ROWS[partner], ctx.d,
                                   (w[a], w[b], w[c]))
                         for _, (a, b, c) in pairs}
                assert plans >= {_row_plan(_ROWS[row], ctx.d, w)
                                 for row, _ in pairs}
                ctx._forms.clear()
                products.clear()
                report = permutation_reduction_check(group, ctx, w, N)
                assert report.passed
                assert len(products) == report.compared == len(plans)
                assert "compared" not in report.to_json_dict()
