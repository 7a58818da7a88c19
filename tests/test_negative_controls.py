"""Negative controls for the theorem verdicts over the acceptance grid.

Every theorem check of criterion 6 whose report compares two or more forms
(``compared`` >= 2) is run twice more, each time with one input made wrong,
on a fresh context so that no stored table or form is reused:

* one coefficient of a factor table that some of the check's plans read
  and some do not is perturbed, by a ``factor_table`` wrapper;
* one theorem order (a, b, c), the pattern's last, is replaced by
  (a, a, c), at weights with distinct entries.

A check with ``compared`` = 1 builds one form and compares it with nothing,
so neither control can fail it; those are left out.  A perturbation can
fail a check only where it reaches the forms' coefficients to t^n, and a
wrong order only where its row gives another expression at n than order
0's; the checks where neither holds (forms that vanish to t^n, and
expressions at n that do not depend on the weights) are counted, not
asserted.
"""

from twistbern import bernoulli, symmetry
from twistbern.bernoulli import TwistContext
from twistbern.characters import enumerate_characters
from twistbern.cyclo import _rows
from twistbern.sympoly import lift

from test_acceptance import D_GRID, THEOREM_W, XI_ORDERS


def _points():
    for d in D_GRID:
        for idx, chi in enumerate(enumerate_characters(d)):
            if chi.is_primitive:
                for r in XI_ORDERS:
                    yield d, idx, r


def _compared_checks():
    # (point, exact context, theorem, w, n) of the checks that pass with
    # compared >= 2
    for point in _points():
        ctx = TwistContext.from_orders(*point)
        for w in THEOREM_W:
            for tid in symmetry.THEOREM_IDS:
                for n in range(7):
                    report = symmetry.verify_theorem(tid, ctx, w, n)
                    assert report.passed
                    if report.compared >= 2:
                        yield point, ctx, tid, w, n


def _plans(tid, d, w):
    perms, row = symmetry._THEOREM_PATTERNS[tid]
    return symmetry._check_plan(symmetry._row_plan, symmetry._ROWS[row], d,
                                tuple(w), perms).plans


def _valuation(table) -> int:
    # the index of a table's first nonzero coefficient
    return next((k for k, x in enumerate(table.elements()) if not x.is_zero()),
                len(table))


def _showing_perturbation(ctx, plans, n):
    """(key, j) such that adding 1 to the t^j coefficient of the key's
    table changes the t^n coefficient of a plan's form, or None.  The key
    is read once by that plan and not by every plan.  The change is const
    t^(shift + j) times the product of the plan's other tables, shift its
    power of t less one per ratio key whose unit is 1, so it first shows
    at t^n where j is n less shift and those tables' valuations."""
    keys = [set(plan[2]) for plan in plans]
    partial = set().union(*keys) - set.intersection(*keys)
    for _, t_power, plan_keys, _ in plans:
        shift = t_power - sum(key[0] == "ratio"
                              and bernoulli._unit_root(ctx, key[1]) == 0
                              for key in plan_keys)
        for i, key in enumerate(plan_keys):
            if key in partial and plan_keys.count(key) == 1:
                j = n - shift - sum(
                    _valuation(bernoulli.factor_table(ctx, other, n))
                    for other in plan_keys[:i] + plan_keys[i + 1:])
                if j >= 0:
                    return key, j
    return None


def test_a_perturbed_table_coefficient_fails_the_theorem(monkeypatch):
    exact = bernoulli.factor_table
    failed = unreachable = 0
    for point, ctx, tid, w, n in _compared_checks():
        target = _showing_perturbation(ctx, _plans(tid, ctx.d, w), n)
        if target is None:
            unreachable += 1
            continue
        key, j = target
        fresh = TwistContext.from_orders(*point)

        def perturbed(c, k, upto):
            table = exact(c, k, upto)
            if c is not fresh or k != key:
                return table
            coeffs = list(table.elements())
            coeffs[j] = coeffs[j] + 1
            return _rows(c.field, coeffs, len(coeffs))

        monkeypatch.setattr(bernoulli, "factor_table", perturbed)
        wrong = symmetry.verify_theorem(tid, fresh, w, n)
        monkeypatch.setattr(bernoulli, "factor_table", exact)
        assert not wrong.passed, (tid, point, w, n, key, j)
        failed += 1
    assert failed and unreachable < failed


def test_a_repeated_weight_order_fails_the_theorem(monkeypatch):
    failed = same = 0
    for point, ctx, tid, w, n in _compared_checks():
        assert len(set(w)) == 3
        perms, row = symmetry._THEOREM_PATTERNS[tid]
        a, _, c = perms[-1]
        order0 = tuple(w[i] for i in perms[0])
        # the wrong order's expression, evaluated alone, against order 0's
        differs = (lift(*symmetry._row_form(row, ctx, (w[a], w[a], w[c]), n),
                        n, 1)
                   != lift(*symmetry._row_form(row, ctx, order0, n), n, 1))
        monkeypatch.setitem(symmetry._THEOREM_PATTERNS, tid,
                            (perms[:-1] + ((a, a, c),), row))
        wrong = symmetry.verify_theorem(tid, TwistContext.from_orders(*point),
                                        w, n)
        monkeypatch.setitem(symmetry._THEOREM_PATTERNS, tid, (perms, row))
        assert wrong.passed is not differs, (tid, point, w, n)
        failed += differs
        same += not differs
    assert failed and same < failed
