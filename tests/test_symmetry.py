import operator
from fractions import Fraction

import pytest

from twistbern import symmetry
from twistbern.bernoulli import (TwistContext, bernoulli_numbers,
                                 powersum_gf_check)
from twistbern.series import PowerSeries
from twistbern.symmetry import (_FAMILY_MAX_I, EXPANSION_FORMS, QuotientSpec,
                                expansion_coefficient,
                                expansion_consistency_check,
                                permutation_invariance_check,
                                permutation_reduction_check, quotient_series,
                                substitution_check, verify_theorem)
from twistbern.sympoly import SymPoly, monomial

CLASSICAL = TwistContext.from_orders(1, 0, 1, 1)
TWISTED4 = TwistContext.from_orders(4, 1, 4, 1)    # d=4 nonprincipal, xi=zeta_4
TWISTED3 = TwistContext.from_orders(3, 1, 3, 1)    # d=3 primitive, xi=zeta_3


def _exp_scaled(entry, wrong):
    """The _QUOTIENTS entry with each exp scale s replaced by
    wrong(s, w1)."""
    def scaled(w1, w2, w3, i):
        units, scales, exp = entry(w1, w2, w3, i)
        return units, scales, tuple((y, wrong(s, w1)) for y, s in exp)
    return scaled


_QUOTIENT_PLAN = symmetry._quotient_plan


def _misplanned(entry, field, wrong):
    """symmetry._quotient_plan with the number plan[field] (0 the derived
    constant, 1 the derived power of t) of entry's plan at w replaced by
    wrong(it, w1); the plans of every other entry as they are."""
    def planner(at, i, w):
        plan = list(_QUOTIENT_PLAN(at, i, w))
        if at is entry:
            plan[field] = wrong(plan[field], w[0])
        return tuple(plan)
    return planner


def test_quotient_series_degenerate_unit():
    spec = QuotientSpec("pairwise", 3, (1, 1, 1), CLASSICAL)
    s = quotient_series(spec, 5)
    assert s.coeffs[0] == SymPoly.one(CLASSICAL.field)
    assert all(c.is_zero() for c in s.coeffs[1:])


def test_quotient_series_cyclic_unit_weights():
    # with unit weights the cyclic product is (t/(e^t - 1))^3 e^{3yt}
    spec = QuotientSpec("cyclic", 0, (1, 1, 1), CLASSICAL)
    got = quotient_series(spec, 6)
    f = CLASSICAL.field
    unit = PowerSeries.exp_scaled(f.one, 8) - PowerSeries([f.one] + [f.zero] * 8)
    bgf = PowerSeries(unit.coeffs[1:]).invert()   # t/(e^t - 1)
    cube = bgf * bgf * bgf
    y = SymPoly.variable("y", f)
    expected = cube * PowerSeries.exp_scaled(y * 3, 8)
    assert got.coeffs == expected.coeffs[:7]


def _symbolic_route(spec, series):
    """q(t) * e^{c*(sum of the live y)*t} built with exp_scaled and SymPoly
    products, with q(t) read off the constant terms of the series."""
    w1, w2, w3 = spec.w
    if spec.family in ("pairwise", "single"):
        names, scale = ("y1", "y2", "y3")[:3 - spec.i], w1 * w2 * w3
    elif spec.i == 0:
        names, scale = ("y",), w2 * w3 + w1 * w3 + w1 * w2
    else:
        names, scale = (), 0
    f = spec.context.field
    q = PowerSeries([SymPoly.constant(c.constant_part())
                     for c in series.coeffs])
    lin = SymPoly.zero(f)
    for name in names:
        lin = lin + SymPoly.variable(name, f) * scale
    return q * PowerSeries.exp_scaled(lin, series.truncation)


# every, some, and none of the denominator factors xi^(d*c) e^(d*c*t) - 1
# have a vanishing constant term at w = (1, 2, 3)
_VANISH_CONTEXTS = (CLASSICAL, TwistContext.from_orders(3, 1, 2, 1),
                    TwistContext.from_orders(1, 0, 4, 1))


def test_closed_form_matches_symbolic_exponential_route():
    for ctx in _VANISH_CONTEXTS:
        for family, max_i in _FAMILY_MAX_I.items():
            for i in range(max_i + 1):
                spec = QuotientSpec(family, i, (1, 2, 3), ctx)
                for truncation in range(9):
                    got = quotient_series(spec, truncation)
                    assert got.truncation == truncation
                    assert got == _symbolic_route(spec, got), \
                        (ctx, family, i, truncation)


def test_negative_truncation_is_rejected():
    spec = QuotientSpec("pairwise", 0, (1, 2, 3), CLASSICAL)
    for call in (lambda: quotient_series(spec, -1),
                 lambda: permutation_invariance_check(spec, -1),
                 lambda: powersum_gf_check(CLASSICAL, 2, -1)):
        with pytest.raises(ValueError, match="truncation must be >= 0"):
            call()


def test_quotient_series_permutation_examples():
    for spec in (QuotientSpec("pairwise", 1, (1, 2, 3), TWISTED4),
                 QuotientSpec("single", 2, (2, 3, 5), TWISTED3),
                 QuotientSpec("cyclic", 1, (1, 2, 3), TWISTED4)):
        assert permutation_invariance_check(spec, 5).passed


def test_invalid_specs():
    with pytest.raises(ValueError):
        QuotientSpec("cyclic", 2, (1, 1, 1), CLASSICAL)
    with pytest.raises(ValueError):
        QuotientSpec("pairwise", 4, (1, 1, 1), CLASSICAL)
    with pytest.raises(ValueError):
        QuotientSpec("pairwise", 0, (0, 1, 1), CLASSICAL)
    with pytest.raises(ValueError, match="applies to family"):
        expansion_coefficient("triple_bernoulli", 0,
                              QuotientSpec("pairwise", 1, (1, 1, 1), CLASSICAL))
    with pytest.raises(ValueError, match="unknown expansion form"):
        expansion_coefficient("nope", 0,
                              QuotientSpec("pairwise", 0, (1, 1, 1), CLASSICAL))


def test_expansion_examples():
    spec0 = QuotientSpec("pairwise", 0, (1, 1, 1), CLASSICAL)
    assert expansion_coefficient("triple_bernoulli", 0, spec0) == \
        SymPoly.one(CLASSICAL.field)
    spec3 = QuotientSpec("pairwise", 3, (1, 1, 1), CLASSICAL)
    assert expansion_coefficient("triple_powersum", 0, spec3) == \
        SymPoly.one(CLASSICAL.field)
    for n in range(1, 5):
        assert expansion_coefficient("triple_powersum", n, spec3).is_zero()


def test_expansion_matches_series_everywhere():
    # the module's central cross-check, on a sample of contexts
    contexts = (CLASSICAL, TWISTED4, TWISTED3,
                TwistContext.from_orders(5, 1, 2, 1))
    for ctx in contexts:
        for w in ((1, 2, 3), (2, 3, 5)):
            for form, (family, i) in EXPANSION_FORMS.items():
                spec = QuotientSpec(family, i, w, ctx)
                rep = expansion_consistency_check(form, spec, 4)
                assert rep.passed, rep.detail


def test_expansion_check_validates_n_max():
    # a negative n_max is named as the parameter the caller passed
    spec = QuotientSpec("pairwise", 0, (1, 2, 3), CLASSICAL)
    with pytest.raises(ValueError, match="^n_max must be >= 0$"):
        expansion_consistency_check("triple_bernoulli", spec, -1)
    assert expansion_consistency_check("triple_bernoulli", spec, 0).passed


def test_verify_theorem_examples():
    for tid in range(1, 9):
        rep = verify_theorem(tid, CLASSICAL, (1, 1, 1), 3)
        assert rep.passed, (tid, rep.detail)
    rep = verify_theorem(1, CLASSICAL, (1, 2, 3), 4)
    assert rep.passed
    rep = verify_theorem(8, TWISTED4, (1, 2, 3), 5)
    assert rep.passed
    assert rep.to_json_dict()["verdict"] == "pass"


def test_verify_theorem_expression_counts():
    counts = {1: 6, 2: 6, 3: 6, 4: 3, 5: 6, 6: 3, 7: 2, 8: 2}
    for tid, expected in counts.items():
        rep = verify_theorem(tid, TWISTED3, (1, 2, 3), 2)
        assert rep.passed, (tid, rep.detail)
        assert len(rep.expressions) == expected


def test_theorem3_printed_variant_is_inconsistent():
    # the shift denominator printed in one display disagrees generically
    rep = verify_theorem(3, CLASSICAL, (1, 2, 3), 2)
    assert rep.passed
    assert rep.notes["printed_shift_variant_matches"] is False
    # under equal weights (and whenever the two weights coincide) it collapses
    rep = verify_theorem(3, CLASSICAL, (1, 1, 1), 3)
    assert rep.notes["printed_shift_variant_matches"] is True
    # at distinct weights it can still agree at small n, taken at the order
    # (w2, w1, w3): here up to n = 2
    for n, matches in ((2, True), (3, False)):
        rep = verify_theorem(3, TWISTED3, (1, 2, 3), n)
        assert rep.notes["printed_shift_variant_matches"] is matches


def test_theorem_argument_validation():
    with pytest.raises(ValueError):
        verify_theorem(9, CLASSICAL, (1, 1, 1), 1)
    with pytest.raises(ValueError):
        verify_theorem(1, CLASSICAL, (0, 1, 1), 1)
    with pytest.raises(ValueError):
        verify_theorem(1, CLASSICAL, (1, 1, 1), -1)


def test_permutation_reduction_examples():
    for group in (4, 8):
        assert permutation_reduction_check(group, CLASSICAL, (1, 1, 1), 3).passed
        assert permutation_reduction_check(group, CLASSICAL, (2, 3, 5), 4).passed
        assert permutation_reduction_check(group, TWISTED3, (1, 2, 3), 3).passed
    with pytest.raises(ValueError):
        permutation_reduction_check(5, CLASSICAL, (1, 1, 1), 1)
    # the point is checked as verify_theorem checks it
    for w, n, message in (((1, 2, 3), -1, "n must be >= 0"),
                          ((0, 1, 2), 1, "w must be three positive integers"),
                          ((1, 2), 1, "w must be three positive integers")):
        with pytest.raises(ValueError, match=message):
            permutation_reduction_check(4, CLASSICAL, w, n)


def test_substitution_examples():
    # identity substitution at unit weights
    assert substitution_check(
        QuotientSpec("single", 0, (1, 1, 1), CLASSICAL), 4).passed
    for i in range(4):
        assert substitution_check(
            QuotientSpec("single", i, (1, 2, 3), CLASSICAL), 5).passed
        assert substitution_check(
            QuotientSpec("single", i, (2, 3, 5), TWISTED4), 4).passed
    with pytest.raises(ValueError):
        substitution_check(QuotientSpec("pairwise", 0, (1, 1, 1), CLASSICAL), 3)


def test_degenerate_weights_make_expressions_identical():
    # at w = (1,1,1) every displayed expression of a theorem is literally the
    # same polynomial, not merely an equal one
    for tid in (1, 2, 5, 6):
        rep = verify_theorem(tid, TWISTED4, (1, 1, 1), 4)
        assert rep.passed
        assert all(e == rep.expressions[0] for e in rep.expressions)


def test_theorem_reports_carry_params():
    rep = verify_theorem(2, TWISTED4, (1, 2, 3), 3)
    assert rep.params["w"] == [1, 2, 3]
    assert rep.params["n"] == 3
    assert rep.params["d"] == 4


def test_theorem6_uses_factored_character_values():
    # chi(ab) must be computed as chi(a)chi(b): with b beyond the modulus the
    # double sum still matches the closed-form series; verified via theorem 6
    # on a context where d > 1 and the bounds exceed d
    rep = verify_theorem(6, TWISTED4, (2, 3, 5), 3)
    assert rep.passed, rep.detail


def test_expansion_degree_matches_index():
    # the n-th coefficient is a polynomial of total degree at most n
    spec = QuotientSpec("pairwise", 0, (1, 2, 3), TWISTED3)
    for n in range(5):
        poly = expansion_coefficient("triple_bernoulli", n, spec)
        assert max(map(sum, poly.terms), default=0) <= n


def test_bernoulli_table_reuse_through_twists():
    ctx = TwistContext.from_orders(5, 1, 4, 1)
    verify_theorem(1, ctx, (1, 2, 3), 3)
    # twisted caches populated for the pair products mod the twist order
    assert ctx._twists
    t = ctx.twist(6)
    assert bernoulli_numbers(t, 3).values == bernoulli_numbers(ctx.twist(6), 3).values


def test_failure_details_name_the_first_differing_monomial(monkeypatch):
    rows = dict(symmetry._ROWS)
    # wrong rows: the third argument of triple_bernoulli scaled by w1, not
    # w3 (no longer symmetric), and the constant of swap-variant-1 doubled
    rows["triple_bernoulli"] = lambda w1, w2, w3, d: (1, [
        symmetry._B(w2 * w3, w1, symmetry._Y1),
        symmetry._B(w1 * w3, w2, symmetry._Y2),
        symmetry._B(w1 * w2, w1, symmetry._Y3)])
    base = rows["swap-variant-1"]
    rows["swap-variant-1"] = lambda *args: (2 * base(*args)[0], base(*args)[1])
    monkeypatch.setattr(symmetry, "_ROWS", rows)

    # n = 1: w1*w2*w3*(y1 + y2) + w1^2*w2*y3 - (w2*w3 + w1*w3 + w1*w2)/2
    rep = verify_theorem(1, CLASSICAL, (1, 2, 3), 1)
    assert not rep.passed
    assert rep.detail == ("w-order (1, 3, 2) differs from w-order (1, 2, 3) "
                          "at y3: 3 vs 2")
    rep = verify_theorem(1, TWISTED4, (1, 2, 3), 3)
    assert not rep.passed
    diff = rep.expressions[1] - rep.expressions[0]
    key = min(diff.terms, key=lambda e: (sum(e), e))
    assert rep.detail.endswith(
        f"at {monomial(key)}: {rep.expressions[1].coefficient(key)}"
        f" vs {rep.expressions[0].coefficient(key)}")
    assert str(rep.expressions[0]) not in rep.detail

    rep = permutation_reduction_check(4, CLASSICAL, (1, 1, 1), 0)
    assert not rep.passed
    assert rep.detail == "swap-variant-1: at 1: 2 vs 1"
    rep = expansion_consistency_check(
        "triple_bernoulli", QuotientSpec("pairwise", 0, (1, 2, 3), CLASSICAL), 2)
    assert not rep.passed
    assert rep.detail == "n=1: expansion vs series at y3: 2 vs 6"

    # wrong quotients: the pairwise exp scale times w1 (no longer symmetric),
    # then the single exp scale plus 1 (no longer the rescaled pairwise one)
    quotients = dict(symmetry._QUOTIENTS)
    pairwise, single = quotients["pairwise"], quotients["single"]
    quotients["pairwise"] = _exp_scaled(pairwise, operator.mul)
    monkeypatch.setattr(symmetry, "_QUOTIENTS", quotients)
    # at d = 1, t^1 of pairwise i = 0 holds q_0 = 1 times the exp scale
    # 6*w1 at each of y1, y2, y3; (1, 3, 2) keeps w1, so (2, 1, 3) differs
    rep = permutation_invariance_check(
        QuotientSpec("pairwise", 0, (1, 2, 3), CLASSICAL), 3)
    assert not rep.passed
    assert rep.detail == ("w-order (2, 1, 3) differs from w-order (1, 2, 3) "
                          "at t^1, y3: 12 vs 6")
    quotients["pairwise"] = pairwise
    quotients["single"] = _exp_scaled(single, lambda s, w1: s + 1)
    # pairwise (6, 3, 2) has the exp scale 36; the single one 6 + 1, and
    # its t^1 coefficient is rescaled by w1*w2*w3 = 6
    rep = substitution_check(QuotientSpec("single", 0, (1, 2, 3), CLASSICAL), 3)
    assert not rep.passed
    assert rep.detail == "pairwise vs rescaled single at t^1, y3: 36 vs 42"

    # equal scale vectors, unequal scalars: the single family's derived
    # constant times w1 (no longer symmetric) or times 2 (no longer the
    # rescaled pairwise one), and the constant of
    # bernoulli_bernoulli_powersum doubled
    quotients["single"] = single
    monkeypatch.setattr(symmetry, "_quotient_plan",
                        _misplanned(single, 0, operator.mul))
    rep = permutation_invariance_check(
        QuotientSpec("single", 1, (1, 2, 3), TWISTED4), 3)
    assert not rep.passed
    assert rep.detail == ("w-order (2, 1, 3) differs from w-order (1, 2, 3) "
                          "at t^1, 1: 2 vs 1")
    monkeypatch.setattr(symmetry, "_quotient_plan",
                        _misplanned(single, 0, lambda c, w1: c * 2))
    rep = substitution_check(QuotientSpec("single", 0, (1, 2, 3), CLASSICAL), 3)
    assert not rep.passed
    assert rep.detail == "pairwise vs rescaled single at t^0, 1: 1 vs 2"
    base = rows["bernoulli_bernoulli_powersum"]
    rows["bernoulli_bernoulli_powersum"] = lambda *args: (
        2 * base(*args)[0], base(*args)[1])
    rep = expansion_consistency_check(
        "bernoulli_bernoulli_powersum",
        QuotientSpec("pairwise", 1, (1, 2, 3), TWISTED4), 2)
    assert not rep.passed
    assert rep.detail == "n=2: expansion vs series at 1: -24*z4 vs -12*z4"

    # passing reports carry no detail
    monkeypatch.undo()
    assert verify_theorem(1, CLASSICAL, (1, 2, 3), 1).detail is None
    assert permutation_reduction_check(4, CLASSICAL, (1, 1, 1), 0).detail is None
    spec = QuotientSpec("single", 0, (1, 2, 3), CLASSICAL)
    assert permutation_invariance_check(spec, 3).detail is None
    assert substitution_check(spec, 3).detail is None


def test_invariance_builds_one_form_per_plan_group(monkeypatch):
    # every weight order of a _QUOTIENTS row has one operand multiset, so
    # the check builds order 0's form alone; an entry whose orders differ
    # builds the first order of each group of its plan.  Forms are built
    # from plans (symmetry._form), so each built form is named by the plan
    # of the order it stands for
    built = []
    real = symmetry._form

    def counting(ctx, plan, truncation):
        built.append(plan)
        return real(ctx, plan, truncation)

    def plans(v):
        return [symmetry._quotient_plan(symmetry._QUOTIENTS["pairwise"], 1,
                                        order) for order in v]

    monkeypatch.setattr(symmetry, "_form", counting)
    for w in ((1, 2, 3), (1, 1, 2), (2, 2, 2)):
        built.clear()
        assert permutation_invariance_check(
            QuotientSpec("pairwise", 1, w, TWISTED4), 3).passed
        assert built == plans([w])
    # the derived constant times w1, the derived t power plus w1 or the
    # exp scale times w1: one group per value of w1
    quotients = dict(symmetry._QUOTIENTS)
    monkeypatch.setattr(symmetry, "_QUOTIENTS", quotients)
    pairwise = quotients["pairwise"]
    for planner, entry in (
            (_misplanned(pairwise, 0, operator.mul), pairwise),
            (_misplanned(pairwise, 1, operator.add), pairwise),
            (_QUOTIENT_PLAN, _exp_scaled(pairwise, operator.mul))):
        monkeypatch.setattr(symmetry, "_quotient_plan", planner)
        quotients["pairwise"] = entry
        for w, firsts in (((1, 2, 3), [(1, 2, 3), (2, 1, 3), (3, 1, 2)]),
                          ((1, 1, 2), [(1, 1, 2), (2, 1, 1)]),
                          ((2, 2, 2), [(2, 2, 2)])):
            built.clear()
            rep = permutation_invariance_check(
                QuotientSpec("pairwise", 1, w, TWISTED4), 3)
            assert built == plans(firsts) and rep.passed == (
                len(firsts) == 1)


def test_a_replaced_quotient_entry_is_planned_afresh(monkeypatch):
    # the plans of the real entries are warmed first, in an emptied memo,
    # each one group; a plan memoized by family name would serve that group
    # to a replaced entry, build one form and pass
    symmetry._check_plan.cache_clear()
    specs = {"pairwise": QuotientSpec("pairwise", 0, (1, 2, 3), CLASSICAL),
             "single": QuotientSpec("single", 1, (1, 2, 3), TWISTED4)}
    for family, spec in specs.items():
        assert permutation_invariance_check(spec, 3).passed
        assert symmetry._check_plan(
            symmetry._quotient_plan, symmetry._QUOTIENTS[family], spec.i,
            spec.w, symmetry._PERM6).compared == 1
    quotients = dict(symmetry._QUOTIENTS)
    pairwise, single = quotients["pairwise"], quotients["single"]
    monkeypatch.setattr(symmetry, "_QUOTIENTS", quotients)
    # the pairwise exp scale times w1, then a single entry of the real
    # operands whose derived constant is planned times w1
    quotients["pairwise"] = _exp_scaled(pairwise, operator.mul)
    rep = permutation_invariance_check(specs["pairwise"], 3)
    assert rep.detail == ("w-order (2, 1, 3) differs from w-order (1, 2, 3) "
                          "at t^1, y3: 12 vs 6")
    quotients["pairwise"] = pairwise
    quotients["single"] = replaced = lambda *args: single(*args)
    monkeypatch.setattr(symmetry, "_quotient_plan",
                        _misplanned(replaced, 0, operator.mul))
    rep = permutation_invariance_check(specs["single"], 3)
    assert rep.detail == ("w-order (2, 1, 3) differs from w-order (1, 2, 3) "
                          "at t^1, 1: 2 vs 1")
    assert permutation_invariance_check(specs["pairwise"], 3).passed


def test_passing_form_checks_build_no_sympoly(monkeypatch):
    # equal forms lift to equal SymPolys, so a pass decides on forms alone
    from twistbern import symmetry, sympoly
    lifts, built = [], []
    real_lift, real_init = sympoly.lift, SymPoly.__init__
    monkeypatch.setattr(sympoly, "lift",
                        lambda *args: lifts.append(args) or real_lift(*args))
    monkeypatch.setattr(SymPoly, "__init__",
                        lambda self, *args: built.append(args)
                        or real_init(self, *args))
    for ctx in (CLASSICAL, TWISTED4):
        for i in range(4):
            spec = QuotientSpec("single", i, (1, 2, 3), ctx)
            assert permutation_invariance_check(spec, 4).passed
            assert substitution_check(spec, 4).passed
        for form, (family, i) in EXPANSION_FORMS.items():
            spec = QuotientSpec(family, i, (2, 3, 5), ctx)
            assert expansion_consistency_check(form, spec, 4).passed
        for group in (4, 8):
            assert permutation_reduction_check(group, ctx, (2, 3, 5), 4).passed
    assert lifts == [] and built == []
    # a failing check lifts the forms that differ
    spec = QuotientSpec("pairwise", 0, (1, 2, 3), CLASSICAL)
    monkeypatch.setitem(symmetry._ROWS, "triple_bernoulli",
                        symmetry._ROWS["triple_powersum"])
    assert not expansion_consistency_check("triple_bernoulli", spec, 2).passed
    assert lifts and built


def test_a_passing_theorem_lifts_each_distinct_form_once(monkeypatch):
    # on a pass every weight order has the same row form, so one lift, made
    # at the first read of expressions and never in the call, is shared by
    # all expressions; theorem 3's printed variant, built last, is decided
    # on forms
    from twistbern import symmetry, sympoly
    forms, lifts = [], []
    real_form, real_lift = symmetry._form, sympoly.lift
    monkeypatch.setattr(symmetry, "_form",
                        lambda *args: forms.append(real_form(*args))
                        or forms[-1])
    monkeypatch.setattr(sympoly, "lift",
                        lambda *args: lifts.append(args) or real_lift(*args))
    for tid in range(1, 9):
        for w in ((1, 2, 3), (2, 2, 3), (1, 1, 1)):
            forms.clear()
            lifts.clear()
            rep = verify_theorem(tid, TWISTED4, w, 3)
            assert rep.passed, (tid, w)
            assert lifts == [], (tid, w)
            distinct = [f for k, f in enumerate(forms) if f not in forms[:k]]
            printed = tid == 3 and forms[-1] != forms[0]
            assert len(distinct) == 1 + printed, (tid, w)
            expressions = rep.expressions
            assert len(lifts) == 1, (tid, w)
            assert all(e is expressions[0] for e in expressions)
            assert rep.expressions is expressions and len(lifts) == 1


def test_a_passing_theorem_builds_one_form_per_plan_group(monkeypatch):
    # the plan groups the distinct weight orders by operand multiset; each
    # group's form is built once, from its plan, and nothing is lifted
    # until expressions is read
    from twistbern import symmetry, sympoly

    def plan(tid, ctx, w):
        perms, row = symmetry._THEOREM_PATTERNS[tid]
        return symmetry._check_plan(
            symmetry._row_plan, symmetry._ROWS[row], ctx.d, w, perms)

    def groups(tid, ctx, w):
        return plan(tid, ctx, w).compared

    built, lifts = [], []
    real_form, real_lift = symmetry._form, sympoly.lift
    monkeypatch.setattr(symmetry, "_form",
                        lambda *args: built.append(args[1])
                        or real_form(*args))
    monkeypatch.setattr(sympoly, "lift",
                        lambda *args: lifts.append(args) or real_lift(*args))
    for ctx in (CLASSICAL, TWISTED3, TWISTED4):
        for tid, (perms, row) in symmetry._THEOREM_PATTERNS.items():
            for w in ((1, 2, 3), (2, 2, 3), (1, 1, 1), (2, 3, 5)):
                built.clear()
                lifts.clear()
                rep = verify_theorem(tid, ctx, w, 4)
                assert rep.passed and lifts == [], (tid, w)
                # the row's forms are its plan's, each once; theorem 3's
                # printed variant is one more, of another row
                rows = groups(tid, ctx, w)
                assert built[:rows] == list(plan(tid, ctx, w).plans)
                assert len(built) == rows + (tid == 3), (tid, w)
                assert len(rep.expressions) == len(perms) and lifts
    # theorem 1's six orders of (1, 2, 3) have one operand multiset, so its
    # pass rests on the product being independent of factor order alone;
    # theorem 2's six orders have three, and its three orders of (2, 2, 3)
    # two: interchanging w1 and w2 only swaps its two Bernoulli pieces
    assert groups(1, TWISTED4, (1, 2, 3)) == 1
    assert groups(2, TWISTED4, (1, 2, 3)) == 3
    assert groups(2, TWISTED4, (2, 2, 3)) == 2


def test_the_lift_decides_when_forms_differ(monkeypatch):
    # theorem 8's rows have no live slot, so the lift at n reads F[n] only:
    # forms that differ only at t^k, k < n, lift equal and pass, and a
    # difference at t^n fails at the monomial 1 (its lift grows by n!).
    # The row at an order is named by its memoised plan object: the
    # cycle-variant-1 row at w plans equal to its partner at (3, 1, 2), but
    # the two are separate plan objects, so only the bumped row changes;
    # both memos are emptied so that every plan read here is one object
    from twistbern import symmetry
    symmetry._check_plan.cache_clear()
    symmetry._row_plan.cache_clear()
    real = symmetry._form
    ctx, w, n = TWISTED4, (1, 2, 3), 3

    def bump(target, k):
        row, v = target
        named = symmetry._row_plan(symmetry._ROWS[row], ctx.d, v)

        def form(ctx, plan, n):
            scales, F = real(ctx, plan, n)
            if plan is named:
                F = F[:k] + (F[k] + 1,) + F[k + 1:]
            return scales, F
        monkeypatch.setattr(symmetry, "_form", form)

    # expressions[0] is the order (3, 1, 2), the partner of cycle-variant-1
    c = verify_theorem(8, ctx, w, n).expressions[0].constant_part()
    for k in range(n + 1):
        bump(("cyclic_triple_powersum", (2, 1, 3)), k)
        rep = verify_theorem(8, ctx, w, n)
        assert rep.passed is (k < n)
        one, other = rep.expressions
        assert one is not other and (one == other) is (k < n)
        bump(("cycle-variant-1", w), k)
        red = permutation_reduction_check(8, ctx, w, n)
        assert red.passed is (k < n)
    assert rep.detail == ("w-order (2, 1, 3) differs from w-order (3, 1, 2) "
                          f"at 1: {c + 6} vs {c}")
    assert red.detail == f"cycle-variant-1: at 1: {c + 6} vs {c}"


def test_a_failing_theorem_lifts_each_distinct_form_once(monkeypatch):
    # one weight order's form perturbed at t^n fails the check: the report
    # lifts order 0's form and the first form that differs for
    # first_mismatch and keeps both lifts, so reading its expressions lifts
    # only the other forms, one lift per distinct form in all
    from twistbern import symmetry, sympoly
    lifts = []
    real_form, real_lift = symmetry._form, sympoly.lift
    monkeypatch.setattr(sympoly, "lift",
                        lambda *args: lifts.append(args) or real_lift(*args))
    ctx, n, checked = TWISTED4, 3, 0
    for tid, (perms, row) in symmetry._THEOREM_PATTERNS.items():
        for w in ((1, 2, 3), (2, 2, 3), (2, 3, 5)):
            plan = symmetry._check_plan(symmetry._row_plan,
                                        symmetry._ROWS[row], ctx.d, w, perms)
            if plan.compared < 2:
                continue

            def form(where, p, n, bumped=plan.plans[-1]):
                scales, F = real_form(where, p, n)
                return (scales, F[:n] + (F[n] + 1,)) if p is bumped else (
                    scales, F)
            monkeypatch.setattr(symmetry, "_form", form)
            lifts.clear()
            rep = verify_theorem(tid, ctx, w, n)
            assert not rep.passed and len(lifts) == 2, (tid, w)
            expressions = rep.expressions
            assert len(lifts) == rep.compared == plan.compared, (tid, w)
            assert rep.expressions is expressions
            assert len(lifts) == rep.compared
            checked += 1
    assert checked >= 8


def test_former_slowest_sweep_point():
    # d=11, character 8, xi order 7, w=(3,7,6), n=8: the slowest point of the
    # slow sweep while shifted B pieces were summed point by point
    ctx = TwistContext.from_orders(11, 8, 7, 1)
    assert verify_theorem(6, ctx, (3, 7, 6), 8).passed
    spec = QuotientSpec("pairwise", 2, (3, 7, 6), ctx)
    assert expansion_consistency_check("double_shifted_bernoulli", spec, 8).passed
