from fractions import Fraction

import pytest

from twistbern.bernoulli import (TwistContext, bernoulli_numbers,
                                 powersum_gf_check)
from twistbern.series import PowerSeries, first_difference
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
    bgf = unit.divide_by_t().invert()          # t/(e^t - 1)
    cube = bgf * bgf * bgf
    y = SymPoly.variable("y", f)
    expected = (cube * PowerSeries.exp_scaled(y * 3, 8)).truncate(6)
    assert first_difference(got, expected) is None


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
        assert poly.total_degree() <= n


def test_bernoulli_table_reuse_through_twists():
    ctx = TwistContext.from_orders(5, 1, 4, 1)
    verify_theorem(1, ctx, (1, 2, 3), 3)
    # twisted caches populated for the pair products mod the twist order
    assert ctx._twists
    t = ctx.twist(6)
    assert bernoulli_numbers(t, 3).values == bernoulli_numbers(ctx.twist(6), 3).values


def test_failure_details_name_the_first_differing_monomial(monkeypatch):
    from twistbern import symmetry
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
    quotients["pairwise"] = lambda w1, w2, w3, i: (
        *pairwise(w1, w2, w3, i)[:5], pairwise(w1, w2, w3, i)[5] * w1)
    monkeypatch.setattr(symmetry, "_QUOTIENTS", quotients)
    # at d = 1, t^1 of pairwise i = 0 holds q_0 = 1 times the exp scale
    # 6*w1 at each of y1, y2, y3; (1, 3, 2) keeps w1, so (2, 1, 3) differs
    rep = permutation_invariance_check(
        QuotientSpec("pairwise", 0, (1, 2, 3), CLASSICAL), 3)
    assert not rep.passed
    assert rep.detail == ("w-order (2, 1, 3) differs from w-order (1, 2, 3) "
                          "at t^1, y3: 12 vs 6")
    quotients["pairwise"] = pairwise
    quotients["single"] = lambda w1, w2, w3, i: (
        *single(w1, w2, w3, i)[:5], single(w1, w2, w3, i)[5] + 1)
    # pairwise (6, 3, 2) has the exp scale 36; the single one 6 + 1, and
    # its t^1 coefficient is rescaled by w1*w2*w3 = 6
    rep = substitution_check(QuotientSpec("single", 0, (1, 2, 3), CLASSICAL), 3)
    assert not rep.passed
    assert rep.detail == "pairwise vs rescaled single at t^1, y3: 36 vs 42"

    # equal scale vectors, unequal scalars: the single prefactor times w1
    # (no longer symmetric) or times 2 (no longer the rescaled pairwise
    # one), and the constant of bernoulli_bernoulli_powersum doubled
    quotients["single"] = lambda w1, w2, w3, i: (
        single(w1, w2, w3, i)[0] * w1, *single(w1, w2, w3, i)[1:])
    rep = permutation_invariance_check(
        QuotientSpec("single", 1, (1, 2, 3), TWISTED4), 3)
    assert not rep.passed
    assert rep.detail == ("w-order (2, 1, 3) differs from w-order (1, 2, 3) "
                          "at t^1, 1: 2 vs 1")
    quotients["single"] = lambda w1, w2, w3, i: (
        single(w1, w2, w3, i)[0] * 2, *single(w1, w2, w3, i)[1:])
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


def test_invariance_builds_each_distinct_weight_order_once(monkeypatch):
    from twistbern import symmetry
    built = []
    real = symmetry._quotient_form

    def counting(spec, truncation):
        built.append(spec.w)
        return real(spec, truncation)

    monkeypatch.setattr(symmetry, "_quotient_form", counting)
    for w, count in (((1, 2, 3), 6), ((1, 1, 2), 3), ((2, 2, 2), 1)):
        built.clear()
        spec = QuotientSpec("pairwise", 1, w, TWISTED4)
        assert permutation_invariance_check(spec, 3).passed
        assert len(built) == len(set(built)) == count


def test_passing_form_checks_build_no_sympoly(monkeypatch):
    # equal forms lift to equal SymPolys, so a pass decides on forms alone
    from twistbern import symmetry
    lifts, built = [], []
    real_lift, real_init = symmetry._lift, SymPoly.__init__
    monkeypatch.setattr(symmetry, "_lift",
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
    assert lifts == [] and built == []
    # a failing check lifts the forms that differ
    spec = QuotientSpec("pairwise", 0, (1, 2, 3), CLASSICAL)
    monkeypatch.setitem(symmetry._ROWS, "triple_bernoulli",
                        symmetry._ROWS["triple_powersum"])
    assert not expansion_consistency_check("triple_bernoulli", spec, 2).passed
    assert lifts and built


def test_former_slowest_sweep_point():
    # d=11, character 8, xi order 7, w=(3,7,6), n=8: the slowest point of the
    # slow sweep while shifted B pieces were summed point by point
    ctx = TwistContext.from_orders(11, 8, 7, 1)
    assert verify_theorem(6, ctx, (3, 7, 6), 8).passed
    spec = QuotientSpec("pairwise", 2, (3, 7, 6), ctx)
    assert expansion_consistency_check("double_shifted_bernoulli", spec, 8).passed
