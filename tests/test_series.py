from fractions import Fraction

import pytest

from twistbern.cyclo import cyclo_field
from twistbern.series import PowerSeries
from twistbern.sympoly import SymPoly

F1 = cyclo_field(1)
F4 = cyclo_field(4)


def _series(*rationals, field=F1):
    return PowerSeries([field.from_rational(Fraction(q)) for q in rationals])


def test_exp_scaled_examples():
    e = PowerSeries.exp_scaled(F1.one, 3)
    assert e == _series(1, 1, Fraction(1, 2), Fraction(1, 6))
    assert PowerSeries.exp_scaled(F1.zero, 5).coeffs == \
        _series(1, 0, 0, 0, 0, 0).coeffs
    z = F4.root(1)
    e = PowerSeries.exp_scaled(z, 2)
    assert e.coeffs == (F4.one, z, F4.from_rational(Fraction(-1, 2)))


def test_exp_scaled_of_a_rational_scale_is_exact():
    # int and Fraction scales give Fraction coefficients, never floats
    e = PowerSeries.exp_scaled(3, 4)
    assert e.coeffs == (1, 3, Fraction(9, 2), Fraction(9, 2), Fraction(27, 8))
    assert all(type(c) in (int, Fraction) for c in e.coeffs)
    e = PowerSeries.exp_scaled(Fraction(-2, 3), 3)
    assert e.coeffs == (1, Fraction(-2, 3), Fraction(2, 9), Fraction(-4, 81))
    assert all(type(c) in (int, Fraction) for c in e.coeffs)
    big = 10**20 + 1  # a float would lose its low digits
    assert PowerSeries.exp_scaled(big, 2).coeffs[2] == Fraction(big**2, 2)
    # field scales agree with the rational ones, coefficient by coefficient
    assert PowerSeries.exp_scaled(F1.from_rational(3), 4) == \
        _series(*PowerSeries.exp_scaled(3, 4).coeffs)


def test_series_arithmetic():
    one = _series(1, 0, 0, 0, 0)
    a = _series(1, 1, 0, 0, 0)       # 1 + t
    b = _series(1, -1, 0, 0, 0)      # 1 - t
    assert (a * one).coeffs == a.coeffs
    assert (a * b).coeffs[:3] == _series(1, 0, -1).coeffs
    # truncation drops to the shorter operand
    assert (a * _series(1, 1)).truncation == 1


def test_exp_functional_equation():
    # e^{at} e^{bt} = e^{(a+b)t} coefficient-wise
    for fld, a, b in ((F1, F1.from_rational(2), F1.from_rational(-3)),
                      (F4, F4.root(1), F4.root(3) + 1)):
        lhs = PowerSeries.exp_scaled(a, 8) * PowerSeries.exp_scaled(b, 8)
        rhs = PowerSeries.exp_scaled(a + b, 8)
        assert lhs == rhs


def test_invert_examples():
    geo = _series(1, -1, 0, 0).invert()
    assert geo == _series(1, 1, 1, 1)
    e = PowerSeries.exp_scaled(F1.one, 6)
    assert e.invert() == PowerSeries.exp_scaled(-F1.one, 6)
    with pytest.raises(ValueError, match="not invertible"):
        _series(0, 1, 2).invert()


def test_invert_is_involutive():
    s = _series(2, 3, Fraction(-1, 2), 5, 0, 7)
    assert s.invert().invert() == s


def test_egf_accessor():
    e = PowerSeries.exp_scaled(F1.from_rational(2), 5)
    for n in range(6):
        assert e.egf(n) == 2**n


def test_ring_axioms_on_samples():
    fld = F4
    xs = [_series(1, 2, 3, 4, 5, field=fld),
          PowerSeries.exp_scaled(fld.root(1), 4),
          _series(0, Fraction(1, 3), -2, 0, 1, field=fld)]
    a, b, c = xs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
    assert (a + b).coeffs == (b + a).coeffs
    assert (a - a).coeffs == tuple(fld.zero for _ in range(5))


def test_sympoly_basics():
    y1 = SymPoly.variable("y1", F4)
    y2 = SymPoly.variable("y2", F4)
    p = (y1 + y2) * (y1 - y2)
    assert p == y1 * y1 - y2 * y2
    assert (y1 - y1).is_zero()
    assert not (y1 * 0).terms  # zero coefficients are never stored
    q = y1 * F4.root(1) + Fraction(1, 2)
    assert q.coefficient((0, 1, 0, 0)) == F4.root(1)
    assert q.constant_part() == Fraction(1, 2)
    assert set(q.terms) == {(0, 0, 0, 0), (0, 1, 0, 0)}  # y1 only


def test_sympoly_pow_and_scalar():
    y = SymPoly.variable("y", F1)
    p = (y + 1) ** 3
    assert p.coefficient((3, 0, 0, 0)) == 1
    assert p.coefficient((2, 0, 0, 0)) == 3
    assert p.coefficient((1, 0, 0, 0)) == 3
    assert p.constant_part() == 1
    assert (p * Fraction(1, 3)).coefficient((2, 0, 0, 0)) == 1
    assert p / 3 == p * Fraction(1, 3)


def test_sympoly_field_mismatch():
    y = SymPoly.variable("y", F1)
    with pytest.raises(ValueError, match="field mismatch"):
        y + SymPoly.variable("y", F4)
    with pytest.raises(ValueError, match="field mismatch"):
        y * F4.root(1)


def test_series_over_sympoly_coefficients():
    y = SymPoly.variable("y", F1)
    e = PowerSeries.exp_scaled(y * 2, 3)
    assert e.coeffs[0] == SymPoly.one(F1)
    assert e.coeffs[2] == y * y * 2
    # mixed product with a cyclotomic-coefficient series
    plain = PowerSeries.exp_scaled(F1.one, 3)
    prod = plain * e
    assert prod.coeffs[1] == y * 2 + 1


def test_sympoly_first_difference_in_printing_order():
    from twistbern.sympoly import first_difference as poly_difference
    from twistbern.sympoly import monomial
    y1 = SymPoly.variable("y1", F4)
    y2 = SymPoly.variable("y2", F4)
    a = y1 * y1 + y2 * 3 + 1
    b = y1 * y1 + y2 * 5 + y1 * F4.root(1) + 1
    assert poly_difference(a, a) is None
    # degree first, then the exponent key: y2 is printed before y1
    assert str(b).startswith("1 + 5*y2 + ")
    assert poly_difference(a, b) == ((0, 0, 1, 0), 3, 5)
    # a monomial missing on one side has coefficient 0 there
    assert poly_difference(a + y2 * 2, b) == ((0, 1, 0, 0), 0, F4.root(1))
    assert poly_difference(SymPoly.zero(F4), a) == ((0, 0, 0, 0), 0, 1)
    assert monomial((0, 0, 0, 0)) == "1"
    assert monomial((1, 2, 0, 1)) == "y*y1^2*y3"


def test_sympoly_zero_scalar_gives_the_zero_polynomial():
    p = SymPoly.variable("y1", F4) * F4.root(1) + Fraction(1, 2)
    for zero in (0, Fraction(0), F4.zero):
        assert (p * zero).terms == {} and (zero * p).terms == {}
    # a nonzero rational scales every coefficient, as a constant would
    for q in (35, Fraction(-35, 6)):
        assert p * q == p * SymPoly.constant(F4.from_rational(q))


def test_the_exact_path_builds_no_power_series(monkeypatch, capsys):
    # Series on the exact path are coefficient tuples: PowerSeries is built
    # only by quotient_series, as a view, and by the tests
    from twistbern import cli
    from twistbern.bernoulli import (TwistContext, bernoulli_numbers,
                                     powersum_gf_check)
    from twistbern.symmetry import (_FAMILY_MAX_I, EXPANSION_FORMS,
                                    THEOREM_IDS, QuotientSpec,
                                    expansion_consistency_check,
                                    permutation_invariance_check,
                                    quotient_series, substitution_check,
                                    verify_theorem)
    built = []
    init = PowerSeries.__init__

    def counted(self, coeffs):
        built.append(self)
        init(self, coeffs)
    monkeypatch.setattr(PowerSeries, "__init__", counted)

    ctx = TwistContext.from_orders(4, 1, 4)
    w = (1, 2, 3)
    assert len(bernoulli_numbers(ctx, 8)) == 9
    for theorem in THEOREM_IDS:
        assert verify_theorem(theorem, ctx, w, 4).passed
    for family, max_i in _FAMILY_MAX_I.items():
        for i in range(max_i + 1):
            spec = QuotientSpec(family, i, w, ctx)
            assert permutation_invariance_check(spec, 5).passed
            if family == "single":
                assert substitution_check(spec, 5).passed
    for form, (family, i) in EXPANSION_FORMS.items():
        spec = QuotientSpec(family, i, w, ctx)
        assert expansion_consistency_check(form, spec, 5).passed
    assert powersum_gf_check(ctx, 2, 6).passed
    assert cli.main(["bernoulli", "--d", "5", "--char", "1", "--xi-order",
                     "4", "--n", "6"]) == 0
    capsys.readouterr()
    assert built == []
    # the counter sees the one view that is built
    quotient_series(QuotientSpec("cyclic", 0, w, ctx), 3)
    assert len(built) == 1
