from fractions import Fraction

import pytest

from twistbern.cyclo import cyclo_field
from twistbern.series import PowerSeries, first_difference
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


def test_series_arithmetic():
    one = PowerSeries.one(F1.one, 4)
    a = _series(1, 1, 0, 0, 0)       # 1 + t
    b = _series(1, -1, 0, 0, 0)      # 1 - t
    assert (a * one).coeffs == a.coeffs
    assert (a * b).truncate(2) == _series(1, 0, -1)
    # truncation drops to the shorter operand
    assert (a * _series(1, 1)).truncation == 1


def test_exp_functional_equation():
    # e^{at} e^{bt} = e^{(a+b)t} coefficient-wise
    for fld, a, b in ((F1, F1.from_rational(2), F1.from_rational(-3)),
                      (F4, F4.root(1), F4.root(3) + 1)):
        lhs = PowerSeries.exp_scaled(a, 8) * PowerSeries.exp_scaled(b, 8)
        rhs = PowerSeries.exp_scaled(a + b, 8)
        assert first_difference(lhs, rhs) is None


def test_invert_examples():
    geo = _series(1, -1, 0, 0).invert()
    assert geo == _series(1, 1, 1, 1)
    e = PowerSeries.exp_scaled(F1.one, 6)
    assert first_difference(e.invert(),
                            PowerSeries.exp_scaled(-F1.one, 6)) is None
    with pytest.raises(ValueError, match="not invertible"):
        _series(0, 1, 2).invert()


def test_invert_is_involutive():
    s = _series(2, 3, Fraction(-1, 2), 5, 0, 7)
    assert s.invert().invert() == s


def test_divide_by_t():
    assert _series(0, 1, 1).divide_by_t() == _series(1, 1)
    shifted = (PowerSeries.exp_scaled(F1.one, 6) - PowerSeries.one(F1.one, 6))
    q = shifted.divide_by_t()
    assert q.coeffs == tuple(F1.from_rational(Fraction(1, _fact(j + 1)))
                             for j in range(6))
    with pytest.raises(ValueError, match="not divisible"):
        _series(1, 1).divide_by_t()


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


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
    assert q.variables() == ("y1",)


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
