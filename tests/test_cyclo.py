from fractions import Fraction

import pytest

from twistbern.cyclo import (CycloNumber, cyclo_field, cyclotomic_polynomial,
                             divisors, embed_into, euler_phi, field_join)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_base_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)


def test_cyclotomic_12_against_division_oracle():
    # x^12 - 1 must equal Phi_12 times the product of the standard lower ones
    lower = {
        1: [-1, 1], 2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1], 6: [1, -1, 1],
    }
    prod = [1]
    for d in (1, 2, 3, 4, 6):
        prod = _poly_mul(prod, lower[d])
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    full = _poly_mul(prod, list(cyclotomic_polynomial(12)))
    assert full == [-1] + [0] * 11 + [1]


def test_cyclotomic_product_over_divisors():
    for order in range(1, 16):
        prod = [1]
        for d in divisors(order):
            prod = _poly_mul(prod, list(cyclotomic_polynomial(d)))
        assert prod == [-1] + [0] * (order - 1) + [1]
        assert len(cyclotomic_polynomial(order)) == euler_phi(order) + 1
        assert cyclotomic_polynomial(order)[-1] == 1  # monic


def test_roots_of_unity():
    f4 = cyclo_field(4)
    assert f4.root(0) == 1
    assert f4.root(2) == -1
    z3 = cyclo_field(3).root(1)
    assert z3.coeffs == (Fraction(0), Fraction(1))
    assert z3 * z3 + z3 + 1 == 0


def test_root_order_and_minimal_polynomial():
    for order in (1, 2, 3, 4, 5, 6, 8, 12):
        f = cyclo_field(order)
        z = f.root(1)
        assert z ** order == 1
        assert z.multiplicative_order() == order
        # Phi_L(zeta_L) = 0
        acc = f.zero
        for i, c in enumerate(f.modulus):
            acc = acc + f.root(0) * 0 + z**i * c
        assert acc.is_zero()


def test_arithmetic_examples():
    f4 = cyclo_field(4)
    i = f4.root(1)
    assert i * i == -1
    f3 = cyclo_field(3)
    z = f3.root(1)
    assert f3.one / z == -1 - z
    a = f3.element([Fraction(2, 3), Fraction(-1, 5)])
    assert a - a == 0


def test_inverse_of_nonzero_elements():
    for order in (3, 4, 5, 12):
        f = cyclo_field(order)
        samples = [f.one, f.root(1), f.root(1) - 2,
                   f.element([Fraction(k + 1, k + 2) for k in range(f.degree)])]
        for a in samples:
            assert a * a.inverse() == 1
            assert a / a == 1


def test_division_errors():
    f4 = cyclo_field(4)
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        f4.one / f4.zero
    with pytest.raises(ValueError, match="field mismatch"):
        f4.one + cyclo_field(3).one


def test_field_join_examples():
    a = cyclo_field(2).root(1)   # -1
    b = cyclo_field(3).root(1)
    aj, bj = field_join(a, b)
    assert aj.field.order == 6 and bj.field.order == 6
    assert aj == cyclo_field(6).root(3)   # -1 maps to zeta_6^3
    # same field: identity embedding
    c, d = field_join(b, b + 1)
    assert c == b and d == b + 1


def test_field_join_is_multiplicative():
    f4 = cyclo_field(4)
    target = cyclo_field(12)
    samples = [f4.one, f4.root(1), f4.root(1) + 2,
               f4.element([Fraction(1, 2), Fraction(-3)])]
    for x in samples:
        for y in samples:
            assert embed_into(x * y, target) == \
                embed_into(x, target) * embed_into(y, target)
            assert embed_into(x + y, target) == \
                embed_into(x, target) + embed_into(y, target)


def test_rational_normalization_after_ops():
    f = cyclo_field(5)
    a = f.element([Fraction(2, 4), Fraction(6, -9), Fraction(0), Fraction(5)])
    b = a * a - a / 3
    for c in b.coeffs:
        assert c.denominator > 0
        from math import gcd
        assert gcd(abs(c.numerator), c.denominator) == 1


def test_json_serialization_roundtrip():
    f = cyclo_field(12)
    a = f.element([Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(7, 5)])
    d = a.to_json_dict()
    assert d["L"] == 12
    assert all("." not in s for s in d["coeffs"])  # decimal-free
    assert CycloNumber.from_json_dict(d) == a


def test_multiplicative_order_errors():
    f = cyclo_field(3)
    with pytest.raises(ValueError):
        (f.one * 2).multiplicative_order()
    # -zeta_3 has order 6 inside Q(zeta_3)
    assert (-f.root(1)).multiplicative_order() == 6
