import math
import random
from fractions import Fraction

import pytest

from twistbern.cyclo import (CycloField, cyclo_field, cyclotomic_polynomial,
                             divisors, euler_phi)
from twistbern.sympoly import SymPoly

from cyclo_helpers import (embed_into, from_json_dict, moebius_cyclotomic,
                           multiplicative_order)


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


def test_cyclotomic_polynomials_match_the_moebius_product_to_600():
    # Phi_n is Phi_rad(n) at x^(n/rad(n)); the oracle is the Moebius
    # product over every squarefree divisor of n itself
    for order in range(1, 601):
        assert cyclotomic_polynomial(order) == moebius_cyclotomic(order), order


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
        assert multiplicative_order(z) == order
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


def test_embed_into_examples():
    a = cyclo_field(2).root(1)   # -1
    b = cyclo_field(3).root(1)
    f6 = cyclo_field(6)
    aj, bj = embed_into(a, f6), embed_into(b, f6)
    assert aj.field.order == 6 and bj.field.order == 6
    assert aj == f6.root(3)   # -1 maps to zeta_6^3
    # same field: identity embedding
    c, d = embed_into(b, b.field), embed_into(b + 1, b.field)
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
    assert from_json_dict(d) == a


def test_json_coordinates_print_as_fractions():
    # each coordinate is rendered from num/den in lowest terms, exactly as
    # str(Fraction) prints it: negative and zero coordinates, integers, and
    # denominators that share a factor with some coordinates and not others
    rng = random.Random(25)
    for order in (1, 4, 12, 105):
        f = cyclo_field(order)
        for den in (1, 2, 6, 12, 35, 60, 2**40 * 3):
            for _ in range(4):
                x = f.element([Fraction(rng.choice((0, 1, -1, 7))
                                        * rng.randint(0, 90), den)
                               for _ in range(f.degree)])
                assert x.to_json_dict() == {
                    "L": order, "coeffs": [str(c) for c in x.coeffs]}
    assert cyclo_field(3).zero.to_json_dict()["coeffs"] == ["0", "0"]
    half = cyclo_field(4).element([Fraction(-1, 2), Fraction(4, 6)])
    assert half.to_json_dict()["coeffs"] == ["-1/2", "2/3"]


def test_multiplicative_order_errors():
    f = cyclo_field(3)
    with pytest.raises(ValueError):
        multiplicative_order(f.one * 2)
    # -zeta_3 has order 6 inside Q(zeta_3)
    assert multiplicative_order(-f.root(1)) == 6


@pytest.mark.parametrize("L", (1, 2, 3, 4, 5, 9, 12, 15, 105))
def test_every_root_is_one_exponent_of_zeta_m(L):
    # the roots of unity of Q(zeta_L) are the powers zeta_M^f, M = lcm(2, L)
    # (for odd L, -1 is no power of zeta_L): each f < M gives a distinct
    # root that reads back f, the map turns sums of exponents into
    # products, M/2 is -1 and M/L is zeta_L, the unit vector x folded
    f = CycloField(L)   # fresh: no root cached
    M = f.period
    assert M == math.lcm(2, L)
    roots = [f.zeta(k) for k in range(M)]
    assert len(set(roots)) == M
    for k, z in enumerate(roots):
        assert z.root_exponent() == k
        assert z * roots[1] == roots[(k + 1) % M] == f.zeta(k + 1 - M)
        assert z * z == roots[2 * k % M]
    if M <= 30:
        for j, y in enumerate(roots):
            for k, z in enumerate(roots):
                assert y * z == roots[(j + k) % M], (j, k)
    assert roots[M // 2] == -1
    assert roots[M // L % M] == f.root(1) == f.root_sum([(1, 1)])
    # one map of a whole list of terms is the sum of its roots
    terms = [(k * 7, k - 3) for k in range(M + 2)]
    assert f.root_sum(f.root_terms(terms)) == \
        sum((w * f.zeta(k) for k, w in terms), f.zero)


def test_equal_values_hash_equal():
    # a rational element equals its int or Fraction, and a constant SymPoly
    # equals its value, so each pair must meet in one set or dict
    for order in (1, 2, 3, 4, 5, 12, 60):
        f = cyclo_field(order)
        for v in (0, 1, -3, 7, Fraction(1, 2), Fraction(-5, 6)):
            x = f.from_rational(v)
            poly = SymPoly.constant(x)
            for a, b in ((x, v), (poly, v), (poly, x)):
                assert a == b and hash(a) == hash(b)
                assert a in {b} and b in {a}
        if f.degree == 1:
            continue
        # non-rational controls equal no rational, and still meet their
        # constant polynomials
        for z in (f.root(1), f.root(1) + Fraction(1, 2)):
            assert all(z != v for v in (0, 1, Fraction(1, 2)))
            poly = SymPoly.constant(z)
            assert poly == z and hash(poly) == hash(z)
            assert poly in {z} and z in {poly}
        assert SymPoly.variable("y", f) + 3 != 3


@pytest.mark.parametrize("L", (1, 4, 12, 60))
def test_a_negative_power_is_the_inverse_of_the_positive_one(L):
    f = cyclo_field(L)
    dense = f.element([Fraction((-1) ** j * (j + 2), j + 1)
                       for j in range(f.degree)])
    for x in (dense, f.root(1)):
        assert x ** -3 == (x ** 3).inverse()
        assert x ** -3 * x ** 3 == f.one
