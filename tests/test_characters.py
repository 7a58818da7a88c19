import math

import pytest

from twistbern.characters import character, enumerate_characters, unit_group
from twistbern.cyclo import euler_phi


def test_unit_group_examples():
    assert unit_group(5).generators == ((2, 4),)
    assert unit_group(8).generators == ((7, 2), (3, 2))
    assert unit_group(1).generators == ()
    assert unit_group(2).generators == ()


def test_unit_group_presentation_is_valid():
    for d in range(1, 25):
        g = unit_group(d)
        prod = 1
        for res, order in g.generators:
            assert math.gcd(res, d) == 1
            assert pow(res, order, d) == 1
            for q in {f for f in range(2, order + 1) if order % f == 0
                      and all(f % k for k in range(2, f))}:
                assert pow(res, order // q, d) != 1
            prod *= order
        assert prod == euler_phi(d)


def test_enumeration_counts_and_distinctness():
    for d in (1, 3, 4, 5, 8, 12, 15):
        chars = enumerate_characters(d)
        assert len(chars) == euler_phi(d)
        seen = {tuple(str(c(a)) for a in range(d)) for c in chars}
        assert len(seen) == len(chars)  # pairwise distinct as value functions
    assert len(enumerate_characters(1)) == 1
    assert len(enumerate_characters(4)) == 2


def test_principal_character_is_index_zero():
    for d in (1, 4, 5, 8):
        chi = enumerate_characters(d)[0]
        assert chi.is_principal
        assert chi.conductor == 1 or d == 1
        for a in range(1, d + 1):
            expected = 1 if math.gcd(a, d) == 1 else 0
            assert chi(a) == expected


def test_conductor_examples():
    chars4 = enumerate_characters(4)
    assert chars4[0].conductor == 1
    assert chars4[1].conductor == 4
    # mod 8: principal, the one induced from mod 4, and two primitive ones
    assert sorted(c.conductor for c in enumerate_characters(8)) == [1, 4, 8, 8]
    chars5 = enumerate_characters(5)
    assert sum(1 for c in chars5 if c.is_primitive) == 3


def test_evaluate_examples():
    chi = enumerate_characters(4)[1]
    assert chi(3) == -1
    assert chi(0).is_zero()
    assert enumerate_characters(1)[0](0) == 1


def test_multiplicativity_on_grid():
    for d in (4, 5, 8, 12):
        for chi in enumerate_characters(d):
            for a in range(d):
                for b in range(d):
                    assert chi(a) * chi(b) == chi(a * b)


def test_orthogonality_and_period():
    for d in (3, 4, 5, 8, 12):
        for chi in enumerate_characters(d):
            total = chi(0)
            for a in range(1, d):
                total = total + chi(a)
            if chi.is_principal:
                assert total == euler_phi(d)
            else:
                assert total.is_zero()
            for a in range(d):
                assert chi(a + d) == chi(a)


def test_value_order_is_exact():
    for d in (5, 8, 12):
        for chi in enumerate_characters(d):
            m = chi.order
            # chi^m is principal and no smaller power is
            for a in range(d):
                if math.gcd(a, d) == 1:
                    assert chi(a) ** m == 1
            if m > 1:
                assert any(math.gcd(a, d) == 1 and chi(a) ** (m // q) != 1
                           for q in {f for f in range(2, m + 1) if m % f == 0}
                           for a in range(d))


def test_character_json():
    chi = enumerate_characters(5)[1]
    d = chi.to_json_dict()
    assert d == {"d": 5, "exponents": [1], "conductor": 5, "order": 4}


def test_character_decodes_the_enumeration_index():
    # one character built alone is the enumeration's index-th one
    for d in range(1, 61):
        chars = enumerate_characters(d)
        for i, chi in enumerate(chars):
            one = character(d, i)
            assert one == chi
            assert (one.exponents, one.order, one.conductor,
                    one.is_primitive) == (chi.exponents, chi.order,
                                          chi.conductor, chi.is_primitive)
        for i in (-1, len(chars)):
            with pytest.raises(ValueError, match=r"^character index out of "
                               rf"range \(0\.\.{len(chars) - 1}\)$"):
                character(d, i)
