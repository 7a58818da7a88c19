"""Test-only constructions on cyclotomic fields, kept out of the package
because nothing in it needs them: the embedding Q(zeta_L) -> Q(zeta_L'),
the inverse of ``CycloNumber.to_json_dict``, the rational value of a
rational element, the order of a root of unity and the cyclotomic
polynomial as a Moebius product over all the divisors of its order."""

import math
from fractions import Fraction

from twistbern.cyclo import CycloField, CycloNumber, cyclo_field, factorize


def embed_into(x: CycloNumber, field: CycloField) -> CycloNumber:
    """Embed x in a larger cyclotomic field via zeta_L -> zeta_L'^(L'/L).

    The target order must be a multiple of the source order; the map is a
    ring homomorphism.
    """
    if x.field.order == field.order:
        return x if x.field is field else field.element(x.coeffs)
    if field.order % x.field.order:
        raise ValueError("target field order must be a multiple of the source")
    step = field.order // x.field.order
    return sum((c * field.root(step * i) for i, c in enumerate(x.coeffs)
                if c), field.zero)


def from_json_dict(d: dict) -> CycloNumber:
    """The element that ``CycloNumber.to_json_dict`` rendered as d."""
    return cyclo_field(d["L"]).element([Fraction(s) for s in d["coeffs"]])


def is_rational(x: CycloNumber) -> bool:
    return not any(x.num[1:])


def rational_value(x: CycloNumber) -> Fraction:
    """x as a Fraction; raises if x is not rational."""
    if not is_rational(x):
        raise ValueError("element is not rational")
    return Fraction(x.num[0], x.den)


def multiplicative_order(x: CycloNumber) -> int:
    """Exact order of x as a root of unity; raises if x is not one."""
    M = x.field.period
    return M // math.gcd(x.root_exponent(), M)


def moebius_cyclotomic(order: int) -> tuple:
    """Phi_order's integer coefficients, constant term first, as the
    Moebius product prod_{q | order} (x^(order/q) - 1)^mu(q) over the
    squarefree divisors q of order: the factors with mu = 1 multiplied in,
    then those with mu = -1 divided out exactly."""
    moebius = [(1, 1)]
    for p in factorize(order):
        moebius += [(q * p, -mu) for q, mu in moebius]
    poly = [1]
    for q, mu in moebius:
        if mu == 1:
            d = order // q
            prod = [-c for c in poly] + [0] * d
            for i, c in enumerate(poly, d):
                prod[i] += c
            poly = prod
    for q, mu in moebius:
        if mu == -1:
            d = order // q
            quo = []
            for i in range(len(poly) - d):
                quo.append((quo[i - d] if i >= d else 0) - poly[i])
            poly = quo
    return tuple(poly)
