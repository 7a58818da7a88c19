"""A Galois oracle: conjugate contexts give conjugate Bernoulli numbers.

For a coprime to M = lcm(2, L), the automorphism sigma_a of Q(zeta_L)
sends each root of unity zeta_M^f to zeta_M^(af), so it sends chi(x) to
chi^a(x) and xi to xi^a, and B_n(chi, xi), a polynomial in those values
with rational coefficients, to B_n(chi^a, xi^a).  sigma_a is applied here
to coordinates alone, with ``CycloField.root_sum`` the one field routine
trusted, and the conjugate context is built by ``from_orders`` from its
own selectors.
"""

import math
from fractions import Fraction

from twistbern.bernoulli import TwistContext, bernoulli_numbers
from twistbern.characters import DirichletCharacter, enumerate_characters

N_MAX = 6


def sigma(x, a):
    """sigma_a(x): coordinate i of x is at zeta_L^i = zeta_M^(iM/L), which
    goes to zeta_M^(aiM/L) = zeta_L^(ai)."""
    field = x.field
    return field.root_sum((a * i, c) for i, c in enumerate(x.num)) \
        * Fraction(1, x.den)


def _power_index(chi, a) -> int:
    # the index of chi^a among the characters mod d
    power = DirichletCharacter(chi.group, tuple(a * e for e in chi.exponents))
    return enumerate_characters(chi.modulus).index(power)


def _orbit_points():
    for d in range(1, 6):
        for idx, chi in enumerate(enumerate_characters(d)):
            for r in range(1, 5):
                for e in range(r):
                    if math.gcd(e, r) == 1:
                        yield d, idx, chi, r, e


def test_conjugate_contexts_give_conjugate_bernoulli_numbers():
    pairs = 0
    for d, idx, chi, r, e in _orbit_points():
        ctx = TwistContext.from_orders(d, idx, r, e)
        values = bernoulli_numbers(ctx, N_MAX).values
        M = math.lcm(2, ctx.field.order)
        for a in range(2, M):
            if math.gcd(a, M) == 1:
                conj = TwistContext.from_orders(d, _power_index(chi, a), r,
                                                a * e % r)
                assert conj.field == ctx.field
                got = bernoulli_numbers(conj, N_MAX).values
                for n in range(N_MAX + 1):
                    assert sigma(values[n], a) == got[n], (d, idx, r, e, a, n)
                pairs += 1
    assert pairs == 52  # every a != 1 at each of the 60 contexts
