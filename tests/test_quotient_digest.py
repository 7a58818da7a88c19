"""Golden digests of every quotient form and of the Bernoulli generating
function on the acceptance grid.

For each quotient family, the sha256 of the coefficients of
`_quotient_form(spec, 6)` (each coefficient as its integer numerators and
denominator, one line each) over the 36 acceptance contexts (d in
{1, 3, 4, 5}, every character mod d, xi of order 1..4), both weight triples
of the acceptance suite and every i of the family; and the sha256 of
`bernoulli_gf(ctx, 9)` over the same contexts.  Field elements are
canonical, so equal values print equal lines: any change to how a quotient
is built must reproduce the values coefficient for coefficient.
"""

import hashlib

import pytest

from twistbern.bernoulli import TwistContext, bernoulli_gf
from twistbern.characters import enumerate_characters
from twistbern.symmetry import _FAMILY_MAX_I, QuotientSpec, _quotient_form

CONTEXTS = [(d, idx, r) for d in (1, 3, 4, 5)
            for idx in range(len(enumerate_characters(d)))
            for r in (1, 2, 3, 4)]
W_TRIPLES = ((1, 2, 3), (2, 3, 5))
TRUNCATION = 6
BERNOULLI_TRUNCATION = 9

DIGESTS = {
    "pairwise":
        "6afbdd0927c8238d446d04b4a6dde44695611215d737f44035214946bba689fa",
    "single":
        "ffbbc2d53b3155c34c6ea1a4ae1663fa8f124c1f978c5585a31b6b5728850a25",
    "cyclic":
        "1feeece7f4db6e04ae191ef07cd374112ea41183909181c8c785054eab3a90d7",
    "bernoulli_gf":
        "0c92c0535e9ec581ae5dd04801543177ab30479daef7f7306fe7f6af82130abe",
}


def _lines(coeffs):
    return b"".join(f"{list(c.num)} {c.den}\n".encode() for c in coeffs)


def _digest(name):
    h = hashlib.sha256()
    for d, idx, r in CONTEXTS:
        ctx = TwistContext.from_orders(d, idx, r, 1)
        if name == "bernoulli_gf":
            h.update(_lines(bernoulli_gf(ctx, BERNOULLI_TRUNCATION)))
            continue
        for w in W_TRIPLES:
            for i in range(_FAMILY_MAX_I[name] + 1):
                spec = QuotientSpec(name, i, w, ctx)
                h.update(_lines(_quotient_form(spec, TRUNCATION)[1]) + b"\n")
    return h.hexdigest()


def test_grid_size():
    assert len(CONTEXTS) == 36
    assert set(DIGESTS) == set(_FAMILY_MAX_I) | {"bernoulli_gf"}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_quotient_digest(name):
    assert _digest(name) == DIGESTS[name]
