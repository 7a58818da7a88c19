"""Golden digests of every expansion-form row on a fixed grid.

For each `_ROWS` row, the sha256 of the printed values
`str(evaluate(row, ctx, w, n))` (one line each) over 36 contexts (d in
{1, 3, 4, 5}, every character mod d, xi of order 1..4), five weight triples
and n = 0..5: 1080 evaluations per row, 18360 in all.  The digests were
taken from the per-composition SymPoly kernel, so any change to the row
kernel must reproduce its output byte for byte.
"""

import hashlib

import pytest

from twistbern.bernoulli import TwistContext
from twistbern.characters import enumerate_characters
from twistbern.symmetry import _ROWS

from symmetry_helpers import evaluate

WEIGHTS = ((1, 1, 1), (1, 2, 3), (2, 3, 5), (3, 1, 2), (2, 2, 3))
N_MAX = 5
CONTEXTS = [(d, idx, r) for d in (1, 3, 4, 5)
            for idx in range(len(enumerate_characters(d)))
            for r in (1, 2, 3, 4)]

DIGESTS = {
    "triple_bernoulli":
        "c086c1e76f892100285a0224e2c4e2996e5c1fa0f9a7c7ce59bad19cb8c33620",
    "bernoulli_bernoulli_powersum":
        "290423a49729ddcdbc71d06577d8ff40ad4e36c8638f59fc7d1cb1407f6b32b6",
    "bernoulli_shifted_bernoulli":
        "290423a49729ddcdbc71d06577d8ff40ad4e36c8638f59fc7d1cb1407f6b32b6",
    "bernoulli_shifted_bernoulli_printed":
        "6b24ec6c7a1d9fe55800657ffa5a8a545bc8a325f985d1efb5f5e7c7e510d2dc",
    "bernoulli_powersum_powersum":
        "1db829f3effd4d213f6234d1a64d0a2b5b0a66e9dc83c06d2a9a99161280b531",
    "shifted_bernoulli_powersum":
        "1db829f3effd4d213f6234d1a64d0a2b5b0a66e9dc83c06d2a9a99161280b531",
    "double_shifted_bernoulli":
        "1db829f3effd4d213f6234d1a64d0a2b5b0a66e9dc83c06d2a9a99161280b531",
    "triple_powersum":
        "6b90460a127a10481f2237aa126e436e5a08959d7cd4d56f6aed1c3dab292c25",
    "cyclic_triple_bernoulli":
        "fb051a72a521c2061e8a303053f0935f84e6aa2c582ed69d11041f737e6c2458",
    "cyclic_triple_powersum":
        "616b82a236de1eb4c7223627b4cd2e9a094582a26ad2c379b79d9f1ac8611c97",
    "swap-variant-1":
        "1db829f3effd4d213f6234d1a64d0a2b5b0a66e9dc83c06d2a9a99161280b531",
    "swap-variant-2":
        "1db829f3effd4d213f6234d1a64d0a2b5b0a66e9dc83c06d2a9a99161280b531",
    "swap-variant-3":
        "1db829f3effd4d213f6234d1a64d0a2b5b0a66e9dc83c06d2a9a99161280b531",
    "cycle-variant-1":
        "616b82a236de1eb4c7223627b4cd2e9a094582a26ad2c379b79d9f1ac8611c97",
    "cycle-variant-2":
        "616b82a236de1eb4c7223627b4cd2e9a094582a26ad2c379b79d9f1ac8611c97",
    "cycle-variant-3":
        "616b82a236de1eb4c7223627b4cd2e9a094582a26ad2c379b79d9f1ac8611c97",
    "cycle-variant-4":
        "616b82a236de1eb4c7223627b4cd2e9a094582a26ad2c379b79d9f1ac8611c97",
}


def _digest(row):
    h = hashlib.sha256()
    for d, idx, r in CONTEXTS:
        ctx = TwistContext.from_orders(d, idx, r, 1)
        for w in WEIGHTS:
            for n in range(N_MAX + 1):
                h.update(str(evaluate(row, ctx, w, n)).encode() + b"\n")
    return h.hexdigest()


def test_grid_size():
    assert len(CONTEXTS) == 36
    assert len(_ROWS) * len(CONTEXTS) * len(WEIGHTS) * (N_MAX + 1) == 18360


def test_every_row_is_pinned():
    assert set(DIGESTS) == set(_ROWS)


@pytest.mark.parametrize("row", sorted(DIGESTS))
def test_row_digest(row):
    assert _digest(row) == DIGESTS[row]
