"""Seeded sweep of the symmetry theorems and the expansion forms at random
points outside the acceptance grid, and the same checks at imprimitive
characters.

Each seeded point draws d <= 12, a character mod d, xi of order <= 12 (with
a random exponent coprime to the order), weights <= 7 and n <= 8, then
checks verify_theorem for every theorem id and expansion_consistency_check
for every form.  The sweep takes minutes, so its points are marked slow and
skipped by default; run them with `pytest -m slow`.  The imprimitive points
run by default: every imprimitive character mod d in {6, 8, 9, 10, 12},
where the acceptance grid has primitive characters only, xi of order 1-4 at
every exponent coprime to its order, its weight triples and n = 4.
"""

import math
import random

import pytest

from twistbern.bernoulli import TwistContext
from twistbern.characters import enumerate_characters
from twistbern.symmetry import (EXPANSION_FORMS, THEOREM_IDS, QuotientSpec,
                                expansion_consistency_check, verify_theorem)

SEED = 2010
POINTS = 200
# the grid of tests/test_acceptance.py
GRID_D = (1, 3, 4, 5)
GRID_XI = (1, 2, 3, 4)
GRID_W = ((1, 1, 1), (1, 2, 3), (2, 3, 5))


def _points():
    rng = random.Random(SEED)
    points = []
    while len(points) < POINTS:
        d = rng.randint(1, 12)
        idx = rng.randrange(len(enumerate_characters(d)))
        r = rng.randint(1, 12)
        e = rng.choice([k for k in range(1, r + 1) if math.gcd(k, r) == 1])
        w = tuple(rng.randint(1, 7) for _ in range(3))
        n = rng.randint(0, 8)
        if d in GRID_D and r in GRID_XI and w in GRID_W:
            continue
        points.append((d, idx, r, e, w, n))
    return points


def _imprimitive_points():
    return [(d, idx, r, e, w, 4) for d in (6, 8, 9, 10, 12)
            for idx, chi in enumerate(enumerate_characters(d))
            if not chi.is_primitive
            for r in GRID_XI for e in range(1, r + 1) if math.gcd(e, r) == 1
            for w in GRID_W[1:]]


def _id(point):
    d, idx, r, e, w, n = point
    return f"d{d}-chi{idx}-xi{e}of{r}-w{'.'.join(map(str, w))}-n{n}"


@pytest.mark.parametrize("point", [
    *(pytest.param(point, marks=pytest.mark.slow, id=_id(point))
      for point in _points()),
    *(pytest.param(point, id="imprimitive-" + _id(point))
      for point in _imprimitive_points())])
def test_offgrid_point(point):
    d, idx, r, e, w, n = point
    ctx = TwistContext.from_orders(d, idx, r, e)
    for tid in THEOREM_IDS:
        rep = verify_theorem(tid, ctx, w, n)
        assert rep.passed, (tid, rep.detail)
    for form, (family, i) in EXPANSION_FORMS.items():
        rep = expansion_consistency_check(
            form, QuotientSpec(family, i, w, ctx), n)
        assert rep.passed, (form, rep.detail)
