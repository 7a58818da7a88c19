"""Every expansion-form row against a per-composition, per-point oracle.

`symmetry._row_form` convolves per-piece scalar tables, and its lift
(`symmetry_helpers.evaluate`) writes the y-part of a row in closed form.
The oracle here is the direct route: the sum over the compositions
k1+..+kr = n of C(n; k) * prod c_i^k_i * piece_i(k_i), with each B piece a
SymPoly summed over its explicit shift points,
sum_p coef_p * B_k(u*y_slot + r_p) (one `bernoulli_polynomial` per point),
and each S piece a `power_sum`.
"""

import math
from fractions import Fraction

import pytest

from twistbern import symmetry, sympoly
from twistbern.bernoulli import TwistContext, bernoulli_polynomial, power_sum
from twistbern.symmetry import _ROWS
from twistbern.sympoly import VARIABLES, SymPoly

from symmetry_helpers import evaluate

N_MAX = 6
# principal, real and complex characters; xi of order 1, 2, 3 and 4
CONTEXTS = ((1, 0, 1), (1, 0, 3), (3, 0, 2), (3, 1, 2), (4, 1, 4), (5, 1, 3),
            (5, 2, 1))
WEIGHTS = ((1, 2, 3), (2, 1, 1))


def _points(ctx, sums):
    """(coef_p, r_p) over the product of the point sets of the sums entries."""
    points = [(ctx.field.one, Fraction(0))]
    for bound, m, s, q in sums:
        points = [(coef * ctx.chi_at(a) * ctx.xi_pow(a * m),
                   r + Fraction(s * a, q))
                  for coef, r in points for a in range(bound)
                  if not ctx.chi_at(a).is_zero()]
    return points


def _piece(ctx, desc):
    """j -> piece(j): a per-point SymPoly for a B piece, a power sum for S."""
    if desc[0] == "S":
        _, c, bound = desc
        return lambda j: SymPoly.constant(power_sum(ctx.twist(c), j, bound))
    _, c, u, slot, sums = desc
    y = SymPoly.variable(VARIABLES[slot], ctx.field)
    points = _points(ctx, sums)

    def value(j):
        acc = SymPoly.zero(ctx.field)
        for coef, r in points:
            acc = acc + bernoulli_polynomial(ctx.twist(c), j, y * u + r) * coef
        return acc
    return value


def _compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for k in range(n + 1):
        for rest in _compositions(n - k, parts - 1):
            yield (k,) + rest


def _oracle(row, ctx, w, n, memo):
    const, pieces = _ROWS[row](*w, ctx.d)
    values = []
    for desc in pieces:
        if desc not in memo:
            fn = _piece(ctx, desc)
            memo[desc] = [fn(j) for j in range(N_MAX + 1)]
        values.append(memo[desc])
    acc = SymPoly.zero(ctx.field)
    for ks in _compositions(n, len(pieces)):
        term = SymPoly.constant(ctx.field.one) * (const * math.factorial(n))
        for desc, k, vals in zip(pieces, ks, values):
            term = term * vals[k] * Fraction(desc[1] ** k, math.factorial(k))
        acc = acc + term
    return acc


@pytest.fixture(scope="module")
def memo():
    return {}


@pytest.mark.parametrize("d,idx,r", CONTEXTS,
                         ids=[f"d{d}-chi{i}-xi{r}" for d, i, r in CONTEXTS])
@pytest.mark.parametrize("row", sorted(_ROWS))
def test_row_matches_the_composition_oracle(row, d, idx, r, memo):
    ctx = TwistContext.from_orders(d, idx, r, 1)
    cache = memo.setdefault((d, idx, r), {})
    for w in WEIGHTS:
        for n in range(N_MAX + 1):
            want = _oracle(row, ctx, w, n, cache)
            assert evaluate(row, ctx, w, n) == want, (w, n)


def _mutated(row, change):
    """The row with change applied to its first B piece."""
    base = _ROWS[row]

    def mutant(w1, w2, w3, d):
        const, pieces = base(w1, w2, w3, d)
        pieces = list(pieces)
        i = next(i for i, p in enumerate(pieces) if p[0] == "B")
        pieces[i] = change(pieces[i])
        return const, pieces
    return mutant


@pytest.mark.parametrize("row,change", [
    # wrong u: the argument u*y becomes (u+1)*y
    ("triple_bernoulli", lambda p: (p[0], p[1], p[2] + 1, *p[3:])),
    ("double_shifted_bernoulli", lambda p: (p[0], p[1], p[2] + 1, *p[3:])),
    # wrong slot: y1 becomes y2, which another piece already occupies
    ("triple_bernoulli", lambda p: (*p[:3], symmetry._Y2, p[4])),
    ("bernoulli_shifted_bernoulli", lambda p: (*p[:3], symmetry._Y2, p[4])),
], ids=["u-triple", "u-double-shift", "slot-triple", "slot-shifted"])
def test_a_wrong_u_or_slot_is_seen(row, change, monkeypatch):
    ctx = TwistContext.from_orders(1, 0, 1, 1)
    w, n = (1, 2, 3), 3
    want = _oracle(row, ctx, w, n, {})
    monkeypatch.setitem(_ROWS, row, _mutated(row, change))
    assert evaluate(row, ctx, w, n) != want


def test_the_one_lift_is_checked_by_independent_oracles(monkeypatch):
    # every SymPoly of a quotient series and of a row comes from one
    # sympoly.lift; a perturbed coefficient there must show against both the
    # exp_scaled/SymPoly-product route and the per-composition oracle
    from test_symmetry import _symbolic_route

    real = sympoly.lift

    def perturbed(*args):
        poly = real(*args)
        if poly.terms:
            key = max(poly.terms, key=sum)  # one top-degree monomial
            poly.terms[key] = poly.terms[key] * 2
        return poly

    ctx, w, n = TwistContext.from_orders(1, 0, 1, 1), (1, 2, 3), 3
    spec = symmetry.QuotientSpec("pairwise", 1, w, ctx)
    want = _oracle("triple_bernoulli", ctx, w, n, {})
    got = symmetry.quotient_series(spec, n)
    assert got == _symbolic_route(spec, got)
    assert evaluate("triple_bernoulli", ctx, w, n) == want
    monkeypatch.setattr(sympoly, "lift", perturbed)
    got = symmetry.quotient_series(spec, n)
    assert got != _symbolic_route(spec, got)
    assert evaluate("triple_bernoulli", ctx, w, n) != want
