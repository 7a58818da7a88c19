"""Differential test of the integer-vector cyclotomic core.

Every operation is checked against a small, independent reference that
works on Fraction coefficient vectors in Q[x]/Phi_L(x) with schoolbook
polynomial arithmetic, and every result is checked to be in canonical form.
The fused kernel ``dot``, the sequence product ``product`` and the series
products and quotients built on them are checked against plain sums of
element products, and ``SymPoly`` against the ring laws, its scalar
coercions and its no-stored-zero invariant.
"""

import math
import operator
import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from twistbern import cyclo  # noqa: E402
from twistbern.cyclo import (_PACK_DEGREE, CycloField,  # noqa: E402
                             CycloNumber, _convolve_into, cyclo_field,
                             cyclotomic_polynomial, dot, euler_phi, product)
from twistbern.series import PowerSeries  # noqa: E402
from twistbern.sympoly import SymPoly  # noqa: E402

from cyclo_helpers import embed_into  # noqa: E402

ORDERS = (1, 2, 3, 4, 5, 8, 12, 15, 60)
SETTINGS = settings(derandomize=True, max_examples=100, deadline=None,
                    database=None)


# -- reference: Fraction vectors, remainder by the monic modulus ------------

def ref_reduce(poly, order):
    mod = cyclotomic_polynomial(order)
    deg = len(mod) - 1
    r = [Fraction(c) for c in poly] + [Fraction(0)] * max(0, deg - len(poly))
    for top in range(len(r) - 1, deg - 1, -1):
        c = r[top]
        if c:
            for j, m in enumerate(mod):
                r[top - deg + j] -= c * m
    return tuple(r[:deg])


def ref_mul(a, b, order):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_reduce(out, order)


def ref_root(k, order):
    e = k % order
    return ref_reduce([0] * e + [1], order)


def ref_embed(a, source, target):
    step = target // source
    out = [Fraction(0)] * (step * (len(a) - 1) + 1)
    for i, c in enumerate(a):
        out[step * i] += c
    return ref_reduce(out, target)


def assert_canonical(x: CycloNumber):
    assert len(x.num) == x.field.degree
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


# -- strategies ---------------------------------------------------------------

rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6)))


@st.composite
def element_of(draw, order):
    field = cyclo_field(order)
    coeffs = draw(st.lists(rationals, min_size=field.degree,
                           max_size=field.degree))
    return field.element(coeffs)


@st.composite
def pair(draw):
    order = draw(st.sampled_from(ORDERS))
    return draw(element_of(order)), draw(element_of(order))


scalars = st.one_of(st.integers(-50, 50),
                    st.builds(Fraction, st.integers(-50, 50),
                              st.integers(1, 30)))


# -- properties ------------------------------------------------------------------

@SETTINGS
@given(pair())
def test_ring_operations_match_reference(ab):
    a, b = ab
    L = a.field.order
    for x in (a, b):
        assert_canonical(x)
    s, d, p = a + b, a - b, a * b
    for x in (s, d, p, -a):
        assert_canonical(x)
    assert s.coeffs == tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
    assert d.coeffs == tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
    assert p.coeffs == ref_mul(a.coeffs, b.coeffs, L)
    assert (-a).coeffs == tuple(-x for x in a.coeffs)
    assert (a == b) == (a.coeffs == b.coeffs)
    if a == b:
        assert hash(a) == hash(b)


@SETTINGS
@given(pair(), scalars)
def test_scalar_operations_match_reference(ab, q):
    a, _ = ab
    for x in (a * q, q * a, a + q, q + a, a - q, q - a):
        assert_canonical(x)
    assert (a * q).coeffs == tuple(c * q for c in a.coeffs)
    assert (q * a) == a * q
    assert (a + q).coeffs == (a.coeffs[0] + q,) + a.coeffs[1:]
    assert (q - a).coeffs == tuple(-c for c in (a - q).coeffs)
    if q:
        assert_canonical(a / q)
        assert (a / q).coeffs == tuple(c / Fraction(q) for c in a.coeffs)


def test_scalar_products_cancel_every_small_denominator():
    # x * p and x * (p/q) cancel gcd(den, p) and gcd(q, *num) beforehand;
    # every small den, p and q, so each cancellation is met
    for order in (1, 4, 15):
        f = cyclo_field(order)
        for den in range(1, 13):
            x = f.element([Fraction(k + 1, den) for k in range(f.degree)])
            for p in range(-12, 13):
                for q in (1, 2, 3, 4, 6):
                    got = x * Fraction(p, q)
                    assert_canonical(got)
                    assert got.coeffs == tuple(c * Fraction(p, q)
                                               for c in x.coeffs)
                assert_canonical(x * p)
                assert (x * p).coeffs == tuple(c * p for c in x.coeffs)


def test_sums_cancel_every_small_denominator_pair():
    # a/da + b/db is brought to canonical form by one gcd over lcm(da, db);
    # every pair da, db <= 12 (equal, coprime, sharing a factor) with
    # numerators m * (k + 1), so each cancellation of a common factor is met
    for order in (1, 4, 15):
        f = cyclo_field(order)
        for da in range(1, 13):
            x = f.element([Fraction(k + 1, da) for k in range(f.degree)])
            for db in range(1, 13):
                for m in range(-3, 4):
                    y = f.element([Fraction(m * (k + 1), db)
                                   for k in range(f.degree)])
                    for got, op in ((x + y, operator.add),
                                    (x - y, operator.sub)):
                        assert_canonical(got)
                        assert got.coeffs == tuple(map(op, x.coeffs,
                                                       y.coeffs))


def test_scalar_sums_and_quotients_of_every_small_denominator():
    # int and Fraction operands of +, - and their reflected forms, and / by
    # scalars of either sign, against the Fraction coordinates
    operands = [*range(-12, 13), *(Fraction(p, r) for p in (-7, -2, 1, 5)
                                   for r in range(2, 13))]
    for order in (1, 4, 15):
        f = cyclo_field(order)
        for den in range(1, 13):
            x = f.element([Fraction(k + 1, den) for k in range(f.degree)])
            c = x.coeffs
            neg = tuple(-a for a in c[1:])
            for q in operands:
                cases = [(x + q, (c[0] + q,) + c[1:]),
                         (q + x, (q + c[0],) + c[1:]),
                         (x - q, (c[0] - q,) + c[1:]),
                         (q - x, (q - c[0],) + neg)]
                if q:
                    cases.append((x / q, tuple(a / q for a in c)))
                for got, want in cases:
                    assert_canonical(got)
                    assert got.coeffs == want


@SETTINGS
@given(pair())
def test_inverse_against_reference_product(ab):
    a, b = ab
    L = a.field.order
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    inv = a.inverse()
    assert_canonical(inv)
    one = (Fraction(1),) + (Fraction(0),) * (a.field.degree - 1)
    assert ref_mul(a.coeffs, inv.coeffs, L) == one
    assert a * inv == 1
    q = b / a
    assert_canonical(q)
    assert ref_mul(q.coeffs, a.coeffs, L) == b.coeffs


@SETTINGS
@given(st.sampled_from(ORDERS), st.integers(-200, 200))
def test_root_matches_reference(order, k):
    z = cyclo_field(order).root(k)
    assert_canonical(z)
    assert z.coeffs == ref_root(k, order)
    assert z == cyclo_field(order).root(1) ** (k % order)


EMBEDDINGS = [(s, t) for s in ORDERS for t in ORDERS if s < t and t % s == 0]


@SETTINGS
@given(st.sampled_from(EMBEDDINGS), st.data())
def test_embed_into_is_a_ring_homomorphism(st_pair, data):
    source, target = st_pair
    a = data.draw(element_of(source))
    b = data.draw(element_of(source))
    field = cyclo_field(target)
    ea, eb = embed_into(a, field), embed_into(b, field)
    for x in (ea, eb):
        assert_canonical(x)
    assert ea.coeffs == ref_embed(a.coeffs, source, target)
    assert embed_into(a + b, field) == ea + eb
    assert embed_into(a * b, field) == ea * eb
    assert embed_into(a.field.one, field) == field.one


def test_canonical_zero_and_one():
    for order in ORDERS:
        f = cyclo_field(order)
        assert f.zero.num == (0,) * f.degree and f.zero.den == 1
        x = f.element([Fraction(k + 1, 3) for k in range(f.degree)])
        z = x - x
        assert_canonical(z)
        assert z == f.zero and hash(z) == hash(f.zero)
        assert x * x.inverse() == f.one


# -- the fused dot-product kernel and the series built on it -------------------

@st.composite
def sparse_element_of(draw, order):
    # whole-element zeros are rare among random coordinates, so draw them too
    return draw(st.one_of(st.just(cyclo_field(order).zero),
                          element_of(order)))


@st.composite
def vector_pair(draw):
    order = draw(st.sampled_from(ORDERS))
    n = draw(st.integers(0, 7))
    vec = st.lists(sparse_element_of(order), min_size=n, max_size=n)
    return cyclo_field(order), draw(vec), draw(vec)


def plain_dot(field, xs, ys):
    return sum((x * y for x, y in zip(xs, ys)), field.zero)


def plain_series_mul(a, b):
    n = min(len(a), len(b))
    zero = a[0].field.zero
    return tuple(sum((a[i] * b[k - i] for i in range(k + 1)), zero)
                 for k in range(n))


@SETTINGS
@given(vector_pair())
def test_dot_matches_sum_of_products(fxy):
    field, xs, ys = fxy
    got = dot(field, xs, ys)
    assert_canonical(got)
    assert got == plain_dot(field, xs, ys)
    # zip semantics: the longer operand is cut to the shorter one
    assert dot(field, xs, ys[:-1]) == plain_dot(field, xs[:-1], ys[:-1])


def test_dot_edge_cases():
    for order in ORDERS:
        f = cyclo_field(order)
        z = dot(f, [], [])
        assert_canonical(z)
        assert z == f.zero
        x = f.element([Fraction(k + 1, 6) for k in range(f.degree)])
        y = f.element([Fraction(1, k + 5) for k in range(f.degree)])
        assert dot(f, [f.zero, x], [y, f.zero]) == f.zero
        # mixed denominators whose products cancel to an integer
        got = dot(f, [x, -x, f.from_rational(Fraction(1, 3))],
                  [y, y, f.from_rational(3)])
        assert_canonical(got)
        assert got == f.one
    with pytest.raises(ValueError, match="field mismatch"):
        dot(cyclo_field(4), [cyclo_field(3).one], [cyclo_field(4).one])


# -- the packed path of dot, at the degrees of the wide fields -------------------

# degrees 48, 48, 96; then the prime 13 (degree 12, the packing degree) and
# the prime powers 27 and 32 (degrees 18 and 16), whose unreduced products
# reach x^L (odd L) or x^(L/2) (even L), the first fold of _fold
WIDE_ORDERS = (105, 210, 420, 13, 27, 32)


def _wide_element(rng, field, magnitude, den=1):
    return field.element([Fraction(rng.randint(-magnitude, magnitude), den)
                          for _ in range(field.degree)])


def _monomial(field, i, c):
    return field.element([c if j == i else 0 for j in range(field.degree)])


def test_packed_dot_at_the_width_boundary():
    # one pair of monomials A x^i, B x^j has the one digit A*B, which is the
    # coefficient bound itself: at +-(2^(8m-1) - 1) it fills m bytes to the
    # edge, at +-2^(8m-1) and one past it the next width begins
    for order in WIDE_ORDERS:
        f = cyclo_field(order)
        top = f.degree - 1
        for m in (1, 2, 3, 5):
            edge = 2 ** (8 * m - 1)
            for a_coef in (edge - 1, edge, edge + 1, -(edge - 1), -edge):
                for b_coef in (1, -1, 3):
                    for i, j in ((0, 0), (top, 0), (top, top), (2, top - 1)):
                        xs = [_monomial(f, i, a_coef)]
                        ys = [_monomial(f, j, b_coef)]
                        got = dot(f, xs, ys)
                        assert_canonical(got)
                        assert got == plain_dot(f, xs, ys), (order, m, i, j)
                # several pairs whose digits add to the summed bound
                xs = [_monomial(f, top, edge - 1)] * 3
                ys = [_monomial(f, top, -1)] * 3
                assert dot(f, xs, ys) == plain_dot(f, xs, ys)


@pytest.mark.parametrize("width", [1, 2, 4])
def test_pack_round_trips_at_the_digit_edge(width):
    # 10006 digits, the degree of Q(zeta_10007), each within one of
    # +-2^(8*width - 1): _pack's value is the plain sum of c_i 2^(8*width*i),
    # and _unpack gives every digit back
    edge = 2 ** (8 * width - 1) - 1
    rng = random.Random(width)
    v = [rng.choice((edge, -edge, 0, 1, -1)) for _ in range(10006)]
    v[0], v[-1] = -edge, edge
    packed = cyclo._pack(v, width)
    assert packed == sum(c << (8 * width * i) for i, c in enumerate(v))
    assert cyclo._unpack(packed, width, len(v)) == v
    negated = cyclo._pack([-c for c in v], width)
    assert negated == -packed
    assert cyclo._unpack(negated, width, len(v)) == [-c for c in v]


def test_packed_dot_matches_sum_of_products():
    rng = random.Random(2009)
    for order in WIDE_ORDERS:
        f = cyclo_field(order)
        assert f.degree >= _PACK_DEGREE
        for pairs in (1, 2, 7):
            for magnitude in (1, 2**20, 2**90):
                xs = [_wide_element(rng, f, magnitude) for _ in range(pairs)]
                ys = [_wide_element(rng, f, magnitude) for _ in range(pairs)]
                got = dot(f, xs, ys)
                assert_canonical(got)
                assert got == plain_dot(f, xs, ys), (order, pairs, magnitude)
        # mixed denominators, and zero operands among nonzero ones
        xs = [_wide_element(rng, f, 50, den) for den in (1, 6, 35, 4)]
        ys = [_wide_element(rng, f, 50, den) for den in (9, 1, 14, 25)]
        for zeros in ((), (1,), (0, 3), (0, 1, 2, 3)):
            xz = [f.zero if k in zeros else x for k, x in enumerate(xs)]
            got = dot(f, xz, ys)
            assert_canonical(got)
            assert got == plain_dot(f, xz, ys), (order, zeros)
        assert dot(f, [f.zero], [xs[0]]) == f.zero
        assert dot(f, [], []) == f.zero
        # a single pair is the field product
        assert dot(f, xs[2:3], ys[2:3]) == xs[2] * ys[2]
        # mixed denominators whose products cancel to an integer
        assert dot(f, [xs[1], -xs[1], f.from_rational(Fraction(1, 3))],
                   [ys[1], ys[1], f.from_rational(3)]) == f.one


def test_dot_on_both_sides_of_the_packing_threshold(monkeypatch):
    # the smallest field of the threshold degree, and the largest degree
    # below it (no field has an odd degree above 1)
    at = min(L for L in range(1, 200) if euler_phi(L) == _PACK_DEGREE)
    below = max((euler_phi(L), L) for L in range(1, 200)
                if euler_phi(L) < _PACK_DEGREE)[1]
    packed, real = [], cyclo._packed_convolution
    monkeypatch.setattr(cyclo, "_packed_convolution",
                        lambda *args: packed.append(args) or real(*args))
    rng = random.Random(12)
    for order in (at, below):
        packed.clear()
        f = cyclo_field(order)
        for pairs in (1, 3, 6):
            for magnitude in (1, 10**6):
                xs = [_wide_element(rng, f, magnitude, rng.randint(1, 9))
                      for _ in range(pairs)]
                ys = [_wide_element(rng, f, magnitude) for _ in range(pairs)]
                got = dot(f, xs, ys)
                assert_canonical(got)
                assert got == plain_dot(f, xs, ys), (order, pairs, magnitude)
                # * is a one-pair dot: each product against the
                # Fraction reference, which never touches the kernels
                for x, y in zip(xs, ys):
                    p = x * y
                    assert_canonical(p)
                    assert p.coeffs == ref_mul(x.coeffs, y.coeffs, order)
                    assert y * x == p
        # dot alone chooses the convolution, by degree, for dot and * alike
        assert bool(packed) == (order == at)


@pytest.mark.parametrize("orders", [(3, 4), (13, 21)])
def test_product_of_two_fields_raises(orders):
    # equal degrees (2, and the packing degree 12), so only the field check
    # of dot tells the operands apart; a zero operand is checked too
    f, g = (cyclo_field(order) for order in orders)
    assert f.degree == g.degree <= _PACK_DEGREE
    rng = random.Random(sum(orders))
    x, y = _wide_element(rng, f, 9), _wide_element(rng, g, 9)
    for a, b in ((x, y), (y, x), (f.zero, y), (x, g.zero)):
        with pytest.raises(ValueError, match="field mismatch"):
            a * b


@pytest.mark.parametrize("order", (15, 21))  # degrees 8 and 12
def test_product_across_equal_fields_matches_reference(order):
    # an element of a fresh CycloField(L) and one of the cached
    # cyclo_field(L) multiply as elements of one field, in either order
    fresh, cached = CycloField(order), cyclo_field(order)
    assert fresh is not cached
    rng = random.Random(order)
    x = _wide_element(rng, fresh, 40, 6)
    y = _wide_element(rng, cached, 40, 35)
    want = ref_mul(x.coeffs, y.coeffs, order)
    for p in (x * y, y * x):
        assert_canonical(p)
        assert p.coeffs == want


@pytest.mark.parametrize("order", WIDE_ORDERS)
def test_wide_product_matches_sympy_remainder(order):
    # a * b in the packed range against sympy's remainder of the plain
    # polynomial product by Phi_L, over mixed denominators and magnitudes
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(order, x), x, domain="QQ")
    f = cyclo_field(order)
    assert f.degree >= _PACK_DEGREE
    rng = random.Random(order)
    for magnitude, den_a, den_b in ((1, 1, 1), (2**20, 6, 35), (2**70, 1, 9)):
        a = _wide_element(rng, f, magnitude, den_a)
        b = _wide_element(rng, f, magnitude, den_b)
        pa, pb = (sympy.Poly(list(reversed([sympy.Rational(c.numerator,
                                                           c.denominator)
                                            for c in v.coeffs])), x,
                             domain="QQ") for v in (a, b))
        rem = sympy.rem(pa * pb, phi).all_coeffs()
        want = [Fraction(int(c.p), int(c.q)) for c in reversed(rem)]
        want += [Fraction(0)] * (f.degree - len(want))
        got = a * b
        assert_canonical(got)
        assert got.coeffs == tuple(want), (order, magnitude)
    assert a * f.zero == f.zero and a * f.one == a


def _sympy_remainder(order):
    """v -> v rem Phi_L as degree ints, for integer coefficients v (constant
    term first), by sympy's remainder of dense integer polynomials."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.densearith import dup_rem
    from sympy.polys.densebasic import dup_strip
    from sympy.polys.domains import ZZ
    x = sympy.Symbol("x")
    phi = [ZZ(int(c)) for c in
           sympy.Poly(sympy.cyclotomic_poly(order, x), x).all_coeffs()]

    def rem(v):
        r = dup_rem(dup_strip([ZZ(c) for c in reversed(v)]), phi, ZZ)
        return [int(c) for c in reversed(r)] + [0] * (len(phi) - 1 - len(r))
    return rem


# (L, number of fold steps): chains of 3-5 sparse multiples of Phi_L (at 75,
# Phi_25(x^3) falls below x^75 = 1 though 3 is the only exact prime), then
# the plain x^(L/2) = -1 or x^L = 1 step before a dense Phi_212, Phi_101
# and the sparse Phi_125 = Phi_5(x^25)
FOLD_CHAINS = ((195, 4), (390, 4), (159, 3), (255, 4), (315, 4), (75, 3),
               (212, 2), (125, 2), (101, 2))


@pytest.mark.parametrize("order", (105, 420) + tuple(L for L, _ in FOLD_CHAINS))
def test_roots_fold_matches_sympy_remainder(order):
    # every root of a fresh field, asked for in shuffled order, against an
    # independent x^e rem Phi_L: each root is the unit vector x^e folded on
    # its own, through every fold chain; the cache holds each requested
    # root once, and e + L finds it
    rem = _sympy_remainder(order)
    field = CycloField(order)
    wanted, power = [], [1]
    for e in range(order):  # x^e rem Phi_L, one sympy remainder per step
        power = rem(power)
        wanted.append(tuple(power))
        power = [0] + power
    exponents = list(range(order))
    random.Random(order).shuffle(exponents)
    for e in exponents:
        z = field.root(e)
        assert_canonical(z)
        assert z.num == wanted[e], e
        assert field.root(e + order) is z
    assert len(field._roots) == order  # only the requested roots are kept


@pytest.mark.parametrize("order,steps", FOLD_CHAINS)
def test_fold_chain_matches_sympy_remainder(order, steps):
    # each step (top, pairs) is x^top - sum c x^j for a multiple of Phi_L,
    # of falling degree, down to Phi_L itself; vectors of every length from
    # the degree to 3L fold to sympy's remainder
    rem = _sympy_remainder(order)
    field = CycloField(order)
    tops = [top for top, _ in field._steps]
    assert len(tops) == steps and tops == sorted(tops, reverse=True)
    assert tops[0] == (order // 2 if order % 2 == 0 else order)
    for top, pairs in field._steps:
        step = [0] * top + [1]
        for j, c in pairs:
            step[j] -= c
        assert not any(rem(step)), top
    top, pairs = field._steps[-1]
    assert top == field.degree
    assert pairs == tuple((j, -c) for j, c in enumerate(field.modulus[:-1])
                          if c)
    rng = random.Random(order)
    for n in (field.degree, field.degree + 1, 2 * field.degree - 1,
              tops[1] + 1, order, 2 * order + 1, 3 * order):
        v = [rng.randint(-9, 9) for _ in range(n)]
        assert cyclo._fold(field, list(v)) == rem(v), n


def test_fold_chain_leaves_out_the_prime_2():
    # for an exact 2, Phi_{L/2}(x^2) has as many terms as Phi_L(x) =
    # Phi_{L/2}(-x): at L = 2 * 9 * 25 * 49 it would fall below x^(L/2) = -1
    # and stand as one more dense step
    assert [top for top, _ in CycloField(22050)._steps] == [11025, 5040]


def _nonzero_terms(num):
    return len(num) - num.count(0)


@pytest.mark.parametrize("order", WIDE_ORDERS)
def test_dot_packs_only_pairs_of_two_dense_operands(order, monkeypatch):
    # one dot call over monomial x dense, dense x monomial, rational x dense
    # and dense x dense pairs with mixed denominators, against sympy's
    # remainder of the summed products; only the dense x dense pairs are
    # packed, the others go through the schoolbook loop
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(order, x), x, domain="QQ")
    packed, real = [], cyclo._packed_convolution
    monkeypatch.setattr(cyclo, "_packed_convolution",
                        lambda pairs, *args: packed.extend(pairs)
                        or real(pairs, *args))
    f = cyclo_field(order)
    rng = random.Random(order)
    top = f.degree - 1
    dense = [_wide_element(rng, f, 2**30, den) for den in (1, 6, 35, 4, 9)]
    xs = [_monomial(f, top, Fraction(-7, 10)), dense[0],
          f.from_rational(Fraction(5, 12)), dense[1], _monomial(f, 3, 2),
          dense[2], f.root(order - 1)]
    ys = [dense[3], _monomial(f, top - 2, Fraction(9, 14)), dense[4],
          dense[0], f.from_rational(-3), dense[1], dense[2]]
    got = dot(f, xs, ys)
    assert_canonical(got)
    dense_pairs = sum(_nonzero_terms(a.num) > 1 and _nonzero_terms(b.num) > 1
                      for a, b in zip(xs, ys))
    assert len(packed) == dense_pairs >= 2
    assert all(_nonzero_terms(a) > 1 and _nonzero_terms(b) > 1
               for a, b, _ in packed)
    want = sympy.Poly(0, x, domain="QQ")
    for a, b in zip(xs, ys):
        pa, pb = (sympy.Poly(list(reversed([sympy.Rational(c.numerator,
                                                           c.denominator)
                                            for c in v.coeffs])), x,
                             domain="QQ") for v in (a, b))
        want += pa * pb
    rem = [Fraction(int(c.p), int(c.q))
           for c in reversed(sympy.rem(want, phi).all_coeffs())]
    assert got.coeffs == tuple(rem + [Fraction(0)] * (f.degree - len(rem)))
    assert got == plain_dot(f, xs, ys)


# -- product: the Cauchy product of a chain of sequences ------------------------

# both sides of _PACK_DEGREE: degrees 1, 1, 2, 2, 4, 4, 4, 12, 8, 16, 48
PRODUCT_ORDERS = (1, 2, 3, 4, 5, 8, 12, 13, 15, 60, 105)
# small ones, factorials (the t^j/j! of exp series) and Bernoulli denominators
DENOMINATORS = (1, 2, 3, 7, 6, 24, 120, 5040, 362880, 30, 42, 66, 2730, 798)


def _coefficient(rng, field, kind, den):
    """zero, a rational, a one-term c*x^i, a root of unity or a dense
    element, over den."""
    if kind == "zero":
        return field.zero
    if kind == "root":
        return field.root(rng.randrange(field.order)) * Fraction(
            rng.choice((-1, 1, 691)), den)
    if kind == "dense":
        return _wide_element(rng, field, rng.choice((9, 2**40)), den)
    c = Fraction(rng.randint(1, 10**6) * rng.choice((-1, 1)), den)
    return _monomial(field, 0 if kind == "rational" else
                     rng.randrange(field.degree), c)


KINDS = ("zero", "zero", "rational", "one-term", "root", "dense")


@st.composite
def product_case(draw):
    """(field, seqs, n): 1-6 sequences of at least n <= 9 coefficients."""
    field = cyclo_field(draw(st.sampled_from(PRODUCT_ORDERS)))
    n = draw(st.integers(1, 9))
    rng = random.Random(draw(st.integers(0, 2**32)))
    seqs = []
    for _ in range(draw(st.integers(1, 6))):
        kinds = draw(st.sampled_from((KINDS, ("zero",), ("rational",),
                                      ("one-term", "root"))))
        seqs.append([_coefficient(rng, field, rng.choice(kinds),
                                  rng.choice(DENOMINATORS))
                     for _ in range(n + draw(st.integers(0, 2)))])
    return field, seqs, n


def plain_product(field, seqs, n):
    """The chain of per-coefficient sums of x * y, to n terms."""
    acc = list(seqs[0][:n])
    for seq in seqs[1:]:
        acc = [sum((acc[i] * seq[k - i] for i in range(k + 1)), field.zero)
               for k in range(n)]
    return acc


@SETTINGS
@given(product_case())
def test_product_matches_chain_of_plain_sums(case):
    field, seqs, n = case
    got = product(field, seqs, n)
    assert len(got) == n
    for c in got:
        assert_canonical(c)
    assert got == plain_product(field, seqs, n)
    # n is cut to the shortest sequence
    top = min(map(len, seqs))
    assert product(field, seqs, n + 3) == plain_product(field, seqs, top)


# degrees 1 and 2 (scalar sums), 4 (the schoolbook loop) and 12 (packed
# rows, which no benchmark workload reaches): each branch of _row_times
ORDER_FREE_FIELDS = (2, 3, 5, 13)


@pytest.mark.parametrize("order", ORDER_FREE_FIELDS)
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data(), const=scalars)
def test_a_product_of_row_tables_does_not_depend_on_their_order(
        order, data, const):
    # what makes weight orders with one operand multiset give equal forms
    field = cyclo_field(order)
    n = data.draw(st.integers(1, 8))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    tables = []
    for _ in range(data.draw(st.integers(2, 4))):
        kinds = data.draw(st.sampled_from((KINDS, ("rational",),
                                           ("one-term", "root"))))
        seq = [_coefficient(rng, field, rng.choice(kinds),
                            rng.choice(DENOMINATORS))
               for _ in range(n + data.draw(st.integers(0, 2)))]
        tables.append(cyclo._rows(field, seq, len(seq)))
    perm = data.draw(st.permutations(range(len(tables))))
    assert product(field, [tables[k] for k in perm], n, const) == \
        product(field, tables, n, const)


# degrees 1, 2, 4 and _PACK_DEGREE: the scalar sums, the schoolbook loop
# and packed rows
HEAD_ORDERS = (2, 3, 5, 13)


@pytest.mark.parametrize("order", HEAD_ORDERS)
@pytest.mark.parametrize("const", [1, -3, Fraction(-5, 12)])
def test_a_product_of_tables_longer_than_n_is_its_first_n_terms(order,
                                                               const):
    # stored tables are often longer than the n asked: product cuts n by
    # the tables' lengths, and the rows past n of one table, never cut off
    # at degree 1 and 2, must add nothing; const is split as it stands
    field = cyclo_field(order)
    assert field.degree in (1, 2, 4, _PACK_DEGREE)
    rng = random.Random(order)
    for count in (1, 2, 4):
        for n in (1, 3, 7):
            seqs = [[_coefficient(rng, field, rng.choice(KINDS),
                                  rng.choice(DENOMINATORS))
                     for _ in range(n + rng.randint(0, 3))]
                    + [_coefficient(rng, field, "root", 1)]
                    for _ in range(count)]
            tables = [cyclo._rows(field, seq, len(seq)) for seq in seqs]
            assert all(table.rows[-1][0] >= n for table in tables)
            want = [c * const for c in plain_product(field, seqs, n)]
            got = product(field, tables, n, const)
            for c in got:
                assert_canonical(c)
            assert got == want, (count, n)
            # n is cut to the shortest table
            top = min(map(len, seqs))
            assert product(field, tables, top + 2, const) == [
                c * const for c in plain_product(field, seqs, top)]


@pytest.mark.parametrize("order", PRODUCT_ORDERS)
def test_product_takes_each_path_it_selects(order, monkeypatch):
    # one row multiplication per factor after the first: at degree 1 and 2
    # by scalar sums, with no convolution call and no packing; from
    # _PACK_DEGREE on by packing its rows, with no convolution call; in
    # between by the schoolbook loop; fresh and cached fields of one order
    # mix
    logs = {name: [] for name in ("_row_times", "_scalar_times", "_pack",
                                  "_convolve_into")}
    for name, log in logs.items():
        def traced(*args, exact=getattr(cyclo, name), log=log, name=name,
                   **kwargs):
            log.append(name)
            return exact(*args, **kwargs)
        monkeypatch.setattr(cyclo, name, traced)
    field, fresh = cyclo_field(order), CycloField(order)
    deg = field.degree
    branch = ("_scalar_times" if deg <= 2 else
              "_pack" if deg >= _PACK_DEGREE else "_convolve_into")
    rng = random.Random(order)
    for count in (1, 2, 3, 6):
        seqs = [[_coefficient(rng, (field, fresh)[(j + k) % 2],
                              rng.choice(KINDS), rng.choice(DENOMINATORS))
                 for k in range(8)] for j in range(count)]
        want = plain_product(field, seqs, 8)
        for log in logs.values():
            log.clear()
        got = product(field, seqs, 8)
        for c in got:
            assert_canonical(c)
        assert got == want, (order, count)
        assert logs["_row_times"] == ["_row_times"] * (count - 1)
        taken = {name for name, log in logs.items()
                 if log and name != "_row_times"}
        assert taken == ({branch} if count > 1 else set()), (order, count)
        if deg <= 2:
            assert len(logs["_scalar_times"]) == count - 1


# degrees 1 and 2, where _row_times multiplies rows as scalar sums
SCALAR_ORDERS = (1, 2, 3, 4, 6)


@st.composite
def scalar_product_case(draw):
    """(field, seqs, n) at degree 1 or 2: 2-5 sequences of n <= 10
    elements, zeros among them."""
    order = draw(st.sampled_from(SCALAR_ORDERS))
    n = draw(st.integers(1, 10))
    seq = st.lists(sparse_element_of(order), min_size=n, max_size=n)
    return (cyclo_field(order), draw(st.lists(seq, min_size=2, max_size=5)),
            n)


def dot_chain(field, seqs, n):
    """The chain of per-coefficient dots: coefficient k of acc * seq is
    dot(acc[:k+1], seq[k::-1]), to n terms."""
    acc = list(seqs[0][:n])
    for seq in seqs[1:]:
        acc = [dot(field, acc[:k + 1], seq[k::-1]) for k in range(n)]
    return acc


@SETTINGS
@given(scalar_product_case(), scalars)
def test_scalar_row_products_match_a_chain_of_dots(case, const):
    field, seqs, n = case
    want = dot_chain(field, seqs, n)
    got = product(field, seqs, n)
    for c in got:
        assert_canonical(c)
    assert got == want
    tables = [cyclo._rows(field, seq, n) for seq in seqs]
    assert product(field, tables, n, const) == [c * const for c in want]


@st.composite
def degree_two_rows(draw):
    """(field, left, right, n) at L = 3, 4 or 6: two lists of rows (k, (a0,
    a1)) in rising k, signed integers, zero rows and coordinates among
    them."""
    field = cyclo_field(draw(st.sampled_from((3, 4, 6))))
    n = draw(st.integers(1, 9))
    coord = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))

    def rows():
        ks = draw(st.lists(st.integers(0, n + 1), unique=True, max_size=n))
        return [(k, (draw(coord), draw(coord))) for k in sorted(ks)]
    return field, rows(), rows(), n


@SETTINGS
@given(degree_two_rows())
def test_degree_two_scalar_times_is_convolve_and_fold(case):
    # the in-place fold by x^2 = -c0 - c1*x against _convolve_into on each
    # row pair and one _fold per output row, its zero rows dropped
    field, left, right, n = case
    acc = {}
    for i, a in left:
        for j, b in right:
            if i + j < n:
                _convolve_into(acc.setdefault(i + j, [0, 0, 0]), a, b)
    want = [(k, cyclo._fold(field, acc[k])) for k in sorted(acc)]
    want = [(k, row) for k, row in want if any(row)]
    got = cyclo._scalar_times(field, left, right, n)
    assert [(k, list(row)) for k, row in got] == want


def test_product_of_a_dense_chain_at_the_digit_width():
    # every coordinate equal, of one sign and near a byte boundary, so no
    # digit of the product cancels and the largest come close to the bound
    # that sets the packed width
    for order in (13, 60, 105):
        f = cyclo_field(order)
        for top in (2**7 - 1, 2**8, 2**31 - 1, -(2**40)):
            seq = [f.element([top] * f.degree)] * 5
            for count in (2, 3, 4):
                seqs = [seq] * count
                assert product(f, seqs, 5) == plain_product(f, seqs, 5)


@pytest.mark.parametrize("orders", [(3, 4), (13, 21)])
def test_product_of_sequences_of_two_fields_raises(orders):
    # equal degrees, so only the field check tells the sequences apart; the
    # foreign sequence comes first, in the middle or last, and may be zero
    f, g = (cyclo_field(order) for order in orders)
    rng = random.Random(sum(orders))
    ours = [_wide_element(rng, f, 9, 6) for _ in range(4)]
    theirs = [_wide_element(rng, g, 9, 6) for _ in range(4)]
    for count in (2, 3, 4):
        for at in range(count):
            for foreign in (theirs, [g.zero] * 4):
                seqs = [ours] * count
                seqs[at] = foreign
                with pytest.raises(ValueError, match="field mismatch"):
                    product(f, seqs, 4)


@st.composite
def series_pair(draw):
    order = draw(st.sampled_from(ORDERS))
    coeffs = [st.lists(sparse_element_of(order), min_size=n, max_size=n)
              for n in (draw(st.integers(1, 7)), draw(st.integers(1, 7)))]
    return PowerSeries(draw(coeffs[0])), PowerSeries(draw(coeffs[1]))


@SETTINGS
@given(series_pair())
def test_series_product_matches_plain_loop(ab):
    a, b = ab
    prod = a * b
    assert prod.coeffs == plain_series_mul(a.coeffs, b.coeffs)
    for c in prod.coeffs:
        assert_canonical(c)


@SETTINGS
@given(series_pair())
def test_series_inverse_times_series_is_one(ab):
    s, _ = ab
    if s.coeffs[0].is_zero():
        with pytest.raises(ValueError, match="not invertible"):
            s.invert()
        return
    inv = s.invert()
    for c in inv.coeffs:
        assert_canonical(c)
    f = s.coeffs[0].field
    one = PowerSeries([f.one] + [f.zero] * s.truncation)
    assert inv * s == one
    assert plain_series_mul(inv.coeffs, s.coeffs) == one.coeffs


@SETTINGS
@given(series_pair())
def test_series_divide_is_product_with_inverse(ab):
    a, b = ab
    if b.coeffs[0].is_zero():
        with pytest.raises(ValueError, match="not invertible"):
            a.divide(b)
        return
    q = a.divide(b)
    for c in q.coeffs:
        assert_canonical(c)
    n = min(len(a.coeffs), len(b.coeffs))  # the shorter truncation
    assert len(q.coeffs) == n
    assert q == a * b.invert()
    assert (q * b).coeffs == a.coeffs[:n]
    assert plain_series_mul(q.coeffs, b.coeffs) == a.coeffs[:n]


def test_series_divide_examples():
    f = cyclo_field(12)
    z = f.root(1)
    a = PowerSeries([z, f.one, f.zero, z * z])
    with pytest.raises(ValueError, match="not invertible"):
        a.divide(PowerSeries([f.zero, f.one, z]))
    # the constant term may vanish in the dividend, not in the divisor
    b = PowerSeries([f.zero, z, f.one])
    assert b.divide(a) == b * a.invert()
    # SymPoly coefficients take the plain-loop branch of the recurrence
    y = SymPoly.variable("y", f)
    one = SymPoly.one(f)
    den = PowerSeries([one + z] + [y * j + 1 for j in range(1, 5)])
    num = PowerSeries([y, y * y, one, y * z, one])
    q = num.divide(den)
    assert q == num * den.invert()
    assert q * den == num
    assert den.divide(den) == PowerSeries([one] + [SymPoly.zero(f)] * 4)
    with pytest.raises(ValueError, match="not invertible"):
        num.divide(PowerSeries([SymPoly.zero(f), one]))


# -- SymPoly: ring laws, scalar coercion, no stored zero ------------------------

exponents = st.tuples(*[st.integers(0, 2)] * 4)


@st.composite
def sympoly_of(draw, order, mirror=None):
    # mirror: a polynomial some of whose terms are drawn negated, so that
    # sums cancel whole monomials
    field = cyclo_field(order)
    terms = {}
    if mirror is not None and mirror.terms:
        for e in draw(st.lists(st.sampled_from(sorted(mirror.terms)),
                               unique=True)):
            terms[e] = -mirror.terms[e]
    for e in draw(st.lists(exponents, max_size=4, unique=True)):
        c = draw(sparse_element_of(order))
        if not c.is_zero():
            terms[e] = c
    return SymPoly(field, terms)


@st.composite
def sympoly_triple(draw):
    order = draw(st.sampled_from(ORDERS))
    a = draw(sympoly_of(order))
    b = draw(sympoly_of(order, mirror=a))
    c = draw(sympoly_of(order, mirror=b))
    return a, b, c


def assert_no_stored_zero(p):
    for c in p.terms.values():
        assert not c.is_zero()
        assert_canonical(c)


@SETTINGS
@given(sympoly_triple())
def test_sympoly_ring_laws(abc):
    a, b, c = abc
    zero = SymPoly.zero(a.field)
    results = [a + b, a * b, a - b, -a, b - a, a - a, a * zero, a ** 2,
               (a + b) + c, (a * b) * c, a * (b + c), a * b + a * c]
    for p in results:
        assert_no_stored_zero(p)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a
    assert (a - a).is_zero() and (a * zero).is_zero()
    assert a ** 2 == a * a
    assert a * SymPoly.one(a.field) == a


@SETTINGS
@given(st.sampled_from(ORDERS), st.data())
def test_sympoly_scalars_act_as_constant_polynomials(order, data):
    p = data.draw(sympoly_of(order))
    field = p.field
    q = data.draw(scalars)
    x = data.draw(sparse_element_of(order))
    for s, const in ((q, SymPoly.constant(field.from_rational(q))),
                     (x, SymPoly.constant(x))):
        for got, want in ((p * s, p * const), (s * p, const * p),
                          (p + s, p + const), (s + p, const + p),
                          (p - s, p - const), (s - p, const - p)):
            assert_no_stored_zero(got)
            assert got == want
        assert (p == s) == (p == const)
    if q:
        assert_no_stored_zero(p / q)
        assert p / q == p * SymPoly.constant(field.from_rational(
            Fraction(1) / Fraction(q)))
