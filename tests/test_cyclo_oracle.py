"""Differential test of the integer-vector cyclotomic core.

Every operation is checked against a small, independent reference that
works on Fraction coefficient vectors in Q[x]/Phi_L(x) with schoolbook
polynomial arithmetic, and every result is checked to be in canonical form.
The fused kernel ``dot`` and the series products and quotients built on it
are checked against plain sums of element products, and ``SymPoly`` against
the ring laws, its scalar coercions and its no-stored-zero invariant.
"""

import math
import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from twistbern import cyclo  # noqa: E402
from twistbern.cyclo import (_PACK_DEGREE, CycloField,  # noqa: E402
                             CycloNumber, cyclo_field, cyclotomic_polynomial,
                             dot, embed_into, euler_phi)
from twistbern.series import PowerSeries  # noqa: E402
from twistbern.sympoly import SymPoly  # noqa: E402

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

WIDE_ORDERS = (105, 210, 420)  # degrees 48, 48, 96


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


@pytest.mark.parametrize("order", (105, 420))
def test_roots_walk_matches_sympy_remainder(order):
    # every root of a fresh field, asked for in shuffled order (so each walk
    # starts from whatever lower root happens to be cached), against an
    # independent x^e rem Phi_L
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(order, x), x)
    field = CycloField(order)
    wanted, power = [], sympy.Poly(1, x)
    for e in range(order):  # x^e rem Phi_L, one sympy remainder per step
        rem = [int(c) for c in reversed(power.all_coeffs())]
        wanted.append(tuple(rem) + (0,) * (field.degree - len(rem)))
        power = sympy.rem(power * sympy.Poly(x, x), phi)
    exponents = list(range(order))
    random.Random(order).shuffle(exponents)
    for e in exponents:
        want = wanted[e]
        z = field.root(e)
        assert_canonical(z)
        assert z.num == want, e
        assert field.root(e + order) is z
    assert len(field._roots) == order  # only the requested roots are kept


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
