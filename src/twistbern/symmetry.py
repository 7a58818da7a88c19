"""Quotient-series closed forms, their expansion forms, and the symmetry theorems.

Three families of series quotients are built here, named for how the weight
triple (w1, w2, w3) enters the factors:

* ``pairwise``: each factor is scaled by a pair product w2*w3, w1*w3, w1*w2;
* ``single``:   each factor is scaled by a single weight, with the shared
  symbolic coupling w1*w2*w3*(y1+...);
* ``cyclic``:   single-weight factors whose symbolic arguments cycle through
  w2*y, w3*y, w1*y.

Every closed form is manifestly symmetric in (w1, w2, w3).  Each family/index
also admits finite-sum expansions in Bernoulli values and power sums
(implemented independently of the series path), and matching expansions across
weight permutations yields the eight symmetry theorems verified below as exact
polynomial identities in the y-variables.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .bernoulli import (TwistContext, _bern_values, char_sum_series,
                        power_sum, twist_unit_series)
from .report import CheckReport, TheoremReport
from .series import PowerSeries
from .sympoly import SymPoly

_FAMILY_MAX_I = {"pairwise": 3, "single": 3, "cyclic": 1}

# SymPoly exponent slots (see sympoly.VARIABLES)
_Y, _Y1, _Y2, _Y3 = 0, 1, 2, 3


@dataclass(frozen=True, eq=False)
class QuotientSpec:
    """One quotient-series instance: family, quotient index i, weights, context."""

    family: str
    i: int
    w: tuple[int, int, int]
    context: TwistContext

    def __post_init__(self):
        if self.family not in _FAMILY_MAX_I:
            raise ValueError(f"unknown family {self.family!r}")
        if not 0 <= self.i <= _FAMILY_MAX_I[self.family]:
            raise ValueError(
                f"invalid index i={self.i} for family {self.family!r}")
        if len(self.w) != 3 or any(x < 1 for x in self.w):
            raise ValueError("w must be three positive integers")

    def params(self) -> dict:
        return dict(self.context.params(), family=self.family, i=self.i,
                    w=list(self.w))


def quotient_series(spec: QuotientSpec, truncation: int) -> PowerSeries:
    """The closed-form series of the quotient, with SymPoly coefficients.

    Built scalar-first: the series q(t) with CycloNumber coefficients is
    (prefactor) * t^p * (unit factors) * (character sums) / (unit factors);
    every cancellation of t against a factor with vanishing constant term is
    exact, and a failed cancellation raises.  The symbolic factor
    e^{c*(sum of the live y)*t} is then applied in closed form: the t^n
    coefficient holds each monomial y^e with |e| = j <= n exactly once, with
    coefficient q_{n-j} * c^j / prod(e_i!), so no polynomial product is formed.
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    ctx = spec.context
    w1, w2, w3 = spec.w
    big = w1 * w2 * w3
    i = spec.i
    field = ctx.field

    if spec.family == "pairwise":
        prefactor = Fraction(big) ** (2 - i)
        t_power = 3 - i
        numerator_units = [big] * i
        denominators = [w2 * w3, w1 * w3, w1 * w2]
        sum_scales = denominators
        exp_vars = (_Y1, _Y2, _Y3)[:3 - i]
        exp_scale = big
    elif spec.family == "single":
        prefactor = Fraction(big) ** (1 - i)
        t_power = 3 - i
        numerator_units = [big] * i
        denominators = [w1, w2, w3]
        sum_scales = denominators
        exp_vars = (_Y1, _Y2, _Y3)[:3 - i]
        exp_scale = big
    elif spec.i == 0:  # cyclic, plain product
        prefactor = Fraction(big)
        t_power = 3
        numerator_units = []
        denominators = [w1, w2, w3]
        sum_scales = denominators
        exp_vars = (_Y,)
        exp_scale = w2 * w3 + w1 * w3 + w1 * w2
    else:  # cyclic, fully cancelled quotient
        prefactor = Fraction(1, big)
        t_power = 0
        numerator_units = [w2 * w3, w1 * w3, w1 * w2]
        denominators = [w1, w2, w3]
        sum_scales = [w1, w2, w3]
        exp_vars = ()
        exp_scale = 0

    vanish = sum(1 for c in denominators if ctx.xi_pow(ctx.d * c).is_one())
    # each vanishing denominator factor consumes one t, plus t_power's deficit
    work = truncation + vanish + max(0, vanish - t_power)

    num = reduce(operator.mul,
                 [twist_unit_series(ctx, c, work) for c in numerator_units]
                 + [char_sum_series(ctx, c, work) for c in sum_scales])
    den = reduce(operator.mul,
                 [twist_unit_series(ctx, c, work) for c in denominators])
    if vanish:
        den = den.divide_by_t(vanish)
    q = num * den.invert()
    shift = t_power - vanish
    if shift > 0:
        q = q.shift_up(shift)
    elif shift < 0:
        q = q.divide_by_t(-shift)
    q = (q * prefactor).coeffs

    exp_terms = _exp_monomials(exp_vars, exp_scale, truncation)
    out = []
    for n in range(truncation + 1):
        terms = {}
        for j in range(n + 1):
            c = q[n - j]
            if c:
                for key, weight in exp_terms[j]:
                    terms[key] = c * weight
        out.append(SymPoly(field, terms))
    return PowerSeries(out)


def _exp_monomials(slots: tuple, scale: int, upto: int) -> list:
    """The t^j coefficients, j = 0..upto, of e^{scale*(sum of the slot
    variables)*t}: per j, the pairs (exponent key of y^e, scale^j / prod(e_i!))
    over all monomials y^e of degree j in the slot variables."""
    level = [((0, 0, 0, 0), 1, 0)]  # key, prod(e_i!), first raisable slot
    table = [[((0, 0, 0, 0), Fraction(1))]]
    for j in range(1, upto + 1):
        nxt = []
        for key, den, first in level:
            # raising slots in non-decreasing order reaches each key once
            for idx in range(first, len(slots)):
                k = list(key)
                k[slots[idx]] += 1
                nxt.append((tuple(k), den * k[slots[idx]], idx))
        level = nxt
        table.append([(key, Fraction(scale ** j, den))
                      for key, den, _ in level])
    return table


# -- building blocks shared by the expansion forms and theorem verifiers ------

def _scalar_bpoly_table(ctx: TwistContext, c: int, r: Fraction, upto: int) -> list:
    """[B_0(r), ..., B_upto(r)] for the twist xi^c at the rational point r."""
    key = (c % ctx.xi_order, r)
    tab = ctx._bpoly_tables.get(key)
    if tab is None or len(tab) <= upto:
        bern = _bern_values(ctx.twist(c), upto)
        rp = [Fraction(1)]
        for _ in range(upto):
            rp.append(rp[-1] * r)
        tab = []
        for i in range(upto + 1):
            acc = bern[i]
            for t in range(i):
                acc = acc + bern[t] * (math.comb(i, t) * rp[i - t])
            tab.append(acc)
        ctx._bpoly_tables[key] = tab
    return tab


def _bpoly(ctx: TwistContext, c: int, k: int, u: int, slot: int,
           r: Fraction = Fraction(0)) -> SymPoly:
    """B_k for twist xi^c evaluated at u*y + r, as a SymPoly in the given slot."""
    cache_key = (c % ctx.xi_order, k, u, slot, r)
    poly = ctx._bpoly_cache.get(cache_key)
    if poly is not None:
        return poly
    if r:
        scal = _scalar_bpoly_table(ctx, c, r, k)
    else:
        scal = _bern_values(ctx.twist(c), k)
    terms = {}
    up = 1
    for t in range(k + 1):
        coef = scal[k - t] * (math.comb(k, t) * up)
        if not coef.is_zero():
            key = [0, 0, 0, 0]
            key[slot] = t
            terms[tuple(key)] = coef
        up *= u
    poly = SymPoly(ctx.field, terms)
    ctx._bpoly_cache[cache_key] = poly
    return poly


def _psum(ctx: TwistContext, k: int, bound: int, c: int):
    """S_k(bound) for the twist xi^c."""
    return power_sum(ctx.twist(c), k, bound)


def _compositions3(n: int):
    for k in range(n + 1):
        for l in range(n - k + 1):
            yield k, l, n - k - l


def _multinomial(n: int, k: int, l: int, m: int) -> int:
    return math.factorial(n) // (math.factorial(k) * math.factorial(l)
                                 * math.factorial(m))


# -- expansion forms (independent of the series path) --------------------------

def _form_triple_bernoulli(ctx, w, n):
    w1, w2, w3 = w
    acc = SymPoly.zero(ctx.field)
    for k, l, m in _compositions3(n):
        p = (_bpoly(ctx, w2 * w3, k, w1, _Y1)
             * _bpoly(ctx, w1 * w3, l, w2, _Y2)
             * _bpoly(ctx, w1 * w2, m, w3, _Y3))
        weight = (_multinomial(n, k, l, m)
                  * w1 ** (l + m) * w2 ** (k + m) * w3 ** (k + l))
        acc = acc + p * Fraction(weight)
    return acc


def _form_bernoulli_bernoulli_powersum(ctx, w, n):
    w1, w2, w3 = w
    acc = SymPoly.zero(ctx.field)
    for k, l, m in _compositions3(n):
        p = (_bpoly(ctx, w2 * w3, k, w1, _Y1)
             * _bpoly(ctx, w1 * w3, l, w2, _Y2))
        s = _psum(ctx, m, ctx.d * w3 - 1, w1 * w2)
        weight = (_multinomial(n, k, l, m) * Fraction(w1) ** (l + m)
                  * Fraction(w2) ** (k + m) * Fraction(w3) ** (k + l - 1))
        acc = acc + p * s * weight
    return acc


def _form_bernoulli_shifted_bernoulli(ctx, w, n, literal_shift=False):
    # Single-binomial form with shifted second argument; literal_shift
    # switches the shift denominator from w3 to w1 (the variant printed in
    # one displayed identity, generically false).
    w1, w2, w3 = w
    d = ctx.d
    denom = w1 if literal_shift else w3
    acc = SymPoly.zero(ctx.field)
    for k in range(n + 1):
        outer = _bpoly(ctx, w2 * w3, k, w1, _Y1)
        inner = SymPoly.zero(ctx.field)
        for a in range(d * w3):
            cv = ctx.chi_at(a)
            if cv.is_zero():
                continue
            coef = cv * ctx.xi_pow(a * w1 * w2)
            inner = inner + _bpoly(ctx, w1 * w3, n - k, w2, _Y2,
                                   Fraction(w2 * a, denom)) * coef
        weight = (math.comb(n, k) * Fraction(w1) ** (n - k)
                  * Fraction(w2) ** k)
        acc = acc + outer * inner * weight
    return acc * Fraction(w3) ** (n - 1)


def _form_bernoulli_powersum_powersum(ctx, w, n):
    w1, w2, w3 = w
    acc = SymPoly.zero(ctx.field)
    for k, l, m in _compositions3(n):
        p = _bpoly(ctx, w2 * w3, k, w1, _Y1)
        s = (_psum(ctx, l, ctx.d * w2 - 1, w1 * w3)
             * _psum(ctx, m, ctx.d * w3 - 1, w1 * w2))
        weight = (_multinomial(n, k, l, m) * Fraction(w1) ** (l + m)
                  * Fraction(w2) ** (k + m - 1) * Fraction(w3) ** (k + l - 1))
        acc = acc + p * (s * weight)
    return acc


def _form_shifted_bernoulli_powersum(ctx, w, n):
    w1, w2, w3 = w
    d = ctx.d
    acc = SymPoly.zero(ctx.field)
    for k in range(n + 1):
        inner = SymPoly.zero(ctx.field)
        for a in range(d * w2):
            cv = ctx.chi_at(a)
            if cv.is_zero():
                continue
            coef = cv * ctx.xi_pow(a * w1 * w3)
            inner = inner + _bpoly(ctx, w2 * w3, k, w1, _Y1,
                                   Fraction(w1 * a, w2)) * coef
        s = _psum(ctx, n - k, ctx.d * w3 - 1, w1 * w2)
        weight = (math.comb(n, k) * Fraction(w1) ** (n - k)
                  * Fraction(w3) ** (k - 1))
        acc = acc + inner * (s * weight)
    return acc * Fraction(w2) ** (n - 1)


def _form_double_shifted_bernoulli(ctx, w, n):
    w1, w2, w3 = w
    d = ctx.d
    acc = SymPoly.zero(ctx.field)
    for a in range(d * w2):
        ca = ctx.chi_at(a)
        if ca.is_zero():
            continue
        for b in range(d * w3):
            cb = ctx.chi_at(b)
            if cb.is_zero():
                continue
            coef = ca * cb * ctx.xi_pow(w1 * (a * w3 + b * w2))
            shift = Fraction(w1 * a, w2) + Fraction(w1 * b, w3)
            acc = acc + _bpoly(ctx, w2 * w3, n, w1, _Y1, shift) * coef
    return acc * Fraction(w2 * w3) ** (n - 1)


def _form_triple_powersum(ctx, w, n):
    w1, w2, w3 = w
    d = ctx.d
    acc = ctx.field.zero
    for k, l, m in _compositions3(n):
        s = (_psum(ctx, k, d * w1 - 1, w2 * w3)
             * _psum(ctx, l, d * w2 - 1, w1 * w3)
             * _psum(ctx, m, d * w3 - 1, w1 * w2))
        weight = (_multinomial(n, k, l, m) * Fraction(w1) ** (l + m - 1)
                  * Fraction(w2) ** (k + m - 1) * Fraction(w3) ** (k + l - 1))
        acc = acc + s * weight
    return SymPoly.constant(acc)


def _form_cyclic_triple_bernoulli(ctx, w, n):
    w1, w2, w3 = w
    acc = SymPoly.zero(ctx.field)
    for k, l, m in _compositions3(n):
        p = (_bpoly(ctx, w1, k, w2, _Y)
             * _bpoly(ctx, w2, l, w3, _Y)
             * _bpoly(ctx, w3, m, w1, _Y))
        weight = _multinomial(n, k,
                              l, m) * w1 ** k * w2 ** l * w3 ** m
        acc = acc + p * Fraction(weight)
    return acc


def _form_cyclic_triple_powersum(ctx, w, n):
    w1, w2, w3 = w
    d = ctx.d
    acc = ctx.field.zero
    for k, l, m in _compositions3(n):
        s = (_psum(ctx, k, d * w2 - 1, w1)
             * _psum(ctx, l, d * w3 - 1, w2)
             * _psum(ctx, m, d * w1 - 1, w3))
        weight = (_multinomial(n, k, l, m) * Fraction(w1) ** (k - 1)
                  * Fraction(w2) ** (l - 1) * Fraction(w3) ** (m - 1))
        acc = acc + s * weight
    return SymPoly.constant(acc)


#: form name -> (family, i, evaluator); the evaluators sum Bernoulli values
#: and power sums directly, independently of quotient_series.
EXPANSION_FORMS = {
    "triple_bernoulli": ("pairwise", 0, _form_triple_bernoulli),
    "bernoulli_bernoulli_powersum":
        ("pairwise", 1, _form_bernoulli_bernoulli_powersum),
    "bernoulli_shifted_bernoulli":
        ("pairwise", 1, _form_bernoulli_shifted_bernoulli),
    "bernoulli_powersum_powersum":
        ("pairwise", 2, _form_bernoulli_powersum_powersum),
    "shifted_bernoulli_powersum":
        ("pairwise", 2, _form_shifted_bernoulli_powersum),
    "double_shifted_bernoulli":
        ("pairwise", 2, _form_double_shifted_bernoulli),
    "triple_powersum": ("pairwise", 3, _form_triple_powersum),
    "cyclic_triple_bernoulli": ("cyclic", 0, _form_cyclic_triple_bernoulli),
    "cyclic_triple_powersum": ("cyclic", 1, _form_cyclic_triple_powersum),
}


def expansion_coefficient(form: str, n: int, spec: QuotientSpec) -> SymPoly:
    """The n-th EGF coefficient of the named finite-sum expansion."""
    try:
        family, i, fn = EXPANSION_FORMS[form]
    except KeyError:
        raise ValueError(f"unknown expansion form {form!r}") from None
    if (spec.family, spec.i) != (family, i):
        raise ValueError(
            f"form {form!r} applies to family={family!r} i={i}, "
            f"not family={spec.family!r} i={spec.i}")
    if n < 0:
        raise ValueError("n must be >= 0")
    return fn(spec.context, spec.w, n)


# -- theorem verifiers ---------------------------------------------------------

_PERM6 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
_CYCLE3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
_PAIR = ((2, 0, 1), (1, 0, 2))

_THEOREM_PATTERNS = {
    1: (_PERM6, _form_triple_bernoulli),
    2: (_PERM6, _form_bernoulli_bernoulli_powersum),
    3: (_PERM6, _form_bernoulli_shifted_bernoulli),
    4: (_CYCLE3, _form_bernoulli_powersum_powersum),
    5: (_PERM6, _form_shifted_bernoulli_powersum),
    6: (_CYCLE3, _form_double_shifted_bernoulli),
    7: (_PAIR, _form_cyclic_triple_bernoulli),
    8: (_PAIR, _form_cyclic_triple_powersum),
}

THEOREM_IDS = tuple(sorted(_THEOREM_PATTERNS))


def verify_theorem(theorem: int, ctx: TwistContext, w: tuple[int, int, int],
                   n: int) -> TheoremReport:
    """Evaluate every displayed expression of one symmetry theorem exactly.

    Each expression is an exact SymPoly in the live y-variables; the verdict
    is pass iff all of them coincide.  For theorem 3, the
    ``printed_shift_variant_matches`` note records whether the variant with
    the inconsistent shift denominator (as printed in one source display)
    happens to agree as well; the verdict is based on the pattern-consistent
    expressions only.
    """
    if theorem not in _THEOREM_PATTERNS:
        raise ValueError("theorem id must be 1..8")
    if len(w) != 3 or any(x < 1 for x in w):
        raise ValueError("w must be three positive integers")
    if n < 0:
        raise ValueError("n must be >= 0")
    perms, pattern = _THEOREM_PATTERNS[theorem]
    report = TheoremReport(theorem=theorem,
                           params=dict(ctx.params(), w=list(w), n=n))
    exprs = []
    labels = []
    for perm in perms:
        v = tuple(w[j] for j in perm)
        exprs.append(pattern(ctx, v, n))
        labels.append(f"w-order {v}")
    report.expressions = exprs
    for idx in range(1, len(exprs)):
        if exprs[idx] != exprs[0]:
            report.passed = False
            report.detail = (f"{labels[idx]} differs from {labels[0]}: "
                             f"{exprs[idx]} vs {exprs[0]}")
            break
    if theorem == 3:
        literal = _form_bernoulli_shifted_bernoulli(
            ctx, (w[1], w[0], w[2]), n, literal_shift=True)
        report.notes["printed_shift_variant_matches"] = literal == exprs[0]
    return report


# -- permutation reductions ----------------------------------------------------

def _bss_as_written(ctx, n, bscale, bu, s1_bound, s1_scale, s2_bound,
                    s2_scale, base_lm, base_km, base_kl):
    # sum C(n;k,l,m) B_k^(bscale)(bu*y1) S_l(s1) S_m(s2)
    #     * base_lm^(l+m) base_km^(k+m-1) base_kl^(k+l-1)
    acc = SymPoly.zero(ctx.field)
    for k, l, m in _compositions3(n):
        p = _bpoly(ctx, bscale, k, bu, _Y1)
        s = (_psum(ctx, l, s1_bound, s1_scale)
             * _psum(ctx, m, s2_bound, s2_scale))
        weight = (_multinomial(n, k, l, m) * Fraction(base_lm) ** (l + m)
                  * Fraction(base_km) ** (k + m - 1)
                  * Fraction(base_kl) ** (k + l - 1))
        acc = acc + p * (s * weight)
    return acc


def _sss_as_written(ctx, n, b1, c1, b2, c2, b3, c3, q1, q2, q3):
    # sum C(n;k,l,m) S_k(b1;c1) S_l(b2;c2) S_m(b3;c3) q1^(k-1) q2^(l-1) q3^(m-1)
    acc = ctx.field.zero
    for k, l, m in _compositions3(n):
        s = (_psum(ctx, k, b1, c1) * _psum(ctx, l, b2, c2)
             * _psum(ctx, m, b3, c3))
        weight = (_multinomial(n, k, l, m) * Fraction(q1) ** (k - 1)
                  * Fraction(q2) ** (l - 1) * Fraction(q3) ** (m - 1))
        acc = acc + s * weight
    return SymPoly.constant(acc)


def permutation_reduction_check(group: int, ctx: TwistContext,
                                w: tuple[int, int, int], n: int) -> CheckReport:
    """Check that the alternate permuted expressions of theorem 4 (resp. 8)
    equal their stated partners after the index interchange/cycle."""
    w1, w2, w3 = w
    d = ctx.d
    params = dict(ctx.params(), w=list(w), n=n, group=group)
    if group == 4:
        pairs = [
            ("swap-variant-1",
             _bss_as_written(ctx, n, w2 * w3, w1, d * w3 - 1, w1 * w2,
                             d * w2 - 1, w1 * w3, w1, w3, w2),
             _form_bernoulli_powersum_powersum(ctx, (w1, w2, w3), n)),
            ("swap-variant-2",
             _bss_as_written(ctx, n, w1 * w3, w2, d * w1 - 1, w2 * w3,
                             d * w3 - 1, w1 * w2, w2, w1, w3),
             _form_bernoulli_powersum_powersum(ctx, (w2, w3, w1), n)),
            ("swap-variant-3",
             _bss_as_written(ctx, n, w1 * w2, w3, d * w2 - 1, w1 * w3,
                             d * w1 - 1, w2 * w3, w3, w2, w1),
             _form_bernoulli_powersum_powersum(ctx, (w3, w1, w2), n)),
        ]
    elif group == 8:
        first = _form_cyclic_triple_powersum(ctx, (w3, w1, w2), n)
        second = _form_cyclic_triple_powersum(ctx, (w2, w1, w3), n)
        pairs = [
            ("cycle-variant-1",
             _sss_as_written(ctx, n, d * w2 - 1, w1, d * w3 - 1, w2,
                             d * w1 - 1, w3, w1, w2, w3), first),
            ("cycle-variant-2",
             _sss_as_written(ctx, n, d * w3 - 1, w2, d * w1 - 1, w3,
                             d * w2 - 1, w1, w2, w3, w1), first),
            ("cycle-variant-3",
             _sss_as_written(ctx, n, d * w3 - 1, w1, d * w2 - 1, w3,
                             d * w1 - 1, w2, w1, w3, w2), second),
            ("cycle-variant-4",
             _sss_as_written(ctx, n, d * w2 - 1, w3, d * w1 - 1, w2,
                             d * w3 - 1, w1, w3, w2, w1), second),
        ]
    else:
        raise ValueError("group must be 4 or 8")
    for label, lhs, rhs in pairs:
        if lhs != rhs:
            return CheckReport("permutation_reduction_check", params, False,
                               f"{label}: {lhs} vs {rhs}")
    return CheckReport("permutation_reduction_check", params, True)


# -- whole-series checks --------------------------------------------------------

def permutation_invariance_check(spec: QuotientSpec, truncation: int) -> CheckReport:
    """quotient_series must be identical under all six weight permutations."""
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    base = quotient_series(spec, truncation)
    params = dict(spec.params(), truncation=truncation)
    for perm in _PERM6[1:]:
        v = tuple(spec.w[j] for j in perm)
        other = quotient_series(
            QuotientSpec(spec.family, spec.i, v, spec.context), truncation)
        for idx in range(truncation + 1):
            if base.coeffs[idx] != other.coeffs[idx]:
                return CheckReport(
                    "permutation_invariance_check", params, False,
                    f"w-order {v} differs at t^{idx}")
    return CheckReport("permutation_invariance_check", params, True)


def expansion_consistency_check(form: str, spec: QuotientSpec,
                                n_max: int) -> CheckReport:
    """expansion_coefficient(form, n, .) == n! [t^n] quotient_series for n <= n_max."""
    series = quotient_series(spec, n_max)
    params = dict(spec.params(), form=form, n_max=n_max)
    for n in range(n_max + 1):
        direct = expansion_coefficient(form, n, spec)
        from_series = series.egf(n)
        if direct != from_series:
            return CheckReport(
                "expansion_consistency_check", params, False,
                f"n={n}: expansion {direct} vs series {from_series}")
    return CheckReport("expansion_consistency_check", params, True)


def substitution_check(spec: QuotientSpec, truncation: int) -> CheckReport:
    """Weight-substitution principle linking the pairwise and single families.

    The pairwise series with weights (w2*w3, w1*w3, w1*w2) must equal the
    single-family series with the original weights after rescaling t by
    w1*w2*w3 and replacing the twist root by its (w1*w2*w3)-th power.
    """
    if spec.family != "single":
        raise ValueError("substitution_check applies to the single family")
    w1, w2, w3 = spec.w
    big = w1 * w2 * w3
    lhs = quotient_series(
        QuotientSpec("pairwise", spec.i, (w2 * w3, w1 * w3, w1 * w2),
                     spec.context), truncation)
    rhs = quotient_series(
        QuotientSpec("single", spec.i, spec.w, spec.context.twist(big)),
        truncation)
    params = dict(spec.params(), truncation=truncation)
    scale = Fraction(1)
    for n in range(truncation + 1):
        if lhs.coeffs[n] != rhs.coeffs[n] * scale:
            return CheckReport("substitution_check", params, False,
                               f"coefficients differ at t^{n}")
        scale *= big
    return CheckReport("substitution_check", params, True)
