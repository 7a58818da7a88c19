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
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .bernoulli import TwistContext, _bern_values, factor_quotient, power_sum
from .report import CheckReport, TheoremReport
from .series import PowerSeries
from .sympoly import SymPoly, first_difference, monomial

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


def _weighted(scales: tuple, power: int, i: int, big: int) -> tuple:
    """The pairwise (power 2) and single (power 1) families: i units scaled
    by big over the units at scales, times the character sums at scales."""
    return (Fraction(big) ** (power - i), 3 - i,
            [("unit", big)] * i + [("sum", c) for c in scales],
            [("unit", c) for c in scales], (_Y1, _Y2, _Y3)[:3 - i], big)


#: family -> (w1, w2, w3, i) -> (prefactor, t power, numerator factors,
#: denominator factors, exp slots, exp scale): the quotient is prefactor *
#: t^power * prod(num) / prod(den) * e^{scale * (sum of the slot y) * t},
#: with factors as in bernoulli.factor_quotient.
_QUOTIENTS = {
    "pairwise": lambda w1, w2, w3, i: _weighted(
        (w2 * w3, w1 * w3, w1 * w2), 2, i, w1 * w2 * w3),
    "single": lambda w1, w2, w3, i: _weighted((w1, w2, w3), 1, i, w1 * w2 * w3),
    # i = 0: the plain product; i = 1: the fully cancelled quotient
    "cyclic": lambda w1, w2, w3, i: (
        (Fraction(w1 * w2 * w3), 3, [("sum", w1), ("sum", w2), ("sum", w3)],
         [("unit", w1), ("unit", w2), ("unit", w3)], (_Y,),
         w2 * w3 + w1 * w3 + w1 * w2) if i == 0 else
        (Fraction(1, w1 * w2 * w3), 0,
         [("unit", w2 * w3), ("unit", w1 * w3), ("unit", w1 * w2),
          ("sum", w1), ("sum", w2), ("sum", w3)],
         [("unit", w1), ("unit", w2), ("unit", w3)], (), 0)),
}


def quotient_series(spec: QuotientSpec, truncation: int) -> PowerSeries:
    """The closed-form series of the quotient, with SymPoly coefficients.

    Built scalar-first: the _QUOTIENTS row of the spec gives the scalar
    series q(t) = prefactor * factor_quotient(...) with CycloNumber
    coefficients, where every cancellation of t is exact and a failed one
    raises.  The symbolic factor e^{c*(sum of the live y)*t} is then applied
    in closed form: the t^n coefficient holds each monomial y^e with
    |e| = j <= n exactly once, with coefficient q_{n-j} * c^j / prod(e_i!),
    so no polynomial product is formed.
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    prefactor, t_power, num, den, exp_vars, exp_scale = _QUOTIENTS[
        spec.family](*spec.w, spec.i)
    q = (factor_quotient(spec.context, t_power, num, den, truncation)
         * prefactor).coeffs

    exp_terms = _exp_monomials(exp_vars, exp_scale, truncation)
    out = []
    for n in range(truncation + 1):
        terms = {}
        for j in range(n + 1):
            c = q[n - j]
            if c:
                for key, weight in exp_terms[j]:
                    terms[key] = c * weight
        out.append(SymPoly(spec.context.field, terms))
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

def _binomial_convolution(a: list, b: list) -> list:
    """[sum_i C(j,i) a_i b_(j-i) for j < len(a)]."""
    return [sum((a[i] * (b[j - i] * math.comb(j, i)) for i in range(1, j + 1)),
                a[0] * b[j]) for j in range(len(a))]


def _bpoly(ctx: TwistContext, c: int, k: int, u: int, slot: int,
           sums: tuple = ()) -> SymPoly:
    """sum_p coef_p B_k(u*y + r_p) for the twist xi^c, as a SymPoly in the
    given slot, over the shift points p of sums (see _B); no sums is the
    single point (1, 0).

    By B_k(u*y + r) = sum_t C(k,t) u^t y^t B_{k-t}(r), the y^t coefficient is
    C(k,t) u^t T_{k-t} with T_m = sum_p coef_p B_m(r_p) = sum_i C(m,i) B_i
    M_{m-i}, where M_e = sum_p coef_p r_p^e.  One sums entry (A, m, s, q)
    has M_e = (s/q)^e S_e(A-1) for the twist xi^m (0^0 = 1 keeps the point
    a = 0 at d = 1), and the moments of several entries are the binomial
    convolution of theirs, so no shift point is visited.
    """
    cache_key = (c % ctx.xi_order, k, u, slot, sums)
    poly = ctx._bpoly_cache.get(cache_key)
    if poly is not None:
        return poly
    bern = _bern_values(ctx.twist(c), k)[:k + 1]
    if sums:
        moments = None
        for bound, m, s, q in sums:
            tw = ctx.twist(m)
            step = [power_sum(tw, e, bound - 1) * Fraction(s**e, q**e)
                    for e in range(k + 1)]
            moments = (step if moments is None
                       else _binomial_convolution(moments, step))
        bern = _binomial_convolution(bern, moments)
    terms = {}
    up = 1
    for t in range(k + 1):
        coef = bern[k - t] * (math.comb(k, t) * up)
        if not coef.is_zero():
            key = [0, 0, 0, 0]
            key[slot] = t
            terms[tuple(key)] = coef
        up *= u
    poly = SymPoly(ctx.field, terms)
    ctx._bpoly_cache[cache_key] = poly
    return poly


# -- expansion forms as data over one kernel (independent of the series path) --
#
# Every displayed expression is a table row: const * sum over k1+..+kr = n of
# C(n; k1..kr) * prod c_i^k_i * piece_i(k_i) over r <= 3 pieces, where c_i is
# the twist exponent of piece i (its factor xi^c e^{ct} scales t by c too).
#
# * _B(c, u, slot, *sums): j -> sum_p coef_p * B_j^(xi^c)(u*y_slot + r_p).
#   Each entry (A, m, s, q) of sums ranges over a < A with chi(a) != 0,
#   multiplies coef_p by chi(a)*xi^(a*m) and adds s*a/q to r_p; several
#   entries range over the product of their point sets, and none is the
#   single point (1, 0).
# * _S(bound, c): j -> S_j(bound) for the twist xi^c.

def _B(c, u, slot, *sums):
    return ("B", c, u, slot, sums)


def _S(bound, c):
    return ("S", c, bound)


#: row name -> (w1, w2, w3, d) -> (const, [piece, ...]): the nine expansion
#: forms, theorem 3's printed-shift variant, and the left-hand sides of the
#: theorem 4 and 8 permutation reductions as written.
_ROWS = {
    "triple_bernoulli": lambda w1, w2, w3, d: (1, [
        _B(w2 * w3, w1, _Y1), _B(w1 * w3, w2, _Y2), _B(w1 * w2, w3, _Y3)]),
    "bernoulli_bernoulli_powersum": lambda w1, w2, w3, d: (Fraction(1, w3), [
        _B(w2 * w3, w1, _Y1), _B(w1 * w3, w2, _Y2), _S(d * w3 - 1, w1 * w2)]),
    "bernoulli_shifted_bernoulli": lambda w1, w2, w3, d: (Fraction(1, w3), [
        _B(w2 * w3, w1, _Y1), _B(w1 * w3, w2, _Y2, (d * w3, w1 * w2, w2, w3))]),
    # as printed in one display: shift denominator w1 (generically false)
    "bernoulli_shifted_bernoulli_printed": lambda w1, w2, w3, d: (
        Fraction(1, w3),
        [_B(w2 * w3, w1, _Y1), _B(w1 * w3, w2, _Y2, (d * w3, w1 * w2, w2, w1))]),
    "bernoulli_powersum_powersum": lambda w1, w2, w3, d: (Fraction(1, w2 * w3), [
        _B(w2 * w3, w1, _Y1), _S(d * w2 - 1, w1 * w3), _S(d * w3 - 1, w1 * w2)]),
    "shifted_bernoulli_powersum": lambda w1, w2, w3, d: (Fraction(1, w2 * w3), [
        _B(w2 * w3, w1, _Y1, (d * w2, w1 * w3, w1, w2)), _S(d * w3 - 1, w1 * w2)]),
    "double_shifted_bernoulli": lambda w1, w2, w3, d: (Fraction(1, w2 * w3), [
        _B(w2 * w3, w1, _Y1, (d * w2, w1 * w3, w1, w2), (d * w3, w1 * w2, w1, w3))]),
    "triple_powersum": lambda w1, w2, w3, d: (Fraction(1, w1 * w2 * w3), [
        _S(d * w1 - 1, w2 * w3), _S(d * w2 - 1, w1 * w3), _S(d * w3 - 1, w1 * w2)]),
    "cyclic_triple_bernoulli": lambda w1, w2, w3, d: (1, [
        _B(w1, w2, _Y), _B(w2, w3, _Y), _B(w3, w1, _Y)]),
    "cyclic_triple_powersum": lambda w1, w2, w3, d: (Fraction(1, w1 * w2 * w3), [
        _S(d * w2 - 1, w1), _S(d * w3 - 1, w2), _S(d * w1 - 1, w3)]),
    # theorem 4: B_k S_l S_m with the two power sums interchanged
    "swap-variant-1": lambda w1, w2, w3, d: (Fraction(1, w2 * w3), [
        _B(w2 * w3, w1, _Y1), _S(d * w3 - 1, w1 * w2), _S(d * w2 - 1, w1 * w3)]),
    "swap-variant-2": lambda w1, w2, w3, d: (Fraction(1, w1 * w3), [
        _B(w1 * w3, w2, _Y1), _S(d * w1 - 1, w2 * w3), _S(d * w3 - 1, w1 * w2)]),
    "swap-variant-3": lambda w1, w2, w3, d: (Fraction(1, w1 * w2), [
        _B(w1 * w2, w3, _Y1), _S(d * w2 - 1, w1 * w3), _S(d * w1 - 1, w2 * w3)]),
    # theorem 8: S_k S_l S_m with the factors cycled
    "cycle-variant-1": lambda w1, w2, w3, d: (Fraction(1, w1 * w2 * w3), [
        _S(d * w2 - 1, w1), _S(d * w3 - 1, w2), _S(d * w1 - 1, w3)]),
    "cycle-variant-2": lambda w1, w2, w3, d: (Fraction(1, w1 * w2 * w3), [
        _S(d * w3 - 1, w2), _S(d * w1 - 1, w3), _S(d * w2 - 1, w1)]),
    "cycle-variant-3": lambda w1, w2, w3, d: (Fraction(1, w1 * w2 * w3), [
        _S(d * w3 - 1, w1), _S(d * w2 - 1, w3), _S(d * w1 - 1, w2)]),
    "cycle-variant-4": lambda w1, w2, w3, d: (Fraction(1, w1 * w2 * w3), [
        _S(d * w2 - 1, w3), _S(d * w1 - 1, w2), _S(d * w3 - 1, w1)]),
}


def _piece(ctx: TwistContext, desc: tuple):
    """The function j -> piece(j) of one descriptor, in the context ctx."""
    if desc[0] == "S":
        _, c, bound = desc
        twisted = ctx.twist(c)
        return lambda j: power_sum(twisted, j, bound)
    _, c, u, slot, sums = desc
    return lambda j: _bpoly(ctx, c, j, u, slot, sums)


def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for k in range(n + 1):
        for rest in _compositions(n - k, parts - 1):
            yield (k,) + rest


def _expand(ctx: TwistContext, n: int, const, row: list) -> SymPoly:
    """const * sum over k1+..+kr = n of C(n; k) * prod c_i^k_i * piece_i(k_i).

    Each piece is evaluated once per index the loop visits, and a term with
    a zero piece is skipped; the scalar pieces, const and the integer weight
    are multiplied into each term once.
    """
    pieces = [_piece(ctx, desc) for desc in row]
    seen = [{} for _ in row]
    fact = [math.factorial(j) for j in range(n + 1)]
    acc = None
    for ks in _compositions(n, len(row)):
        weight = fact[n]
        poly = scalar = None
        for desc, k, piece, memo in zip(row, ks, pieces, seen):
            v = memo.get(k)
            if v is None:
                v = memo[k] = piece(k)
            if v.is_zero():
                break
            weight = weight * desc[1] ** k // fact[k]
            if type(v) is SymPoly:
                poly = v if poly is None else poly * v
            else:
                scalar = v if scalar is None else scalar * v
        else:
            term = const * weight
            if scalar is not None:
                term = scalar * term
            if poly is not None:
                term = poly * term
            acc = term if acc is None else acc + term
    if acc is None:
        return SymPoly.zero(ctx.field)
    return acc if type(acc) is SymPoly else SymPoly.constant(acc)


def _evaluate(row: str, ctx: TwistContext, w: tuple, n: int) -> SymPoly:
    """The n-th EGF coefficient of a table row at the weights w."""
    const, pieces = _ROWS[row](*w, ctx.d)
    return _expand(ctx, n, const, pieces)


#: form name -> (family, i, evaluator); the evaluators sum Bernoulli values
#: and power sums directly, independently of quotient_series.
EXPANSION_FORMS = {
    name: (family, i, partial(_evaluate, name))
    for name, family, i in (
        ("triple_bernoulli", "pairwise", 0),
        ("bernoulli_bernoulli_powersum", "pairwise", 1),
        ("bernoulli_shifted_bernoulli", "pairwise", 1),
        ("bernoulli_powersum_powersum", "pairwise", 2),
        ("shifted_bernoulli_powersum", "pairwise", 2),
        ("double_shifted_bernoulli", "pairwise", 2),
        ("triple_powersum", "pairwise", 3),
        ("cyclic_triple_bernoulli", "cyclic", 0),
        ("cyclic_triple_powersum", "cyclic", 1))}


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


def _difference(a: SymPoly, b: SymPoly) -> str:
    """'at <monomial>: <coefficient in a> vs <coefficient in b>'."""
    key, ca, cb = first_difference(a, b)
    return f"at {monomial(key)}: {ca} vs {cb}"


# -- theorem verifiers ---------------------------------------------------------

_PERM6 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
_CYCLE3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
_PAIR = ((2, 0, 1), (1, 0, 2))

_THEOREM_PATTERNS = {
    1: (_PERM6, "triple_bernoulli"),
    2: (_PERM6, "bernoulli_bernoulli_powersum"),
    3: (_PERM6, "bernoulli_shifted_bernoulli"),
    4: (_CYCLE3, "bernoulli_powersum_powersum"),
    5: (_PERM6, "shifted_bernoulli_powersum"),
    6: (_CYCLE3, "double_shifted_bernoulli"),
    7: (_PAIR, "cyclic_triple_bernoulli"),
    8: (_PAIR, "cyclic_triple_powersum"),
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
    perms, row = _THEOREM_PATTERNS[theorem]
    report = TheoremReport(theorem=theorem,
                           params=dict(ctx.params(), w=list(w), n=n))
    exprs = []
    labels = []
    for perm in perms:
        v = tuple(w[j] for j in perm)
        exprs.append(_evaluate(row, ctx, v, n))
        labels.append(f"w-order {v}")
    report.expressions = exprs
    for idx in range(1, len(exprs)):
        if exprs[idx] != exprs[0]:
            report.passed = False
            report.detail = (f"{labels[idx]} differs from {labels[0]} "
                             f"{_difference(exprs[idx], exprs[0])}")
            break
    if theorem == 3:
        printed = _evaluate("bernoulli_shifted_bernoulli_printed", ctx,
                            (w[1], w[0], w[2]), n)
        report.notes["printed_shift_variant_matches"] = printed == exprs[0]
    return report


# -- permutation reductions ----------------------------------------------------

#: group -> (partner form, [(left-hand row, weight order of the partner)])
_REDUCTIONS = {
    4: ("bernoulli_powersum_powersum",
        (("swap-variant-1", (0, 1, 2)), ("swap-variant-2", (1, 2, 0)),
         ("swap-variant-3", (2, 0, 1)))),
    8: ("cyclic_triple_powersum",
        (("cycle-variant-1", (2, 0, 1)), ("cycle-variant-2", (2, 0, 1)),
         ("cycle-variant-3", (1, 0, 2)), ("cycle-variant-4", (1, 0, 2)))),
}


def permutation_reduction_check(group: int, ctx: TwistContext,
                                w: tuple[int, int, int], n: int) -> CheckReport:
    """Check that the alternate permuted expressions of theorem 4 (resp. 8)
    equal their stated partners after the index interchange/cycle."""
    if group not in _REDUCTIONS:
        raise ValueError("group must be 4 or 8")
    params = dict(ctx.params(), w=list(w), n=n, group=group)
    partner, pairs = _REDUCTIONS[group]
    partners = {}
    for row, perm in pairs:
        lhs = _evaluate(row, ctx, w, n)
        rhs = partners.get(perm)
        if rhs is None:
            rhs = partners[perm] = _evaluate(
                partner, ctx, tuple(w[j] for j in perm), n)
        if lhs != rhs:
            return CheckReport("permutation_reduction_check", params, False,
                               f"{row}: {_difference(lhs, rhs)}")
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
            key, ce, cs = first_difference(direct, from_series)
            return CheckReport(
                "expansion_consistency_check", params, False,
                f"n={n}: at {monomial(key)}: expansion {ce} vs series {cs}")
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
