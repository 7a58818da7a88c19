"""Quotient-series closed forms, their expansion forms, and the symmetry theorems.

Three families of series quotients are built here, named for how the weight
triple (w1, w2, w3) enters the factors:

* ``pairwise``: each factor is scaled by a pair product w2*w3, w1*w3, w1*w2;
* ``single``:   each factor is scaled by a single weight, with the shared
  symbolic coupling w1*w2*w3*(y1+...);
* ``cyclic``:   single-weight factors whose symbolic arguments cycle through
  w2*y, w3*y, w1*y.

Every closed form is manifestly symmetric in (w1, w2, w3).  Each family/index
also admits finite-sum expansions in Bernoulli values and power sums, written
as table rows of pieces (``_ROWS``) and evaluated independently of the series
path.  Matching expansions across weight permutations yields the eight
symmetry theorems verified below as exact polynomial identities in the
y-variables.

Rows and quotients share one form (scales, F): e^{(s.y) t} F(t), with a
scale s_y per live slot (the same under every weight order) and a scalar
series F over Q(zeta_L), and one evaluator, factor_quotient.  A _QUOTIENTS
row is, as in the paper, a prefactor, a power of t, numerator units and one
p-adic integral of chi(x) xi^(cx) e^(cxt) over ct (over c where
xi^(dc) = 1) per scale c; a table row is a quotient with no units whose
Bernoulli pieces are scales, times character-sum tables.  Each form states
what it multiplies first, with no arithmetic, as factor_table keys: the
(shift, keys) of ``bernoulli.quotient_operands``, of a row from
``row_operands``.  Every check decides on forms: equal forms lift to equal
SymPolys, so only unequal forms are lifted (by ``_lift``, the one writer of
SymPoly monomials) for ``first_mismatch`` to decide, and ``verify_theorem``
lifts each distinct form once.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

# _bpoly is bound here for perfbench/tracing.py, which wraps symmetry._bpoly
from .bernoulli import TwistContext, _bpoly, factor_quotient  # noqa: F401
from .report import CheckReport, ReadOnly, TheoremReport, first_mismatch
from .series import PowerSeries
from .sympoly import SymPoly

_FAMILY_MAX_I = {"pairwise": 3, "single": 3, "cyclic": 1}

# SymPoly exponent slots (see sympoly.VARIABLES)
_Y, _Y1, _Y2, _Y3 = 0, 1, 2, 3


class QuotientSpec(ReadOnly):
    """One quotient-series instance: family, quotient index i, weights, context."""

    __slots__ = ("family", "i", "w", "context")

    def __init__(self, family: str, i: int, w: tuple[int, int, int],
                 context: TwistContext):
        if family not in _FAMILY_MAX_I:
            raise ValueError(f"unknown family {family!r}")
        if not 0 <= i <= _FAMILY_MAX_I[family]:
            raise ValueError(f"invalid index i={i} for family {family!r}")
        _check_point(w)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "context", context)

    def params(self) -> dict:
        return dict(self.context.params(), family=self.family, i=self.i,
                    w=list(self.w))


def _check_point(w: tuple, n: int = 0) -> None:
    """Reject weights that are not three positive integers, and n < 0."""
    if len(w) != 3 or any(x < 1 for x in w):
        raise ValueError("w must be three positive integers")
    if n < 0:
        raise ValueError("n must be >= 0")


def _weighted(scales: tuple, power: int, i: int, big: int) -> tuple:
    """The pairwise (power 2) and single (power 1) families: i units scaled
    by big times the p-adic integrals at scales."""
    return (Fraction(big) ** (power - i), 3 - i, (big,) * i, scales,
            (_Y1, _Y2, _Y3)[:3 - i], big)


#: family -> (w1, w2, w3, i) -> (prefactor, t power, units, scales, exp
#: slots, exp scale): the quotient is prefactor * t^power * the units
#: xi^(dc) e^(dct) - 1 of c in units * the p-adic integral of each c in
#: scales (bernoulli.quotient_operands) * e^{scale * (sum of the slot y) * t}.
_QUOTIENTS = {
    "pairwise": lambda w1, w2, w3, i: _weighted(
        (w2 * w3, w1 * w3, w1 * w2), 2, i, w1 * w2 * w3),
    "single": lambda w1, w2, w3, i: _weighted((w1, w2, w3), 1, i, w1 * w2 * w3),
    # i = 0: the plain product; i = 1: the fully cancelled quotient
    "cyclic": lambda w1, w2, w3, i: (
        (Fraction(w1 * w2 * w3), 3, (), (w1, w2, w3), (_Y,),
         w2 * w3 + w1 * w3 + w1 * w2) if i == 0 else
        (Fraction(1, w1 * w2 * w3), 0, (w2 * w3, w1 * w3, w1 * w2),
         (w1, w2, w3), (), 0)),
}


def _quotient_form(spec: QuotientSpec, truncation: int) -> tuple:
    """The form (scales, q) of the quotient to t^truncation: each live slot
    maps to the exp scale of its _QUOTIENTS row, and q is factor_quotient
    of its units and scales with the prefactor as const, where a failed
    cancellation of t raises."""
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    prefactor, t_power, units, scales, slots, scale = _QUOTIENTS[spec.family](
        *spec.w, spec.i)
    q = factor_quotient(spec.context, t_power, units, scales, truncation,
                        prefactor)
    return dict.fromkeys(slots, scale), q


def quotient_series(spec: QuotientSpec, truncation: int) -> PowerSeries:
    """The closed-form series q(t) e^{(s.y) t} of the quotient, with SymPoly
    coefficients: a view of its form (scales, q), whose t^n coefficient is
    the one lift at the factor 1/n!.  The checks compare forms instead."""
    return PowerSeries(_series(*_quotient_form(spec, truncation)))


def _series(scales: dict, q) -> tuple:
    """The SymPoly coefficients of a quotient form (scales, q), one lift
    per t^n."""
    return tuple(_lift(scales, q, n, Fraction(1, math.factorial(n)))
                 for n in range(len(q)))


def _lift(scales: dict, F, n: int, factor) -> SymPoly:
    """factor * n! [t^n] of e^{(s.y) t} F(t), s_y = scales[y], over F's
    field: the one writer of SymPoly monomials.  y^t gets factor * F_{n-|t|}
    * (n! prod s_y^t_y // prod t_y!), an integer weight: one scaling each."""
    fact = [math.factorial(j) for j in range(n + 1)]
    # (exponent key, |t|, prod s_y^t_y, prod t_y!) over the monomials y^t
    monos = [((0, 0, 0, 0), 0, 1, 1)]
    for slot, scale in scales.items():
        monos = [(key[:slot] + (t,) + key[slot + 1:], deg + t,
                  num * scale**t, den * fact[t])
                 for key, deg, num, den in monos for t in range(n - deg + 1)]
    return SymPoly(F[0].field, {
        key: F[n - deg] * (factor * (fact[n] * num // den))
        for key, deg, num, den in monos if F[n - deg]})


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
#
# So the row is n! [t^n] of const * prod_i sum_k piece_i(k) (c_i t)^k / k!.
# As sum_k B_k(x) t^k / k! = e^{xt} sum_j B_j t^j / j!, a B piece's series is
# e^{c*u*y_slot*t} times its seed sum_j c^j B_j t^j / j!, c t^(1-v) times
# the p-adic integral ("ratio", c), v = 1 iff xi^(dc) = 1, times one
# character sum per sums entry, sum_{a<A} chi(a) xi^(am) e^{(s*c/q) a t}:
# the factor table ("sum", m, A - 1, s*c/q).  An S piece is the factor table
# ("sum", c, bound), sum_{a<=bound} chi(a) xi^(ca) e^(cat), which a shift
# with s*c/q = m shares.  So the row is e^{(sum_i c_i u_i y_slot_i) t} times
# a quotient with no units (row_operands): one ``cyclo.product``, with no
# shift point visited and no polynomial product.

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


@functools.lru_cache(maxsize=4096)
def row_operands(entry, d: int, w: tuple) -> tuple:
    """(const, scales, sums, exp) of the _ROWS entry at the weights w,
    modulus d, with no arithmetic: e^{(s.y) t}, s_y = exp[y], times the
    quotient with no units t^len(scales) const, a ("ratio", c) per c in
    scales and the sums.  A B piece adds c to scales and const, a ("sum", m,
    A - 1, s*c/q) per shift entry and c*u to its slot's exp; an S piece adds
    ("sum", c, bound).  Memoized by the entry object, never by its row
    name, so a replaced entry is derived afresh."""
    const, pieces = entry(*w, d)
    scales, sums, exp = [], [], {}
    for desc in pieces:
        if desc[0] == "B":
            _, c, u, slot, shifts = desc
            scales.append(c)
            for A, m, s, q in shifts:
                sums.append(("sum", m, A - 1, Fraction(s * c, q)))
            exp[slot] = exp.get(slot, 0) + c * u
        else:
            sums.append(("sum", desc[1], desc[2]))
    return (const * math.prod(scales), tuple(scales), tuple(sums),
            tuple(exp.items()))


def _row_form(row: str, ctx: TwistContext, w: tuple, n: int) -> tuple:
    """The form (scales, F[:n+1]) of a table row at the weights w, whose
    n-th EGF coefficient is n! [t^n] of e^{(s.y) t} F(t): factor_quotient
    of its row_operands, as a _QUOTIENTS row's form is."""
    const, scales, sums, exp = row_operands(_ROWS[row], ctx.d, tuple(w))
    return dict(exp), factor_quotient(ctx, len(scales), (), scales, n, const,
                                      sums)


#: form name -> (family, i); a form's row sums Bernoulli values and power
#: sums directly, independently of quotient_series.
EXPANSION_FORMS = {
    "triple_bernoulli": ("pairwise", 0),
    "bernoulli_bernoulli_powersum": ("pairwise", 1),
    "bernoulli_shifted_bernoulli": ("pairwise", 1),
    "bernoulli_powersum_powersum": ("pairwise", 2),
    "shifted_bernoulli_powersum": ("pairwise", 2),
    "double_shifted_bernoulli": ("pairwise", 2),
    "triple_powersum": ("pairwise", 3),
    "cyclic_triple_bernoulli": ("cyclic", 0),
    "cyclic_triple_powersum": ("cyclic", 1),
}


def _expansion_row(form: str, spec: QuotientSpec, n: int) -> tuple:
    """The row form (scales, const * E[:n+1]) of the named expansion at spec;
    an unknown form, one for another family/index and n < 0 raise."""
    if form not in EXPANSION_FORMS:
        raise ValueError(f"unknown expansion form {form!r}")
    family, i = EXPANSION_FORMS[form]
    if (spec.family, spec.i) != (family, i):
        raise ValueError(
            f"form {form!r} applies to family={family!r} i={i}, "
            f"not family={spec.family!r} i={spec.i}")
    _check_point(spec.w, n)
    return _row_form(form, spec.context, spec.w, n)


def expansion_coefficient(form: str, n: int, spec: QuotientSpec) -> SymPoly:
    """The n-th EGF coefficient of the named finite-sum expansion."""
    return _lift(*_expansion_row(form, spec, n), n, 1)


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


def _distinct_orders(w: tuple, perms: tuple) -> list:
    """The orders (w[a], w[b], w[c]) over perms (a, b, c), each once: a
    repeated weight repeats an order, and an order equals itself."""
    return list(dict.fromkeys((w[a], w[b], w[c]) for a, b, c in perms))


def verify_theorem(theorem: int, ctx: TwistContext, w: tuple[int, int, int],
                   n: int) -> TheoremReport:
    """Evaluate every displayed expression of one symmetry theorem exactly.

    Each expression is an exact SymPoly in the live y-variables, one lift
    per distinct row form (orders with equal forms share it); the verdict is
    pass iff all of them coincide, and only lifts of unequal forms are
    compared.  For theorem 3, the ``printed_shift_variant_matches`` note
    records, by the same rule, whether the variant with the inconsistent
    shift denominator (as printed in one source display) agrees as well;
    the verdict is based on the pattern-consistent expressions only.
    """
    if theorem not in _THEOREM_PATTERNS:
        raise ValueError("theorem id must be 1..8")
    _check_point(w, n)
    perms, row = _THEOREM_PATTERNS[theorem]
    orders = _distinct_orders(w, perms)
    forms = [_row_form(row, ctx, v, n) for v in orders]
    first = [forms.index(form) for form in forms]  # equal forms share a lift
    lifts = {k: _lift(*forms[k], n, 1) for k in set(first)}
    detail = first_mismatch(
        (f"w-order {v} differs from w-order {orders[0]}", lifts[k], lifts[0])
        for v, k in zip(orders, first) if k)
    values = {v: lifts[k] for v, k in zip(orders, first)}
    report = TheoremReport(
        theorem=theorem, params=dict(ctx.params(), w=list(w), n=n),
        expressions=[values[w[a], w[b], w[c]] for a, b, c in perms],
        passed=detail is None, detail=detail)
    if theorem == 3:
        printed = _row_form("bernoulli_shifted_bernoulli_printed", ctx,
                            (w[1], w[0], w[2]), n)
        report.notes["printed_shift_variant_matches"] = (
            printed == forms[0] or _lift(*printed, n, 1) == lifts[0])
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
    _check_point(w, n)
    partner, pairs = _REDUCTIONS[group]
    partners = {v: _row_form(partner, ctx, v, n)
                for v in _distinct_orders(w, [perm for _, perm in pairs])}
    sides = ((row, _row_form(row, ctx, w, n), partners[w[a], w[b], w[c]])
             for row, (a, b, c) in pairs)
    detail = first_mismatch((f"{row}:", _lift(*lhs, n, 1), _lift(*rhs, n, 1))
                            for row, lhs, rhs in sides if lhs != rhs)
    return CheckReport("permutation_reduction_check",
                       dict(ctx.params(), w=list(w), n=n, group=group),
                       detail is None, detail)


# -- whole-series checks --------------------------------------------------------

def permutation_invariance_check(spec: QuotientSpec, truncation: int) -> CheckReport:
    """quotient_series must be identical under every distinct order of the
    weights; each distinct order's form is built once."""
    forms = {v: _quotient_form(QuotientSpec(spec.family, spec.i, v,
                                            spec.context), truncation)
             for v in _distinct_orders(spec.w, _PERM6)}
    (v0, base), *rest = forms.items()
    detail = first_mismatch(
        (f"w-order {v} differs from w-order {v0}", _series(*form),
         _series(*base)) for v, form in rest if form != base)
    return CheckReport("permutation_invariance_check",
                       dict(spec.params(), truncation=truncation),
                       detail is None, detail)


def expansion_consistency_check(form: str, spec: QuotientSpec,
                                n_max: int) -> CheckReport:
    """expansion_coefficient(form, n, .) == n! [t^n] quotient_series for
    n <= n_max: the row's form (scales, const * E) against the quotient's
    (scales, q), lifted at each n only when the two differ."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    row = _expansion_row(form, spec, n_max)
    quotient = _quotient_form(spec, n_max)
    detail = None if row == quotient else first_mismatch(
        (f"n={n}: expansion vs series", _lift(*row, n, 1),
         _lift(*quotient, n, 1)) for n in range(n_max + 1))
    return CheckReport("expansion_consistency_check",
                       dict(spec.params(), form=form, n_max=n_max),
                       detail is None, detail)


def substitution_check(spec: QuotientSpec, truncation: int) -> CheckReport:
    """Weight-substitution principle linking the pairwise and single families.

    The pairwise series with weights (w2*w3, w1*w3, w1*w2) must equal the
    single-family series with the original weights after rescaling t by
    w1*w2*w3 and replacing the twist root by its (w1*w2*w3)-th power.
    Rescaling t by big turns the form (scales, q) into (big*scales,
    q_n*big^n).
    """
    if spec.family != "single":
        raise ValueError("substitution_check applies to the single family")
    w1, w2, w3 = spec.w
    big = w1 * w2 * w3
    lhs = _quotient_form(
        QuotientSpec("pairwise", spec.i, (w2 * w3, w1 * w3, w1 * w2),
                     spec.context), truncation)
    scales, q = _quotient_form(
        QuotientSpec("single", spec.i, spec.w, spec.context.twist(big)),
        truncation)
    rescaled = ({y: s * big for y, s in scales.items()},
                tuple(c * big**n for n, c in enumerate(q)))
    detail = None if lhs == rescaled else first_mismatch([(
        "pairwise vs rescaled single", _series(*lhs), _series(*rescaled))])
    params = dict(spec.params(), truncation=truncation)
    return CheckReport("substitution_check", params, detail is None, detail)
