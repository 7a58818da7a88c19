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
series F over Q(zeta_L).  A _QUOTIENTS row is, as in the paper,
numerator units, each over ct, and one p-adic integral of chi(x) xi^(cx)
e^(cxt) per scale c, c t times the ("ratio", c) table; a table row is a
quotient with no units whose Bernoulli pieces are scales, times its
transcribed constant and character-sum tables.  Every form is planned
before it multiplies, with no field arithmetic: ``bernoulli.quotient_plan``
states its operands as a sorted multiset of factor_table keys, spelling
each key, and derives its constant and power of t from them, once per
(entry, d or i, w), by ``_row_plan`` or ``_quotient_plan``.  A check
groups its weight orders by plan (``_check_plan``) and ``_form`` reads
each plan once from ``bernoulli.keyed_quotient``, the one evaluator,
whose form store serves the plan at every lower n by a slice;
``compared`` counts them in its report.  Every check decides on
forms: equal forms lift to equal SymPolys, so only unequal forms are
lifted (by ``sympoly.lift``) for ``first_mismatch`` to decide; a
theorem's report makes those lifts and keeps them, and lifts the rest of
its forms when its expressions are read.  A _QUOTIENTS row has one plan
under every order, so an invariance check, like any check with one plan,
multiplies once: its pass rests on the plan and on ``cyclo.product`` not
depending on the order of its factors, which tests/test_cyclo_oracle.py
checks.
"""

from __future__ import annotations

import collections
import functools
import math
from fractions import Fraction

from . import sympoly
# _bpoly is bound here for perfbench/tracing.py, which wraps symmetry._bpoly
from .bernoulli import (TwistContext, _bpoly, keyed_quotient,  # noqa: F401
                        quotient_plan)
from .report import CheckReport, ReadOnly, TheoremReport, first_mismatch
from .series import PowerSeries

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


def _coupled(i: int, scales: tuple, big: int) -> tuple:
    """The pairwise and single families' operands: i units of scale big
    over the p-adic integrals at scales, each live slot y1.. of the 3 - i
    scaled by big."""
    return ((big,) * i, scales,
            tuple((y, big) for y in (_Y1, _Y2, _Y3)[:3 - i]))


#: family -> (w1, w2, w3, i) -> (units, scales, exp): the quotient is the
#: units xi^(dc) e^(dct) - 1 over ct of c in units * the p-adic integral of
#: each c in scales * e^{(s.y) t}, s_y = exp[y]; its constant and power of
#: t follow from these operands (bernoulli.quotient_plan).
_QUOTIENTS = {
    "pairwise": lambda w1, w2, w3, i: _coupled(
        i, (w2 * w3, w1 * w3, w1 * w2), w1 * w2 * w3),
    "single": lambda w1, w2, w3, i: _coupled(i, (w1, w2, w3), w1 * w2 * w3),
    # i = 0: the plain product; i = 1: the fully cancelled quotient
    "cyclic": lambda w1, w2, w3, i: (
        ((), (w1, w2, w3), ((_Y, w2 * w3 + w1 * w3 + w1 * w2),)) if i == 0
        else ((w2 * w3, w1 * w3, w1 * w2), (w1, w2, w3), ())),
}


@functools.lru_cache(maxsize=4096)
def _quotient_plan(entry, i: int, w: tuple) -> tuple:
    """The ``quotient_plan`` of the _QUOTIENTS entry's operands at the
    weights w and index i, memoized by the entry."""
    units, scales, exp = entry(*w, i)
    return quotient_plan(units, scales, exp=exp)


def _form(ctx: TwistContext, plan: tuple, n: int) -> tuple:
    """The form (scales, F[:n+1]) of a plan at ctx: its exp pairs
    (slot, s_y) and ``keyed_quotient``, which keeps F in the context's
    form store and raises where n < 0 or a cancellation of t fails."""
    return plan[3], keyed_quotient(ctx, plan, n)


def _quotient_form(spec: QuotientSpec, truncation: int) -> tuple:
    """The form (scales, q) of the quotient to t^truncation."""
    return _form(spec.context, _quotient_plan(
        _QUOTIENTS[spec.family], spec.i, tuple(spec.w)), truncation)


def quotient_series(spec: QuotientSpec, truncation: int) -> PowerSeries:
    """The closed-form series q(t) e^{(s.y) t} of the quotient, with SymPoly
    coefficients: a view of its form (scales, q), whose t^n coefficient is
    the one lift at the factor 1/n!.  The checks compare forms instead."""
    return PowerSeries(_series(*_quotient_form(spec, truncation)))


def _series(scales: tuple, q) -> tuple:
    """The SymPoly coefficients of a quotient form (scales, q), one lift
    per t^n."""
    return tuple(sympoly.lift(scales, q, n, Fraction(1, math.factorial(n)))
                 for n in range(len(q)))


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
# e^{c*u*y_slot*t} times its seed sum_j c^j B_j t^j / j!, the p-adic
# integral c t I_c of scale c, times one character sum per sums entry,
# sum_{a<A} chi(a) xi^(am) e^{(s*c/q) a t}: the sum (m, A - 1, s*c/q).  An
# S piece is the sum (c, bound, c), sum_{a<=bound} chi(a) xi^(ca) e^(cat),
# which a shift with s*c/q = m shares, as quotient_plan spells both keys
# alike.  So the row is
# e^{(sum_i c_i u_i y_slot_i) t} times a quotient with no units
# (row_operands): one ``cyclo.product``, with no shift point visited and no
# polynomial product.

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


def row_operands(entry, d: int, w: tuple) -> tuple:
    """(const, scales, sums, exp) of the _ROWS entry at the weights w,
    modulus d, with no arithmetic: e^{(s.y) t}, s_y = exp[y], times const
    as transcribed, the p-adic integral of each c in scales and the sums.
    A B piece adds c to scales, a sum (m, A - 1, s*c/q) per shift entry,
    and c*u to its slot's exp; an S piece adds the sum (c, bound, c), as
    ``quotient_plan`` reads them."""
    const, pieces = entry(*w, d)
    scales, sums, exp = [], [], {}
    for desc in pieces:
        if desc[0] == "B":
            _, c, u, slot, shifts = desc
            scales.append(c)
            sums += [(m, A - 1, Fraction(s * c, q)) for A, m, s, q in shifts]
            exp[slot] = exp.get(slot, 0) + c * u
        else:
            sums.append((desc[1], desc[2], desc[1]))
    return const, tuple(scales), tuple(sums), tuple(exp.items())


@functools.lru_cache(maxsize=4096)
def _row_plan(entry, d: int, w: tuple) -> tuple:
    """The ``quotient_plan`` of the _ROWS entry's row_operands at the
    weights w, modulus d: a quotient with no units.  Memoized by the entry
    object, never by its name, so a replaced entry is planned afresh, as by
    ``_quotient_plan``."""
    const, scales, sums, exp = row_operands(entry, d, w)
    return quotient_plan((), scales, sums, exp, const)


def _row_form(row: str, ctx: TwistContext, w: tuple, n: int) -> tuple:
    """The form (scales, F[:n+1]) of a table row at the weights w, whose
    n-th EGF coefficient is n! [t^n] of e^{(s.y) t} F(t)."""
    return _form(ctx, _row_plan(_ROWS[row], ctx.d, tuple(w)), n)


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


def expansion_coefficient(form: str, n: int,
                          spec: QuotientSpec) -> sympoly.SymPoly:
    """The n-th EGF coefficient of the named finite-sum expansion."""
    return sympoly.lift(*_expansion_row(form, spec, n), n, 1)


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


class CheckPlan(collections.namedtuple("CheckPlan",
                                        ("orders", "plans", "at"))):
    """A check's distinct plans, order 0's first, one form each; the first
    weight order of each; and, per perm, the index of its order's plan."""

    __slots__ = ()

    @property
    def compared(self) -> int:
        return len(self.plans)


@functools.lru_cache(maxsize=4096)
def _check_plan(planner, entry, arg: int, w: tuple,
                perms: tuple) -> CheckPlan:
    """The plan of a check over the orders (w[a], w[b], w[c]) of w, (a, b,
    c) in perms, each order planned by planner(entry, arg, order):
    ``_row_plan`` (arg d) or ``_quotient_plan`` (arg i).  Orders of equal
    plans share one form.  Grouped by equality, so no Fraction is hashed,
    and memoized by the entry object, never by its name."""
    orders, plans, at = [], [], []
    for a, b, c in perms:
        order = (w[a], w[b], w[c])
        plan = planner(entry, arg, order)
        if plan not in plans:
            orders.append(order)
            plans.append(plan)
        at.append(plans.index(plan))
    return CheckPlan(tuple(orders), tuple(plans), tuple(at))


def verify_theorem(theorem: int, ctx: TwistContext, w: tuple[int, int, int],
                   n: int) -> TheoremReport:
    """Evaluate every displayed expression of one symmetry theorem exactly.

    The plan (``_check_plan``) groups the weight orders by row plan, and
    ``_form`` builds one row form per plan, shared by its orders; the
    report keeps them, ``compared`` of them.  The verdict is pass iff all
    forms coincide: only forms that differ are lifted, by the report, for
    ``first_mismatch`` to decide.  ``expressions`` holds one exact SymPoly
    in the live y-variables per displayed expression, lifted by the report
    at its first read: once where every form is order 0's, and otherwise
    once per plan, the lifts made for ``first_mismatch`` among them.  For
    theorem 3, the ``printed_shift_variant_matches`` note records whether
    the variant with the inconsistent shift denominator (as printed in one
    source display) agrees with order 0 as well, by its form, which
    decides with no lift, as its scales are order 0's.  The verdict is
    based on the pattern-consistent expressions only.
    """
    if theorem not in _THEOREM_PATTERNS:
        raise ValueError("theorem id must be 1..8")
    _check_point(w, n)
    perms, row = _THEOREM_PATTERNS[theorem]
    w = tuple(w)
    plan = _check_plan(_row_plan, _ROWS[row], ctx.d, w, perms)
    forms = tuple(_form(ctx, p, n) for p in plan.plans)
    differ = any(form != forms[0] for form in forms[1:])
    params = ctx.params()
    params["w"], params["n"] = list(w), n
    # where every form is order 0's, every expression is its one lift
    report = TheoremReport(theorem=theorem, params=params, forms=forms,
                           at=plan.at if differ else (0,) * len(perms), n=n)
    if differ:
        # the report keeps the lifts first_mismatch reads, for expressions
        report.detail = first_mismatch(
            (f"w-order {v} differs from w-order {plan.orders[0]}",
             report.lift(k), report.lift(0))
            for k, (v, form) in enumerate(zip(plan.orders, forms))
            if form != forms[0])
        report.passed = report.detail is None
    if theorem == 3:
        # the variant at (w2, w1, w3) has the scales of order 0, each one
        # nonzero, so each F_j, j <= n, weighs a monomial y^t, |t| = n - j,
        # of the lift at n: its form decides
        printed = _row_form("bernoulli_shifted_bernoulli_printed", ctx,
                            (w[1], w[0], w[2]), n)
        report.notes["printed_shift_variant_matches"] = printed == forms[0]
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
    equal their stated partners after the index interchange/cycle.  Each
    distinct plan among the partners and the left-hand rows is one form,
    ``compared`` in the report: a left-hand row that plans equal to its
    partner reads the partner's form from the context's store."""
    if group not in _REDUCTIONS:
        raise ValueError("group must be 4 or 8")
    _check_point(w, n)
    partner, pairs = _REDUCTIONS[group]
    w = tuple(w)
    plan = _check_plan(_row_plan, _ROWS[partner], ctx.d, w,
                       tuple(perm for _, perm in pairs))
    lefts = [_row_plan(_ROWS[row], ctx.d, w) for row, _ in pairs]
    partners = [_form(ctx, p, n) for p in plan.plans]
    sides = ((row, _form(ctx, left, n), partners[k])
             for (row, _), left, k in zip(pairs, lefts, plan.at))
    detail = first_mismatch(
        (f"{row}:", sympoly.lift(*lhs, n, 1), sympoly.lift(*rhs, n, 1))
        for row, lhs, rhs in sides if lhs != rhs)
    return CheckReport("permutation_reduction_check",
                       dict(ctx.params(), w=list(w), n=n, group=group),
                       detail is None, detail, len({*plan.plans, *lefts}))


# -- whole-series checks --------------------------------------------------------

def permutation_invariance_check(spec: QuotientSpec, truncation: int) -> CheckReport:
    """quotient_series must be identical under every distinct order of the
    weights.  The plan (``_check_plan``) groups the orders by quotient
    plan, and one form is built per plan and compared with order 0's; the
    report's ``compared`` counts them.  A _QUOTIENTS row has one plan
    under every order, so a pass of one plan rests on it and on
    ``cyclo.product`` not depending on the order of its factors; only
    forms that differ are lifted."""
    plan = _check_plan(_quotient_plan, _QUOTIENTS[spec.family], spec.i,
                       tuple(spec.w), _PERM6)
    forms = [_form(spec.context, p, truncation) for p in plan.plans]
    detail = first_mismatch(
        (f"w-order {v} differs from w-order {plan.orders[0]}",
         _series(*form), _series(*forms[0]))
        for v, form in zip(plan.orders, forms) if form != forms[0])
    return CheckReport("permutation_invariance_check",
                       dict(spec.params(), truncation=truncation),
                       detail is None, detail, len(forms))


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
        (f"n={n}: expansion vs series", sympoly.lift(*row, n, 1),
         sympoly.lift(*quotient, n, 1)) for n in range(n_max + 1))
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
    rescaled = (tuple((y, s * big) for y, s in scales),
                tuple(c * big**n for n, c in enumerate(q)))
    detail = None if lhs == rescaled else first_mismatch([(
        "pairwise vs rescaled single", _series(*lhs), _series(*rescaled))])
    params = dict(spec.params(), truncation=truncation)
    return CheckReport("substitution_check", params, detail is None, detail)
