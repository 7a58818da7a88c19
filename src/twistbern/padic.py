"""Partial-sum realization of the defining integrals and p-adic convergence checks.

The integral attached to a context is the limit of the averages
(1/(d p^N)) * sum_{j < d p^N} chi(j) xi^j j^k; the prime p is an argument
here, not part of the context.  This module computes those partial sums
exactly, measures their distance to the closed-form Bernoulli coefficients
with the pi-adic valuation on Q(zeta_{p^s}) of a PadicContext (pi = 1 - zeta,
normalized so v(p) = 1), and checks the shift identity of the integral.

Scope of the check: xi of order p^s and real-valued chi (order <= 2), so
the values lie in Q(zeta_{p^s}).  There p is totally ramified, so the
valuation extends uniquely, and Phi_{p^s}(x) = (x - 1)^e mod p makes it a
count mod p: the multiplicity of x - 1 in the numerators reduced mod p,
read by synthetic division, with no product or inverse in the field.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .bernoulli import (TwistContext, bernoulli_numbers,
                        bernoulli_polynomial, power_sum)
from .cyclo import CycloField, CycloNumber, cyclo_field, euler_phi, factorize
from .report import ReadOnly, Verdict

INFINITE = math.inf


class PadicContext(ReadOnly):
    """Valuation data for Q(zeta_{p^s}): uniformizer pi = 1 - zeta, v(pi) = 1/e
    with e = ramification = phi(p^s), so v(p) = 1."""

    __slots__ = ("p", "s", "field", "ramification")

    def __init__(self, p: int, s: int, field: CycloField, ramification: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ramification", ramification)


def padic_context(p: int, s: int) -> PadicContext:
    if p < 2 or factorize(p) != {p: 1}:
        raise ValueError("p must be prime")
    if s < 0:
        raise ValueError("s must be >= 0")
    order = p**s
    return PadicContext(p, s, cyclo_field(order), euler_phi(order))


def _pval(n: int, p: int) -> int:
    # p-adic valuation of a nonzero integer
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def pi_valuation(alpha: CycloNumber, pctx: PadicContext):
    """v(alpha) with v(p) = 1, as a Fraction; v(0) is +infinity.

    The rational content's p-power is read off the integer numerators and
    the denominator and split off first.  The remaining p-integral part has
    a denominator prime to p and numerators c(x) of gcd prime to p, and
    Z[zeta]/(p) = F_p[x]/(Phi_{p^s}) = F_p[x]/((x - 1)^e) (J. Neukirch,
    Algebraic Number Theory, I.8.3), with pi = 1 - zeta <-> x - 1 up to
    sign.  So the part has valuation k/e for the multiplicity k of the
    factor x - 1 in c(x) mod p: synthetic division by x - 1 mod p, taken
    while the coefficient sum c(1) is 0 mod p, with no field product.  As
    c(x) mod p is nonzero of degree below e, k < e; a k reaching e is an
    internal error.
    """
    if alpha.field.order != pctx.field.order:
        raise ValueError("element lies outside the stated field")
    if alpha.is_zero():
        return INFINITE
    p = pctx.p
    top = _pval(math.gcd(*alpha.num), p)
    bottom = _pval(alpha.den, p)
    c = [x // p**top % p for x in alpha.num]
    k = 0
    while sum(c) % p == 0:
        # c(x) = (x - 1) q(x) as c(1) = 0, so -q_i = c_0 + ... + c_i
        c = [x % p for x in accumulate(c[:-1])]
        k += 1
        if k == pctx.ramification:
            raise ArithmeticError("pi-division did not terminate")
    return Fraction(top - bottom) + Fraction(k, pctx.ramification)


def volkenborn_partial(ctx: TwistContext, p: int, k: int,
                       level: int) -> CycloNumber:
    """(1/(d p^N)) * sum_{j<d p^N} chi(j) xi^j j^k, exactly (N = level):
    the power sum S_k(d p^N - 1) of the context over d p^N."""
    if k < 0 or level < 0:
        raise ValueError("k and level must be >= 0")
    total = ctx.d * p**level
    return power_sum(ctx, k, total - 1) / total


class ConvergenceReport(Verdict):
    """Valuations v(V_N - B_k) for N = 1..N_max and the monotonicity verdict;
    rows holds (N, Fraction | math.inf) pairs."""

    __slots__ = ("params", "rows", "passed", "detail")

    def __init__(self, params: dict, rows: list, passed: bool,
                 detail: str | None = None):
        self.params = params
        self.rows = rows
        self.passed = passed
        self.detail = detail

    def to_json_dict(self) -> dict:
        return {"check": "convergence_check", "params": self.params,
                "rows": [[n, "inf" if v == INFINITE else str(v)]
                         for n, v in self.rows],
                "verdict": self.verdict, "detail": self.detail}


def convergence_check(ctx: TwistContext, pctx: PadicContext, k: int,
                      n_max: int) -> ConvergenceReport:
    """Witness convergence of the partial sums to B_k at the prime of pctx.

    Flags pass iff the finite valuations are strictly increasing.  Levels
    where the partial sum is already exact (valuation +infinity) are skipped:
    a constant integrand gives all-infinite rows, and an exact hit at a low
    level (it happens, e.g. the level-1 average of xi^j j^4 at xi = -1)
    does not impair the convergence the later levels witness.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if ctx.xi_order != pctx.p**pctx.s:
        raise ValueError("xi order is not the stated prime power")
    if ctx.chi.order > 2:
        raise ValueError("unsupported: values outside Q(zeta_{p^s})")
    if ctx.field.order != pctx.field.order:
        raise ValueError("unsupported: values outside Q(zeta_{p^s})")
    target = bernoulli_numbers(ctx, k)[k]
    rows = []
    for level in range(1, n_max + 1):
        diff = volkenborn_partial(ctx, pctx.p, k, level) - target
        rows.append((level, pi_valuation(diff, pctx)))
    passed = True
    detail = None
    finite = [(n, v) for n, v in rows if v != INFINITE]
    for (n1, v1), (n2, v2) in zip(finite, finite[1:]):
        if not v2 > v1:
            passed = False
            detail = f"valuation not increasing from N={n1} ({v1}) to N={n2} ({v2})"
            break
    params = dict(ctx.params(), p=pctx.p, s=pctx.s, k=k, n_max=n_max)
    return ConvergenceReport(params, rows, passed, detail)


def shift_identity_check(m: int, n: int) -> bool:
    """Exact check of the integral shift identity for f(z) = z^m, shift n.

    Both sides are exactly computable for d=1, xi=1:
    B_m(n) - B_m = m * sum_{a<n} a^(m-1), with 0^0 = 1.
    """
    if m < 0 or n < 1:
        raise ValueError("need m >= 0 and n >= 1")
    ctx = TwistContext.from_orders(1, 0, 1, 1)
    lhs = bernoulli_polynomial(ctx, m, n) - bernoulli_numbers(ctx, m)[m]
    rhs = m * sum(a ** (m - 1) for a in range(n)) if m else 0
    return lhs == rhs

