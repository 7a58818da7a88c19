"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact (rational/cyclotomic equality); the stated wall-time
budgets are asserted as well.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from twistbern.bernoulli import (TwistContext, bernoulli_numbers, power_sum,
                                 powersum_gf_check)
from twistbern.characters import enumerate_characters
from twistbern.padic import (INFINITE, convergence_check, padic_context,
                             shift_identity_check)
from twistbern.symmetry import (EXPANSION_FORMS, QuotientSpec,
                                expansion_coefficient,
                                permutation_invariance_check,
                                permutation_reduction_check, quotient_series,
                                substitution_check, verify_theorem)

from cyclo_helpers import rational_value

D_GRID = (1, 3, 4, 5)
XI_ORDERS = (1, 2, 3, 4)
W_TRIPLES = ((1, 2, 3), (2, 3, 5))
THEOREM_W = ((1, 1, 1), (1, 2, 3), (2, 3, 5))


@contextmanager
def criterion(num, label, budget_seconds):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num} [{label}]: FAIL "
              f"({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_seconds, \
        f"criterion {num} exceeded its {budget_seconds}s budget ({elapsed:.1f}s)"
    print(f"criterion {num} [{label}]: PASS ({elapsed:.2f}s)")


@lru_cache(maxsize=None)
def _ctx(d, char_index, xi_order):
    return TwistContext.from_orders(d, char_index, xi_order, 1)


def _all_contexts():
    for d in D_GRID:
        for idx in range(len(enumerate_characters(d))):
            for r in XI_ORDERS:
                yield _ctx(d, idx, r)


def _primitive_contexts():
    for d in D_GRID:
        for idx, chi in enumerate(enumerate_characters(d)):
            if chi.is_primitive:
                for r in XI_ORDERS:
                    yield _ctx(d, idx, r)


def _classical_oracle(n_max):
    # independent recurrence: sum_{k<n} C(n,k) B_k = 0 for n >= 2
    b = [Fraction(1), Fraction(-1, 2)]
    for n in range(2, n_max + 1):
        b.append(-sum(math.comb(n + 1, k) * b[k] for k in range(n))
                 / (n + 1))
    return b


def test_criterion_1_classical_reduction():
    with criterion(1, "classical-reduction", 1.0):
        oracle = _classical_oracle(12)
        # the recurrence itself, as stated
        for n in range(2, 13):
            assert sum(math.comb(n, k) * oracle[k] for k in range(n)) == 0
        table = bernoulli_numbers(_ctx(1, 0, 1), 12)
        for n in range(13):
            assert table[n] == oracle[n]


def test_criterion_2_generalized_bernoulli_reduction():
    with criterion(2, "generalized-bernoulli-reduction", 1.0):
        ctx = _ctx(4, 1, 1)   # nonprincipal chi mod 4, xi = 1
        table = bernoulli_numbers(ctx, 6)
        assert table[1] == Fraction(-1, 2)
        oracle = _classical_oracle(6)

        def classical_poly(n, x):
            return sum(math.comb(n, k) * oracle[k] * x ** (n - k)
                       for k in range(n + 1))

        chi = ctx.chi
        for n in range(7):
            expected = Fraction(4) ** (n - 1) * sum(
                rational_value(chi(a)) * classical_poly(n, Fraction(a, 4))
                for a in range(4) if not chi(a).is_zero())
            assert table[n] == expected


def test_criterion_3_powersum_gf_identity():
    with criterion(3, "powersum-gf-identity", 30.0):
        count = 0
        for ctx in _all_contexts():
            for w in (1, 2, 3):
                rep = powersum_gf_check(ctx, w, 10)
                assert rep.passed, rep.detail
                count += 1
        assert count == 36 * 3


def test_criterion_4_permutation_invariance():
    with criterion(4, "quotient-series-S3-invariance", 120.0):
        for ctx in _all_contexts():
            for w in W_TRIPLES:
                for family, top in (("pairwise", 3), ("single", 3),
                                    ("cyclic", 1)):
                    for i in range(top + 1):
                        rep = permutation_invariance_check(
                            QuotientSpec(family, i, w, ctx), 6)
                        assert rep.passed, rep.detail


def test_criterion_5_expansion_consistency():
    with criterion(5, "expansion-consistency", 300.0):
        by_family = {}
        for form, (family, i) in EXPANSION_FORMS.items():
            by_family.setdefault((family, i), []).append(form)
        for ctx in _all_contexts():
            for w in W_TRIPLES:
                for (family, i), forms in by_family.items():
                    spec = QuotientSpec(family, i, w, ctx)
                    series = quotient_series(spec, 5)
                    for form in forms:
                        for n in range(6):
                            assert expansion_coefficient(form, n, spec) == \
                                series.egf(n), (form, n, spec.params())


def test_criterion_6_theorems():
    with criterion(6, "symmetry-theorems", 600.0):
        for ctx in _primitive_contexts():
            for w in THEOREM_W:
                for tid in range(1, 9):
                    for n in range(7):
                        rep = verify_theorem(tid, ctx, w, n)
                        assert rep.passed, (tid, n, rep.params, rep.detail)


def test_criterion_7_permutation_reductions():
    with criterion(7, "permutation-reductions", 120.0):
        for ctx in _primitive_contexts():
            for w in THEOREM_W:
                for group in (4, 8):
                    for n in range(5):
                        rep = permutation_reduction_check(group, ctx, w, n)
                        assert rep.passed, rep.detail


def test_criterion_8_substitution_principle():
    with criterion(8, "weight-substitution-principle", 60.0):
        for d in (1, 4):
            for idx in range(len(enumerate_characters(d))):
                for r in XI_ORDERS:
                    ctx = _ctx(d, idx, r)
                    for w in W_TRIPLES:
                        for i in range(4):
                            rep = substitution_check(
                                QuotientSpec("single", i, w, ctx), 5)
                            assert rep.passed, rep.detail


def test_criterion_9_padic_convergence():
    with criterion(9, "padic-convergence", 60.0):
        cases = []
        for p, s in ((2, 1), (2, 2), (3, 1), (2, 0), (3, 0)):
            for d in (1, p):
                for idx, chi in enumerate(enumerate_characters(d)):
                    if chi.order <= 2:
                        cases.append((p, s, d, idx))
        for p, s, d, idx in cases:
            ctx = TwistContext.from_orders(d, idx, p**s, 1)
            for k in range(5):
                rep = convergence_check(ctx, padic_context(p, s), k, 5)
                assert rep.passed, (p, s, d, idx, k, rep.detail)
        # the worked example: p=3, d=1, xi=1, k=1 gives valuations 1..5
        ctx = TwistContext.from_orders(1, 0, 1, 1)
        rep = convergence_check(ctx, padic_context(3, 0), 1, 5)
        assert [v for _, v in rep.rows] == [Fraction(n) for n in range(1, 6)]


def test_criterion_10_shift_identity():
    with criterion(10, "integral-shift-identity", 1.0):
        for m in range(9):
            for n in range(1, 7):
                assert shift_identity_check(m, n), (m, n)
