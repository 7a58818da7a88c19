"""Fixed-point layer probes: single operations timed in isolation.

The points do not depend on the seed.  Each probe reports the median over
``REPEATS`` timings of a batch of operations, as time per operation.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REPEATS = 5
FIELD_ORDERS = (1, 4, 12, 60)
SERIES_N = (6, 12, 24)


def _per_op(fn, ops: int) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) / ops)
    return statistics.median(samples)


def _element(field, salt: int):
    # a dense element with small, distinct rational coordinates
    return field.element([Fraction((3 * i + salt) % 7 - 3 or 1, i % 4 + 1)
                          for i in range(field.degree)])


def run_probes() -> dict:
    from twistbern.bernoulli import TwistContext, bernoulli_numbers
    from twistbern.cyclo import CycloField, cyclo_field
    from twistbern.series import PowerSeries
    from twistbern.sympoly import SymPoly

    out = {}
    batch = 200
    for L in FIELD_ORDERS:
        f = cyclo_field(L)
        x, y = _element(f, 1), _element(f, 2)

        def mul():
            for _ in range(batch):
                x * y

        def add():
            for _ in range(batch):
                x + y

        def inv():
            for _ in range(batch // 10):
                x.inverse()
        out[f"probe.cyclo.mul_us.L{L}"] = _per_op(mul, batch) * 1e6
        out[f"probe.cyclo.add_us.L{L}"] = _per_op(add, batch) * 1e6
        out[f"probe.cyclo.inverse_us.L{L}"] = _per_op(inv, batch // 10) * 1e6

    f = cyclo_field(12)
    y = SymPoly.variable("y", f)
    for N in SERIES_N:
        kinds = {
            "cyclo": PowerSeries([_element(f, j) for j in range(N + 1)]),
            # SymPoly coefficients: 1, then j*y + 1 (the inverse's t^j
            # coefficient has degree j in the one variable)
            "sympoly": PowerSeries([SymPoly.one(f)]
                                   + [y * j + 1 for j in range(1, N + 1)]),
        }
        for kind, s in kinds.items():
            out[f"probe.series.mul_ms.{kind}.N{N}"] = _per_op(
                lambda: s * s, 1) * 1e3
            out[f"probe.series.invert_ms.{kind}.N{N}"] = _per_op(
                s.invert, 1) * 1e3

    def numbers():
        bernoulli_numbers(TwistContext.from_orders(5, 1, 4), 40)
    out["probe.bernoulli.numbers_n40_ms"] = _per_op(numbers, 1) * 1e3

    samples = []
    for _ in range(REPEATS):
        fresh = CycloField(1008)
        t0 = time.perf_counter()
        fresh.root(1)
        samples.append(time.perf_counter() - t0)
        del fresh
    out["probe.cyclo.root_first_ms.L1008"] = statistics.median(samples) * 1e3
    return out

