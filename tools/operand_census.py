#!/usr/bin/env python3
"""What the checks of a perfbench block compare, read from their operands.

    python3 tools/operand_census.py [--workload theorems] [--seed 1 ...]

Takes the first ``block_size(workload)`` checks of each seed's stream (see
``perfbench/workloads.py``, imported from this checkout and never edited)
and sorts each check into one of three classes by the operands of the
forms it compares:

* one order: its weights give one distinct weight order, so it compares
  one form with nothing;
* one multiset: every order has the same const, t shift, scales and
  sorted operand keys, so its forms are equal once ``cyclo.product`` does
  not depend on the order of its operands;
* different: the operands of two orders differ.  A ``powersum_gf_check``
  compares a quotient with two direct sums, so it is always counted here.

A theorem check is read from its plan, ``symmetry._theorem_plan``, which
groups its weight orders by the operand multiset of their rows: the
(const, sorted exp, sorted scales, sorted sum keys) of
``symmetry.row_operands``.  A quotient is read through the shape (const,
shift, sorted exp, sorted keys) of ``bernoulli.quotient_operands``, its
units and scales from ``symmetry._QUOTIENTS``.  Each key is taken as
``bernoulli.stored_key`` stores it, as in the plan.  Both read exponents
only: no table is built and no product is formed.  For the theorem checks
the tool also prints the weight orders (one row form each, before the
plan) and the distinct operand multisets (one product each, with the
plan).  Without ``--workload`` both the ``theorems`` and the ``series``
workload are counted; without ``--seed``, seeds 1 and 7.  Stdlib only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from twistbern import symmetry  # noqa: E402
from twistbern.bernoulli import quotient_operands, stored_key  # noqa: E402
from workloads import Workload, block_size  # noqa: E402

CLASSES = ("one order", "one operand multiset", "different operands")


def _quotient(family: str, i: int, ctx, w: tuple) -> tuple:
    """(const, shift, sorted exp, sorted keys) of the quotient form
    e^{(s.y) t} times const t^t_power, its units and a p-adic integral per
    scale, as _QUOTIENTS states it at the weights w."""
    const, t_power, units, scales, slots, scale = symmetry._QUOTIENTS[
        family](*w, i)
    shift, keys = quotient_operands(ctx, t_power, units, scales)
    return (const, shift, sorted(dict.fromkeys(slots, scale).items()),
            sorted(stored_key(ctx.d, key) for key in keys))


def _plan(workload: Workload, check) -> tuple:
    """Per distinct weight order of the check, the index of the first order
    with its operands."""
    if check.kind == "theorem":
        theorem, ci, w, _ = check.args
        perms, row = symmetry._THEOREM_PATTERNS[theorem]
        return symmetry._theorem_plan(symmetry._ROWS[row],
                                      workload.contexts[ci].d,
                                      symmetry._distinct_orders(w, perms))
    family, i, ci, w, _ = check.args
    ctx = workload.contexts[ci]
    operands = [_quotient(family, i, ctx, v)
                for v in symmetry._distinct_orders(w, symmetry._PERM6)]
    return tuple(map(operands.index, operands))


def classify(workload: Workload, check) -> str:
    """The class of one check, from the operands of each distinct order."""
    if check.kind not in ("theorem", "invariance"):
        return CLASSES[2]
    plan = _plan(workload, check)
    if len(plan) == 1:
        return CLASSES[0]
    return CLASSES[1] if not any(plan) else CLASSES[2]


def _checks(name: str, seed: int):
    workload = Workload(name, seed)
    workload.setup()
    for _ in range(block_size(name)):
        yield workload, workload.next_check()


def census(name: str, seed: int) -> dict:
    """The number of checks of each class in one block."""
    counts = dict.fromkeys(CLASSES, 0)
    for workload, check in _checks(name, seed):
        counts[classify(workload, check)] += 1
    return counts


def theorem_work(name: str, seed: int) -> tuple:
    """(weight orders, distinct operand multisets) summed over the theorem
    checks of one block: its row forms without the plan, and with it."""
    plans = [_plan(workload, check) for workload, check in _checks(name, seed)
             if check.kind == "theorem"]
    return sum(map(len, plans)), sum(len(set(plan)) for plan in plans)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=("theorems", "series"))
    ap.add_argument("--seed", type=int, action="append")
    args = ap.parse_args(argv)
    for name in args.workload or ("theorems", "series"):
        for seed in args.seed or (1, 7):
            counts = census(name, seed)
            orders, multisets = theorem_work(name, seed)
            print(f"{name} seed {seed}: {sum(counts.values())} checks, "
                  + ", ".join(f"{n} {label}" for label, n in counts.items())
                  + (f"; theorem checks: {orders} weight orders, "
                     f"{multisets} operand multisets" if orders else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
