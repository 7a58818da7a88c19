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

Rows and quotients are read through one shape, (const, shift, scales,
sorted keys), from ``bernoulli.quotient_operands``: a quotient's units
and scales come from ``symmetry._QUOTIENTS``, and a row is the quotient
with no units that ``symmetry.row_operands`` states.  Both read exponents
only: no table is built and no product is formed.  Without ``--workload``
both the ``theorems`` and the ``series`` workload are counted; without
``--seed``, seeds 1 and 7.  Stdlib only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from twistbern import symmetry  # noqa: E402
from twistbern.bernoulli import quotient_operands  # noqa: E402
from workloads import Workload, block_size  # noqa: E402

CLASSES = ("one order", "one operand multiset", "different operands")


def _operands(ctx, const, t_power: int, units: tuple, scales: tuple,
              sums: tuple, exp: dict) -> tuple:
    """(const, shift, scales, sorted keys) of a form e^{(s.y) t}, s_y =
    exp[y], times const t^t_power, its units, a p-adic integral per scale
    and the sums' tables."""
    shift, keys = quotient_operands(ctx, t_power, units, scales, sums)
    return const, shift, sorted(exp.items()), sorted(keys)


def _row(row: str, ctx, w: tuple) -> tuple:
    const, scales, sums, exp = symmetry.row_operands(symmetry._ROWS[row],
                                                     ctx.d, w)
    return _operands(ctx, const, len(scales), (), scales, sums, dict(exp))


def _quotient(family: str, i: int, ctx, w: tuple) -> tuple:
    const, t_power, units, scales, slots, scale = symmetry._QUOTIENTS[
        family](*w, i)
    return _operands(ctx, const, t_power, units, scales, (),
                     dict.fromkeys(slots, scale))


def classify(workload: Workload, check) -> str:
    """The class of one check, from the operands of each distinct order."""
    if check.kind == "theorem":
        theorem, ci, w, _ = check.args
        perms, row = symmetry._THEOREM_PATTERNS[theorem]
        ctx = workload.contexts[ci]
        operands = [_row(row, ctx, v)
                    for v in symmetry._distinct_orders(w, perms)]
    elif check.kind == "invariance":
        family, i, ci, w, _ = check.args
        ctx = workload.contexts[ci]
        operands = [_quotient(family, i, ctx, v)
                    for v in symmetry._distinct_orders(w, symmetry._PERM6)]
    else:
        return CLASSES[2]
    if len(operands) == 1:
        return CLASSES[0]
    return CLASSES[1] if all(op == operands[0] for op in operands) \
        else CLASSES[2]


def census(name: str, seed: int) -> dict:
    workload = Workload(name, seed)
    workload.setup()
    counts = dict.fromkeys(CLASSES, 0)
    for _ in range(block_size(name)):
        counts[classify(workload, workload.next_check())] += 1
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=("theorems", "series"))
    ap.add_argument("--seed", type=int, action="append")
    args = ap.parse_args(argv)
    for name in args.workload or ("theorems", "series"):
        for seed in args.seed or (1, 7):
            counts = census(name, seed)
            print(f"{name} seed {seed}: {sum(counts.values())} checks, "
                  + ", ".join(f"{n} {label}" for label, n in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
