#!/usr/bin/env python3
"""What the checks of a perfbench block compare, read from their operands.

    python3 tools/operand_census.py [--workload theorems] [--seed 1 ...]

Takes the first ``block_size(workload)`` checks of each seed's stream (see
``perfbench/workloads.py``, imported from this checkout and never edited)
and sorts each check into one of three classes by the operands of the
forms it compares:

* one order: its weights give one distinct weight order, so it compares
  one form with nothing;
* one multiset: every order has one plan, its operands as a sorted
  multiset, so the check builds one form, and its pass rests on its plan
  and on ``cyclo.product`` not depending on the order of its operands;
* different: the operands of two orders differ.  A ``powersum_gf_check``
  compares a quotient with two direct sums, so it is always counted here.

Both kinds of check are read from the one plan they run,
``symmetry._check_plan``, whose ``compared`` is that of the check's report
(the number of forms it builds) and which groups their weight orders by
``bernoulli.quotient_plan``: a theorem check's rows by
``symmetry._row_plan``, each sum key in its one spelling, and an
invariance check's quotients by ``symmetry._quotient_plan`` of their
``symmetry._QUOTIENTS`` row.  The plan reads operands only: no
table is built and no product is formed.  The tool also prints
the weight orders of the planned checks (one form each, before the plan)
and their distinct operand multisets (one product each, with the plan).
Without ``--workload`` both the ``theorems`` and the ``series`` workload
are counted; without ``--seed``, seeds 1 and 7.  Stdlib only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from twistbern import symmetry  # noqa: E402
from workloads import Workload, block_size  # noqa: E402

CLASSES = ("one order", "one operand multiset", "different operands")


def _plan(workload: Workload, check) -> tuple:
    """(distinct weight orders, plan) of the check: its plan
    ``symmetry._check_plan`` groups those orders by operands."""
    if check.kind == "theorem":
        theorem, ci, w, _ = check.args
        perms, row = symmetry._THEOREM_PATTERNS[theorem]
        args = (symmetry._row_plan, symmetry._ROWS[row],
                workload.contexts[ci].d)
    else:
        family, i, _, w, _ = check.args
        perms = symmetry._PERM6
        args = (symmetry._quotient_plan, symmetry._QUOTIENTS[family], i)
    w = tuple(w)
    return (len({(w[a], w[b], w[c]) for a, b, c in perms}),
            symmetry._check_plan(*args, w, perms))


def classify(workload: Workload, check) -> str:
    """The class of one check, from its plan: the number of its orders and
    ``compared``, the number of forms the check builds, as its report
    states it."""
    if check.kind not in ("theorem", "invariance"):
        return CLASSES[2]
    orders, plan = _plan(workload, check)
    if orders == 1:
        return CLASSES[0]
    return CLASSES[1] if plan.compared == 1 else CLASSES[2]


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


def plan_work(name: str, seed: int) -> tuple:
    """(weight orders, distinct operand multisets) summed over the theorem
    and invariance checks of one block: its forms without the plan, and
    with it."""
    plans = [_plan(workload, check) for workload, check in _checks(name, seed)
             if check.kind in ("theorem", "invariance")]
    return (sum(orders for orders, _ in plans),
            sum(plan.compared for _, plan in plans))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=("theorems", "series"))
    ap.add_argument("--seed", type=int, action="append")
    args = ap.parse_args(argv)
    for name in args.workload or ("theorems", "series"):
        for seed in args.seed or (1, 7):
            counts = census(name, seed)
            orders, multisets = plan_work(name, seed)
            print(f"{name} seed {seed}: {sum(counts.values())} checks, "
                  + ", ".join(f"{n} {label}" for label, n in counts.items())
                  + (f"; planned checks: {orders} weight orders, "
                     f"{multisets} operand multisets" if orders else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
