#!/usr/bin/env python3
"""CPU time of one block of a perfbench workload, in a fresh interpreter.

    python3 tools/block_time.py CHECKOUT [--workload series] [--seed 7]
                                [--profile N | --counts]

Runs the first ``block_size(workload)`` checks of the seed's stream (see
``perfbench/workloads.py``) in a new Python process whose path holds
``CHECKOUT/src`` and ``CHECKOUT/perfbench``, so the program and the
benchmark code are the checkout's own.  The set-up (imports and shared
contexts) is not timed; the block is, by ``time.process_time``, with every
cache of the program empty at its start.  It prints the CPU seconds, those
of the block and the gate after it together (the gate digests each
check's output, which reads a theorem report's ``expressions``, so work
a lazy report defers shows there) and how many checks passed the gate's
verdict (digests are not compared).
``--profile N`` runs the block under cProfile instead and also prints the
N functions of largest self time, with their call counts; profiled
seconds are not comparable with unprofiled ones.  ``--counts`` runs the
block with the product kernel's entry points wrapped and prints its work
counts instead: the ``cyclo.product`` calls (each form evaluated by
``bernoulli.keyed_quotient``, so on ``wide-field`` one one-factor product
per Bernoulli GF evaluation; a checkout whose ``bernoulli_gf`` read its
table by hand counts none there), the ``cyclo._row_times``
steps (one factor multiplied into running rows, wherever it is called
from), the row pairs those steps multiply (pairs of rows whose indices
sum below the step's n), the ``cyclo.quotient`` calls, the Apostol table
recurrences (a call of ``bernoulli._apostol_table`` that builds the table
of zeta_R in Q(zeta_R), at most one per root order R and length), the
extended-Euclid ``cyclo._poly_inverse`` calls (each field inverse), the
``cyclo.dot`` calls (each element product), the ``cyclo._fold`` calls
(each reduction mod Phi_L), the ``cyclo.cyclotomic_polynomial`` calls
(each cyclotomic polynomial formed, one or more per new field), the
``_apostol_table`` calls that read that table at zeta_R -> u for another
root u (``remap``), the ``bernoulli.bernoulli_gf`` calls (each a
``keyed_quotient`` of the plan of t I_1, served from the context's form
store or evaluated from its ("ratio", 1) table, which is built only where
it is not stored long enough; in a checkout where ``_ratio_table`` does
not build every scale-1 table, each was a build) and ``small_field``, the
scale-1 table builds that take the route in the small field Q(zeta_R)
(calls of ``bernoulli._ratio_in_small_field``; in a checkout that chose
the route by the cost rule ``bernoulli._small_field_pays``, its yes
answers, which count ``bernoulli_gf`` builds where those built the
table; one from before the choice reads 0), ``lift``, the
``sympoly.lift`` calls (each SymPoly built from a form; in an older
checkout ``symmetry._lift``), ``plan_hits`` and ``plan_misses``, those of
the memo of check plans (``symmetry._check_plan``, in an older checkout
``_order_plan``), and ``plans_derived``, the misses of the memos of form
plans (``symmetry._row_plan`` and ``symmetry._quotient_plan``, each a
form's operands derived; a checkout without one of them counts the
other) the block makes, not those of the gate's reads after it.  A
second line gives, per kind of table, the number of builds and the top
power of t (of x for a root table) of the longest one: ``units``
(``bernoulli.twist_units_series``), ``sum`` (``char_sum_series``),
``inv`` (``_inverse_table``: the scale-1 inverse each ratio build in
Q(zeta_L) multiplies by), ``ratio`` (``_ratio_table``, by either route),
``root`` (the recurrences above) and ``rescale`` (``_rescaled_table``: a
ratio table of scale c != 1 read off the ("ratio", 1) table of the twist
xi^c at t -> ct, so ``ratio`` counts only those scale-1 builds; a
checkout from before that law builds every c itself and reads 0).  They
repeat exactly from run to run, unlike the time.  Each name is wrapped in every
``twistbern`` module that binds it, and a name that ``cyclo``,
``bernoulli`` or ``symmetry`` no longer has stops the tool with an error
rather than counting zero.  The
benchmark is imported, never edited.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import bisect, cProfile, io, json, math, pstats, sys, time
root, workload, seed, top = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
counting = sys.argv[5] == "1"
sys.path[:0] = [root + "/src", root + "/perfbench"]
from workloads import Workload, block_size
w = Workload(workload, seed)
w.setup()
checks = [w.next_check() for _ in range(block_size(workload))]
counts = None
if counting:
    from twistbern import cyclo
    counts = dict.fromkeys(("product", "row_times", "row_pairs", "quotient",
                            "recurrence", "poly_inverse", "dot", "fold",
                            "cyclotomic_polynomial"), 0)

    def pairs(field, left, lden, table, n):
        # the row pairs of _row_times(field, left, lden, table, n) whose
        # indices sum below n
        js = [j for j, _ in table.rows]
        return sum(bisect.bisect_left(js, n - i) for i, _ in left)

    def install(module, name, make):
        # replace module.name by make(module.name) in every twistbern module
        # that binds it
        exact = getattr(module, name, None)
        if not callable(exact):
            sys.exit(f"--counts: {module.__name__} has no function {name}")
        counted = make(exact)
        for m in [m for n, m in sys.modules.items()
                  if n.split(".")[0] == "twistbern"]:
            for attr, value in list(vars(m).items()):
                if value is exact:
                    setattr(m, attr, counted)

    def wrap(name, key, pairs_key=None):
        def make(exact):
            def counted(*args):
                counts[key] += 1
                if pairs_key:
                    counts[pairs_key] += pairs(*args)
                return exact(*args)
            return counted
        install(cyclo, name, make)
    wrap("product", "product")
    wrap("_row_times", "row_times", "row_pairs")
    wrap("quotient", "quotient")
    wrap("_poly_inverse", "poly_inverse")
    wrap("dot", "dot")
    wrap("_fold", "fold")
    wrap("cyclotomic_polynomial", "cyclotomic_polynomial")

    from twistbern import bernoulli
    tables = {kind: [0, None] for kind in
              ("units", "sum", "inv", "ratio", "root", "rescale")}

    def built(kind, table):
        # one build of a table to t^(len - 1)
        entry = tables[kind]
        entry[0] += 1
        entry[1] = max(entry[1] or 0, len(table) - 1)

    def wrap_table(name, kind):
        def make(exact):
            def counted(*args):
                table = exact(*args)
                built(kind, table)
                return table
            return counted
        install(bernoulli, name, make)
    wrap_table("twist_units_series", "units")
    wrap_table("char_sum_series", "sum")
    wrap_table("_inverse_table", "inv")
    wrap_table("_ratio_table", "ratio")
    if hasattr(bernoulli, "_rescaled_table"):  # absent before the scale law
        wrap_table("_rescaled_table", "rescale")

    def root_tables(exact):
        # the table of zeta_R is kept by Q(zeta_R), the field itself where
        # R = L: a call that leaves it in place runs no recurrence, and a
        # call for any root but zeta_L of the field itself re-maps it
        def counted(field, root, upto):
            # root is f of the root zeta_M^f, M = lcm(2, L), of order R
            M = field.period
            R = M // math.gcd(root, M)
            own = field if R == field.order else cyclo.cyclo_field(R)
            before = own._apostol
            table = exact(field, root, upto)
            if own._apostol is not before:
                counts["recurrence"] += 1
                built("root", own._apostol)
            counts["remap"] += own is not field or (root - M // R) % M != 0
            return table
        return counted
    install(bernoulli, "_apostol_table", root_tables)
    counts["remap"] = counts["bernoulli_gf"] = counts["small_field"] = 0

    def gf_calls(exact):
        def counted(*args):
            counts["bernoulli_gf"] += 1
            return exact(*args)
        return counted
    install(bernoulli, "bernoulli_gf", gf_calls)

    def routes(exact):
        # the scale-1 table builds that take the route in Q(zeta_R): calls
        # of its builder, or yes answers of the cost rule that chose it
        def counted(*args):
            small = exact(*args)
            counts["small_field"] += small is not False
            return small
        return counted
    for name in ("_ratio_in_small_field", "_small_field_pays"):
        if hasattr(bernoulli, name):  # neither before the choice
            install(bernoulli, name, routes)
            break
    counts["tables"] = tables

    from twistbern import symmetry, sympoly
    counts["lift"] = 0

    def lift_calls(exact):
        def counted(*args):
            counts["lift"] += 1
            return exact(*args)
        return counted
    # the one lift (``symmetry._lift`` before it moved to sympoly)
    if hasattr(sympoly, "lift"):
        install(sympoly, "lift", lift_calls)
    else:
        install(symmetry, "_lift", lift_calls)

    # the check-plan memo (``_order_plan`` before it was ``_check_plan``)
    plans = getattr(symmetry, "_check_plan", None) or symmetry._order_plan
    plans_before = plans.cache_info()
    # the form-plan memos (``_quotient_plan`` from the one-plan change on)
    derived = [getattr(symmetry, name)
               for name in ("_row_plan", "_quotient_plan")
               if hasattr(symmetry, name)]
    derived_before = sum(memo.cache_info().misses for memo in derived)
    counts["plan_hits"] = counts["plan_misses"] = counts["plans_derived"] = 0
profile = cProfile.Profile() if top else None
results = []
t0 = time.process_time()
if profile:
    profile.enable()
for check in checks:
    results.append(w.call(check))
if profile:
    profile.disable()
cpu = time.process_time() - t0
if counting:
    info = plans.cache_info()
    counts["plan_hits"] = info.hits - plans_before.hits
    counts["plan_misses"] = info.misses - plans_before.misses
    counts["plans_derived"] = sum(memo.cache_info().misses
                                  for memo in derived) - derived_before
# the block's counts, not those of the gate's reads after it
block_counts = json.loads(json.dumps(counts))
t0 = time.process_time()
passed = sum(w.judge(c, r, {}).status == "pass" for c, r in zip(checks, results))
gate = time.process_time() - t0
text = None
if profile:
    out = io.StringIO()
    pstats.Stats(profile, stream=out).sort_stats("tottime").print_stats(top)
    text = out.getvalue()
print(json.dumps({"cpu_s": cpu, "gate_s": gate, "checks": len(checks),
                  "passed": passed,
                  "profile": text, "counts": block_counts}))
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkout", type=Path, help="root of a twistbern checkout")
    ap.add_argument("--workload", default="series",
                    choices=("theorems", "series", "wide-field"))
    ap.add_argument("--seed", type=int, default=7)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--profile", type=int, default=0, metavar="N",
                      help="profile the block and print its top N functions")
    mode.add_argument("--counts", action="store_true",
                      help="print the block's product, row-step, row-pair, "
                           "quotient, table-recurrence, inverse, dot, fold, "
                           "cyclotomic-polynomial and table re-map counts, "
                           "its Bernoulli GF reads and the scale-1 table "
                           "builds in the small field, its SymPoly lifts, "
                           "plan memo hits and misses and plan "
                           "derivations, and its table builds per kind, "
                           "rescaled tables among them")
    args = ap.parse_args(argv)
    root = args.checkout.resolve()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(root), args.workload,
         str(args.seed), str(args.profile), str(int(args.counts))],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return proc.returncode
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{args.workload} seed {args.seed}: {out['checks']} checks, "
          f"{out['passed']} passed, {out['cpu_s']:.3f} s CPU, "
          f"{out['cpu_s'] + out['gate_s']:.3f} s with the gate"
          + (" (profiled)" if args.profile else "")
          + (" (counted)" if args.counts else ""))
    if out["counts"]:
        tables = out["counts"].pop("tables")
        print("  ".join(f"{key} {value}" for key, value in
                        out["counts"].items()))
        print("table builds, to the top power built:  " + "  ".join(
            f"{kind} {n}" + (f" to t^{top}" if n else "")
            for kind, (n, top) in tables.items()))
    if out["profile"]:
        print(out["profile"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
