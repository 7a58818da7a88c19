#!/usr/bin/env python3
"""CPU time of both routes of every scale-1 table in a set, in one checkout.

    python3 tools/route_time.py CHECKOUT [--set twists|pool|random]
                                [--runs 5] [--count 400] [--seed 1]
                                [--json OUT]

The scale-1 table ("ratio", 1) of a twist is built by one of two routes:
the combine in lambda's field Q(zeta_R), R the order of lambda = xi^d, or
the row product in the field Q(zeta_L) of the context.  For each table of
the set this builds it by each route on a fresh context, ``--runs`` times
in alternating order, in a new Python process whose path holds
``CHECKOUT/src`` (and ``CHECKOUT/perfbench`` for the pool), and keeps the
least CPU time of each route (``time.process_time``).  The Apostol table
of zeta_R, which both routes read from Q(zeta_R), is built before the
timing, so neither route pays its recurrence.  A checkout whose
``bernoulli`` has the builders ``_ratio_in_small_field`` and
``_ratio_by_row_product`` is timed by calling them; one with the cost
rule ``_small_field_pays`` by forcing its answer.

Sets:

- ``twists``: the distinct twists xi^c, c in 1..8, of the 36 contexts of
  the ``series`` workload (d in 1, 3, 4, 5, every character, xi of order
  1..4), each at t^5 and t^11;
- ``pool``: every ``bernoulli`` request of the ``wide-field`` pool, its
  table to the length the request builds (each seed's block runs every
  request once, in its own order);
- ``random``: ``--count`` requests drawn with ``--seed``: d <= 61, any
  character mod d, xi of order <= 105, n in 5, 12, 24.

It prints, per rule, the total time of the route it picks, as a share of
the total of the per-table best, and the number of tables where its pick
takes over 1.1 times the best.  The rules: ``fields`` takes the small
field where phi(R) < phi(L) and phi(L) > 2; ``subfield`` where
phi(R) < phi(L) only; ``fitted`` is the cost rule fitted to CPython 3.11
timings that chose the route before, small field where
n deg_r (spots + 32) <= n (4 deg_l + deg_l^2 // 12) + 200, n the table's
length and spots the nonzero coordinates of the power sums.  The rules
are applied to the times of this checkout's routes, so every checkout is
compared under each rule.  ``--json`` writes the records and totals.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import json, math, random, sys, time
root, which, runs, count, seed = (sys.argv[1], sys.argv[2], int(sys.argv[3]),
                                  int(sys.argv[4]), int(sys.argv[5]))
sys.path[:0] = [root + "/src", root + "/perfbench"]
from twistbern import bernoulli
from twistbern.bernoulli import TwistContext
from twistbern.characters import enumerate_characters
from twistbern.cyclo import cyclo_field

if hasattr(bernoulli, "_ratio_in_small_field"):
    def build(ctx, n, small):
        route = (bernoulli._ratio_in_small_field if small
                 else bernoulli._ratio_by_row_product)
        return route(ctx, n - 1)
elif hasattr(bernoulli, "_small_field_pays"):
    def build(ctx, n, small):
        exact = bernoulli._small_field_pays
        bernoulli._small_field_pays = lambda *args: small
        try:
            return bernoulli._ratio_table(ctx, n - 1)
        finally:
            bernoulli._small_field_pays = exact
else:
    sys.exit("route_time: this checkout has no route to choose")


def tables():
    # (label, context, n): n the table's length
    if which == "twists":
        seen = set()
        for d in (1, 3, 4, 5):
            for char in range(len(enumerate_characters(d))):
                for order in (1, 2, 3, 4):
                    ctx = TwistContext.from_orders(d, char, order)
                    for c in range(1, 9):
                        tw = ctx.twist(c)
                        key = (d, char, tw.field.order, tw._xi_root)
                        if key not in seen:
                            seen.add(key)
                            for top in (5, 11):
                                yield (f"d{d}c{char}r{order}^{c}", tw,
                                       top + 1)
    elif which == "pool":
        from workloads import bernoulli_pool
        for L, d, char, order, n in bernoulli_pool():
            ctx = TwistContext.from_orders(d, char, order)
            v = bernoulli._unit_root(ctx, 1) == 0
            yield f"d{d}c{char}r{order}n{n}", ctx, max(n - 1 + v, 0) + 1
    else:
        rng = random.Random(seed)
        for _ in range(count):
            d = rng.randint(1, 61)
            char = rng.randrange(len(enumerate_characters(d)))
            order = rng.randint(1, 105)
            n = rng.choice((5, 12, 24))
            ctx = TwistContext.from_orders(d, char, order)
            v = bernoulli._unit_root(ctx, 1) == 0
            yield f"d{d}c{char}r{order}n{n}", ctx, max(n - 1 + v, 0) + 1


records = []
for label, ctx, n in tables():
    M = ctx.field.period
    f = bernoulli._unit_root(ctx, 1)
    small_field = cyclo_field(M // math.gcd(f, M))
    bernoulli._apostol_table(small_field, small_field.period
                             // small_field.order, n)
    sums = [S.num for S in bernoulli.power_sums(ctx, n - 1, ctx.d - 1)[:n]]
    spots = sum(1 for column in zip(*sums) if any(column))
    best = {True: None, False: None}
    tabs = {}
    for r in range(runs):
        for small in ((True, False) if r % 2 == 0 else (False, True)):
            fresh = TwistContext(ctx.chi, ctx.xi)
            t0 = time.process_time()
            tabs[small] = build(fresh, n, small)
            t = time.process_time() - t0
            if best[small] is None or t < best[small]:
                best[small] = t
    a, b = tabs[True], tabs[False]
    assert a.elements() == b.elements(), label
    records.append({"table": label, "n": n, "deg_r": small_field.degree,
                    "deg_l": ctx.field.degree, "spots": spots,
                    "small_s": best[True], "row_s": best[False]})
print(json.dumps(records))
"""

RULES = {
    "fields": lambda r: r["deg_r"] < r["deg_l"] and r["deg_l"] > 2,
    "subfield": lambda r: r["deg_r"] < r["deg_l"],
    "fitted": lambda r: (r["n"] * r["deg_r"] * (r["spots"] + 32)
                         <= r["n"] * (4 * r["deg_l"] + r["deg_l"]**2 // 12)
                         + 200),
}


def totals(records: list) -> dict:
    best = sum(min(r["small_s"], r["row_s"]) for r in records)
    out = {"tables": len(records), "best_s": best}
    for name, rule in RULES.items():
        picked = [r["small_s"] if rule(r) else r["row_s"] for r in records]
        over = sum(p > 1.1 * min(r["small_s"], r["row_s"])
                   for p, r in zip(picked, records))
        out[name] = {"total_s": sum(picked), "share": sum(picked) / best,
                     "over_1.1": over}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkout", type=Path, help="root of a twistbern checkout")
    ap.add_argument("--set", default="twists",
                    choices=("twists", "pool", "random"))
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--count", type=int, default=400)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", type=Path, help="write records and totals")
    args = ap.parse_args(argv)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(args.checkout.resolve()), args.set,
         str(args.runs), str(args.count), str(args.seed)],
        capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        return proc.returncode
    records = json.loads(proc.stdout)
    summary = totals(records)
    print(f"{args.set}: {summary['tables']} tables, per-table best "
          f"{summary['best_s'] * 1e3:.2f} ms")
    for name in RULES:
        s = summary[name]
        print(f"  {name:9s} {s['total_s'] * 1e3:9.2f} ms  {s['share']:.3f}x"
              f"  {s['over_1.1']} tables over 1.1x")
    if args.json:
        args.json.write_text(json.dumps({"set": args.set, "runs": args.runs,
                                         "totals": summary,
                                         "records": records}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
