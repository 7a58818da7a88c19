#!/usr/bin/env python3
"""Alternating end-to-end benchmark pairs of two twistbern checkouts.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR [--pairs 10] [--seed 1]
                                 [--workloads theorems series wide-field]

Each pair runs ``perfbench/run.py --workload W --seed N --seconds S
--trace 0`` once in each checkout (N from --seed, 1 by default; a seed not
used while writing a change re-runs its claim on held-out checks), one run
at a time: the parent first in odd pairs, the change first in even ones,
with the workloads interleaved within each pair index.  S and the metrics,
their directions and their bounds come from the BENCHMARK.json of
CHANGE_DIR.  For each workload and
end-to-end metric it prints both medians, the parent's quartiles and the
number of pairs the change won.  It flags a metric whose median is worse
beyond its bound, and one left unresolved: the parent's spread (q3 - q1) /
median exceeds the bound, and not every change run beats every parent run.
For each workload it also prints the per-side medians of the unnormalised
``raw_checks_per_s`` and of the calibration unit ``unit_s``, read from the
record each run appends to ``<checkout>/.perfbench_out/runs.jsonl``; they
show how far the unit alone moves the normalised metrics, and no verdict
reads them.  Then it prints the ``end_to_end`` and ``medians`` objects of a
BENCH_*.json record as one JSON document.
Stdlib only; every run takes about S seconds plus set-up, so the default
costs about 3 workloads x 10 pairs x 2 runs x 40 s.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import deque
from pathlib import Path

#: unnormalised figures of each run's runs.jsonl record, shown but not judged
RAW = ("raw_checks_per_s", "unit_s")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end run in the checkout at root: its final JSON line, with
    the RAW figures of the record it appended to runs.jsonl under "raw"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{root}: {workload} exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(root / ".perfbench_out" / "runs.jsonl") as fh:
        record = json.loads(deque(fh, maxlen=1)[0])
    if (record["workload"], record["seed"]) != (workload, seed):
        raise RuntimeError(f"{root}: the last runs.jsonl record is not "
                           f"this {workload} run")
    out["raw"] = {name: record[name] for name in RAW}
    return out


def summary(runs: list) -> dict:
    # quantiles needs two points; one run is its own quartiles
    q1, median, q3 = statistics.quantiles(runs * (2 if len(runs) < 2 else 1),
                                          n=4, method="inclusive")
    return {"runs": runs, "median": round(median, 5), "q1": round(q1, 5),
            "q3": round(q3, 5)}


def compare_metric(parent: list, change: list, spec: dict) -> dict:
    higher = spec["better"] == "higher"
    p, c = summary(parent), summary(change)
    ratio = c["median"] / p["median"] - 1 if p["median"] else 0.0
    worse = -ratio if higher else ratio
    wins = sum((b > a) if higher else (b < a) for a, b in zip(parent, change))
    spread = (p["q3"] - p["q1"]) / p["median"] if p["median"] else 0.0
    beats_all = (min(change) > max(parent) if higher
                 else max(change) < min(parent))
    return {"parent": p, "change": c, "unit": spec["unit"],
            "change_vs_parent": round(ratio, 4), "bound": spec["bound"],
            "worse_beyond_bound": worse > spec["bound"],
            "parent_spread": round(spread, 4),
            "unresolved": spread > spec["bound"] and not beats_all,
            "pairs_change_better": wins,
            "gain_exceeds_parent_iqr":
                (c["median"] - p["median"]) * (1 if higher else -1)
                > p["q3"] - p["q1"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1,
                    help="perfbench seed of every run (default 1)")
    ap.add_argument("--workloads", nargs="+", default=None,
                    help="default: every workload of BENCHMARK.json")
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    results = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for w in workloads:
            for side in order:
                out = run_once(sides[side], w, args.seed, seconds)
                results[w][side].append(out)
                print(f"pair {i} {w} {side}: checks_per_s="
                      f"{out['metrics']['checks_per_s']['value']:.4g}",
                      file=sys.stderr, flush=True)

    record = {"end_to_end": {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0",
        "order": f"alternating (parent first in odd pairs), {args.pairs} "
                 "pairs per workload, workloads interleaved within each "
                 "pair index; one run at a time",
        "quartiles": "statistics.quantiles(method='inclusive')",
        "regression_rule": "worse_beyond_bound: the change's median is "
                           "worse than the parent's by more than the "
                           "BENCHMARK.json bound",
        "unresolved_rule": "unresolved: the parent's spread (q3 - q1) / "
                           "median exceeds the bound, and not every change "
                           "run beats every parent run",
        "workloads": {}}, "medians": {}}
    for w in workloads:
        runs = results[w]
        every = runs["parent"] + runs["change"]
        entry = {"pairs": args.pairs,
                 "correct_all_runs": all(r["correct"] for r in every),
                 "attempted": sorted({r["attempted"] for r in every}),
                 "failed": sorted({r["failed"] for r in every}),
                 "metrics": {}}
        for name, spec in metrics.items():
            values = {side: [round(r["metrics"][name]["value"], 5)
                             for r in runs[side]] for side in sides}
            cmp = compare_metric(values["parent"], values["change"], spec)
            entry["metrics"][name] = cmp
            record["medians"][f"{w}.{name}"] = {
                "parent": cmp["parent"]["median"],
                "change": cmp["change"]["median"]}
            print(f"{w:<11} {name:<13} parent {cmp['parent']['median']:>10.5g}"
                  f" [{cmp['parent']['q1']:.5g}, {cmp['parent']['q3']:.5g}]"
                  f"  change {cmp['change']['median']:>10.5g}"
                  f"  {cmp['change_vs_parent']:+.1%}"
                  f"  won {cmp['pairs_change_better']}/{args.pairs}"
                  + ("  WORSE BEYOND BOUND" if cmp["worse_beyond_bound"]
                     else "")
                  + ("  UNRESOLVED" if cmp["unresolved"] else ""))
        entry["raw_medians"] = {}
        for name in RAW:
            med = {side: statistics.median(r["raw"][name] for r in runs[side])
                   for side in sides}
            entry["raw_medians"][name] = {side: round(v, 6)
                                          for side, v in med.items()}
            print(f"{w:<11} {name:<16} parent {med['parent']:>10.5g}"
                  f"  change {med['change']:>10.5g}"
                  f"  {med['change'] / med['parent'] - 1:+.1%}  (not judged)")
        record["end_to_end"]["workloads"][w] = entry
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
