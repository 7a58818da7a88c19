"""Compare two run sets (runs.jsonl files from two commits), metric by metric.

For each workload, in its own block, and each end-to-end metric of
BENCHMARK.json, prints the median and quartiles of both sets and a verdict:

  worse       the after-median is worse than the before-median by more than
              the metric's bound;
  better      the after-runs win at least 9 in 10 pairs (runs paired by seed,
              or every pair when no seed is shared) and the medians differ by
              more than the before-set's own spread (q3 - q1);
  unresolved  anything else; the note says whether the change stayed within
              the bound with a spread under it, or the spread is too wide.
"""

from __future__ import annotations

import json
import statistics


def load(path) -> list[dict]:
    with open(path) as fh:
        return [r for r in map(json.loads, fh) if r and r.get("trace") == 0]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(before: dict, after: dict, higher_better: bool, bound: float):
    """before/after map seed -> value; returns (verdict, note)."""
    sign = 1 if higher_better else -1
    a, b = list(before.values()), list(after.values())
    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    gain = (mb - ma) * sign
    if gain < -bound * abs(ma):
        return "worse", f"by {-gain / abs(ma):.1%} > bound {bound:.0%}"
    shared = sorted(set(before) & set(after))
    pairs = ([(before[s], after[s]) for s in shared] if shared
             else [(x, y) for x in a for y in b])
    wins = sum(1 for x, y in pairs if (y - x) * sign > 0)
    if wins >= 0.9 * len(pairs) and gain > qa3 - qa1:
        return "better", f"won {wins}/{len(pairs)} pairs"
    spread = (qa3 - qa1) / abs(ma) if ma else float("inf")
    if spread > bound:
        return "unresolved", f"spread {spread:.1%} > bound {bound:.0%}"
    return "unresolved", f"within bound {bound:.0%}"


def compare(before_path, after_path, benchmark_path) -> int:
    with open(benchmark_path) as fh:
        spec = json.load(fh)
    before, after = load(before_path), load(after_path)
    for label, runs in (("before", before), ("after", after)):
        shas = sorted({r["git_sha"][:12] for r in runs})
        print(f"{label}: {len(runs)} runs, sha {', '.join(shas)}")
    for wl in [w["name"] for w in spec["workloads"]]:
        print(f"\n[{wl}]")
        print(f"  {'metric':<14} {'before median [q1, q3]':>32} "
              f"{'after median [q1, q3]':>32}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            vals = [{r["seed"]: r["metrics"][name] for r in runs
                     if r["workload"] == wl and name in r["metrics"]}
                    for runs in (before, after)]
            if not vals[0] or not vals[1]:
                print(f"  {name:<14} (no runs)")
                continue
            cells = []
            for v in vals:
                q1, q2, q3 = quartiles(list(v.values()))
                cells.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}] (n={len(v)})")
            word, note = verdict(vals[0], vals[1], m["better"] == "higher",
                                 m["bound"])
            print(f"  {name:<14} {cells[0]:>32} {cells[1]:>32}  "
                  f"{word} ({note})")
    return 0
