"""Benchmark driver for twistbern: seeded workloads, end-to-end and traced runs.

Run from the root of a checkout:

  python3 perfbench/run.py --workload theorems --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --compare before.jsonl after.jsonl

With --trace 0 it runs the seed's first checks in a closed loop (one
caller, one thread) in a fresh interpreter and reports the end-to-end
metrics; set-up time is the median over several fresh interpreters.  With
--trace 1 it runs a third as many checks twice, untraced and then traced,
and reports per-layer metrics, the layer probes and the tracing overhead.
The number of checks is --seconds times the workload's rate at reference
speed, and every time is scaled to that reference speed (see speed.py).
Every run gates its checks (see workloads.py), prints each metric with its
unit, appends a record to .perfbench_out/runs.jsonl and ends with one JSON
result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from speed import calibration_unit, factor  # noqa: E402
from workloads import WORKLOADS, block_size  # noqa: E402

SETUP_SAMPLES = 9  # fresh interpreters per run whose set-up time is taken
# checks per second at reference speed; a run makes rate * --seconds checks,
# and a traced run a third of that, once untraced and once traced
CHECKS_PER_S = {"theorems": 72, "series": 16, "wide-field": 6.5}
MAX_RUN_S = 120    # a run stops early past this (a large slow-down)
MAX_TRACED_S = 60  # the same for each pass of a traced run
WORKER_TIMEOUT_S = 150

UNITS = {"setup_s": "s", "checks_per_s": "1/s", "check_ms_p50": "ms",
         "check_ms_p90": "ms", "pass_frac": "ratio", "peak_rss_mb": "MB"}


def per_layer_units(name: str) -> str:
    if name.startswith("probe."):
        return "us" if "_us." in name else "ms"
    if name.endswith((".calls", ".divisions", ".coeff_products")):
        return "count"
    if name.endswith((".hit_ratio", "_frac")):
        return "ratio"
    return "s"


def spawn(args: list[str]) -> dict:
    """Run worker.py in a fresh interpreter and return its result line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _betacf(a: float, b: float, x: float) -> float:
    # continued fraction of the incomplete beta function (modified Lentz)
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                   -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(sorted_values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, 0 < q < 1.

    A weighted mean of all order statistics, with the weights of a
    Beta(q(n+1), (1-q)(n+1)) distribution, so one noisy sample next to the
    quantile's rank moves it less than it moves the nearest-rank value.
    """
    n = len(sorted_values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(sorted_values))


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def gate(results: list[dict]) -> tuple[bool, int, int, list[str]]:
    """correct, attempted, failed, problems over the worker results.

    Known-defect checks count as failed but do not make the run incorrect;
    errors, mismatches and failed negative controls do.
    """
    attempted = failed = 0
    problems = []
    for res in results:
        attempted += len(res["latencies"])
        failed += sum(n for s, n in res["statuses"].items() if s != "pass")
        problems += [f for f in res["failures"] if ": known-defect:" not in f]
        problems += res["controls"]
    return not problems, attempted, failed, problems


def setup_sample(workload: str, seed: int) -> float:
    """One fresh interpreter's set-up time, in reference seconds."""
    before = [calibration_unit() for _ in range(10)]
    raw = spawn(["--workload", workload, "--seed", str(seed),
                 "--mode", "setup"])["setup_s"]
    after = [calibration_unit() for _ in range(10)]
    return raw * factor(before + after)


def check_count(workload: str, seconds: float) -> int:
    """Checks per run: --seconds at reference speed, in whole blocks once
    that is at least half a block, so the mix is the same for every seed."""
    count = max(3, round(CHECKS_PER_S[workload] * seconds))
    block = block_size(workload)
    return max(1, round(count / block)) * block if 2 * count >= block \
        else count


def end_to_end(workload: str, seed: int, seconds: float):
    setups = [setup_sample(workload, seed) for _ in range(SETUP_SAMPLES)]
    count = check_count(workload, seconds)
    res = spawn(["--workload", workload, "--seed", str(seed), "--mode", "run",
                 "--count", str(count), "--max-seconds", str(MAX_RUN_S)])
    lat = sorted(res["latencies"])
    passed = res["statuses"].get("pass", 0)
    metrics = {
        "setup_s": statistics.median(setups),
        "checks_per_s": len(lat) / sum(lat),
        "check_ms_p50": quantile(lat, 0.5) * 1e3,
        "check_ms_p90": quantile(lat, 0.9) * 1e3,
        "pass_frac": passed / len(lat),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    raw = res["raw_latencies"]
    extra = {"check_samples": len(lat), "statuses": res["statuses"],
             "setup_samples_s": setups, "unit_s": res["unit_s"],
             "raw_checks_per_s": len(raw) / sum(raw),
             "raw_wall_s": sum(raw)}
    return metrics, [res], extra


def traced(workload: str, seed: int, seconds: float):
    count = max(3, check_count(workload, seconds) // 3)
    common = ["--workload", workload, "--seed", str(seed), "--mode", "run",
              "--count", str(count), "--max-seconds", str(MAX_TRACED_S)]
    plain = spawn(common + ["--probes", "1"])
    trace_out = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    tr = spawn(common + ["--traced", "1", "--trace-out", str(trace_out)])
    metrics = dict(tr["layers"])
    metrics.update(plain["probes"])
    metrics["trace.overhead_frac"] = (sum(tr["latencies"])
                                      / sum(plain["latencies"]) - 1)
    n = len(tr["latencies"])
    metrics["fail_frac"] = (n - tr["statuses"].get("pass", 0)) / n
    extra = {"check_samples": n, "statuses": tr["statuses"],
             "trace_file": os.path.relpath(trace_out, ROOT)}
    return metrics, [plain, tr], extra


def run(args) -> int:
    if not (ROOT / "src" / "twistbern" / "__init__.py").is_file():
        print("error: src/twistbern not found; run from a twistbern checkout",
              file=sys.stderr)
        return 2
    if args.trace:
        metrics, results, extra = traced(args.workload, args.seed,
                                         args.seconds)
        units = {k: per_layer_units(k) for k in metrics}
    else:
        metrics, results, extra = end_to_end(args.workload, args.seed,
                                             args.seconds)
        units = UNITS
    correct, attempted, failed, problems = gate(results)
    for p in problems:
        print(f"gate: {p}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "python": platform.python_version(), "cpu_count": os.cpu_count(),
              "git_sha": git_sha(), "time": time.time(),
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, **extra}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"python={record['python']} cpus={record['cpu_count']} "
          f"sha={record['git_sha'][:12]}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    print(f"  samples: {extra['check_samples']} checks")
    print(f"  gate: correct={correct} attempted={attempted} failed={failed} "
          f"statuses={extra['statuses']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                    help="compare two run sets (runs.jsonl files)")
    args = ap.parse_args(argv)
    if args.compare:
        from compare import compare
        return compare(*args.compare, ROOT / "BENCHMARK.json")
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
