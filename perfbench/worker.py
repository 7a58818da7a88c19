"""One fresh interpreter running one workload; started by run.py.

Modes:
  setup  import the program, generate the inputs, build the shared
         contexts, and report when the first check is ready;
  run    set up, then run the first --count checks of the seed's stream,
         optionally traced, and optionally time the layer probes after.

The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from speed import SpeedMeter  # noqa: E402
from workloads import WORKLOADS, Outcome, Workload  # noqa: E402

REFERENCE = HERE / "reference.json"


def load_reference(workload: str) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["checks"].get(workload, {})


def run_checks(wl: Workload, first, reference: dict, count: int, *,
               deadline=None, tracer=None, outputs=None) -> dict:
    """Closed loop with one caller: run, time and gate ``count`` checks.

    Only the call into the program is timed; the gate and the speed
    calibration run between calls.  Stops early, before starting a check,
    once ``deadline`` (perf_counter) has passed.  ``outputs`` collects each
    check's (key, digest) when given.
    """
    meter = SpeedMeter()
    statuses: dict[str, int] = {}
    failures = []
    check = first
    while True:
        if tracer:
            tracer.begin_check(len(meter.intervals) + 1, check.key)
        t0 = time.perf_counter()
        try:
            result = wl.call(check)
            error = None
        except Exception as exc:  # a crash is a failed check, not a mismatch
            error = exc
        dt = time.perf_counter() - t0
        if error is not None:
            outcome = Outcome("error", detail=f"{type(error).__name__}: {error}")
        else:
            outcome = wl.judge(check, result, reference)
            result = None
        if tracer:
            tracer.end_check(outcome.status)
        meter.add(dt)
        statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
        if outcome.status != "pass" and len(failures) < 20:
            failures.append(f"{check.key}: {outcome.status}: {outcome.detail}")
        if outputs is not None:
            outputs.append((check.key, outcome.digest))
        if len(meter.intervals) >= count or (
                deadline is not None and time.perf_counter() >= deadline):
            break
        check = wl.next_check()
    return {"latencies": meter.normalized(),
            "raw_latencies": meter.intervals,
            "unit_s": meter.mean_unit_s(),
            "statuses": statuses, "failures": failures}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent when it started us")
    ap.add_argument("--count", type=int, default=1)
    ap.add_argument("--max-seconds", type=float, default=None)
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--probes", type=int, default=0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    wl = Workload(args.workload, args.seed)
    wl.setup()
    first = wl.next_check()
    ready = time.monotonic()
    out = {"setup_s": ready - args.spawned}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    reference = load_reference(args.workload)
    tracer = None
    if args.traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    run_start = time.perf_counter()
    deadline = run_start + args.max_seconds if args.max_seconds else None
    res = run_checks(wl, first, reference, args.count, deadline=deadline,
                     tracer=tracer)
    run_end = time.perf_counter()
    if tracer:
        tracer.restore()
        out["layers"] = tracer.metrics()
        if args.trace_out:
            spans = [{"id": 0, "name": f"run {args.workload}", "parent": None,
                      "start": run_start, "end": run_end}] + tracer.spans
            Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
            with open(args.trace_out, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "spans": spans}, fh)
    out["controls"] = (wl.negative_control() if args.workload == "theorems"
                       else [])
    if args.probes:
        from probes import run_probes
        out["probes"] = run_probes()
    out.update(res)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
