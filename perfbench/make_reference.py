"""Regenerate reference.json, the digests the correctness gate compares.

  python3 perfbench/make_reference.py

Covers the first checks of the default seed's theorems and series streams,
and every request the wide-field workload can make under any seed.  Each
digest is of the program's output at the time of generation, accepted only
if the check passed; padic points in a known-defect class must exit 1 and
are stored as None, meaning "expected: exit 0, output not known".  Run it
only when a change is meant to alter outputs, and review the diff.
"""

from __future__ import annotations

import json
import sys

from worker import REFERENCE, run_checks
from workloads import (DEFAULT_SEED, Workload, bernoulli_check,
                       bernoulli_pool, padic_check, padic_pool)

COUNTS = {"theorems": 5000, "series": 1000}


def digests(wl: Workload, checks=None, count=None) -> dict:
    wl.setup()
    if checks is not None:
        wl.stream = iter(checks)
        count = len(checks)
    outputs: list = []
    res = run_checks(wl, wl.next_check(), {}, count=count, outputs=outputs)
    bad = [f for f in res["failures"] if ": known-defect:" not in f]
    if bad:
        raise SystemExit("checks failed while making the reference:\n"
                         + "\n".join(bad))
    return dict(outputs)


def main() -> int:
    checks = {}
    for name, count in COUNTS.items():
        checks[name] = digests(Workload(name, DEFAULT_SEED), count=count)
        print(f"{name}: {len(checks[name])} digests", file=sys.stderr)
    wide = ([bernoulli_check(*req) for req in bernoulli_pool()]
            + [padic_check(*pt) for pt in padic_pool()])
    checks["wide-field"] = digests(Workload("wide-field", DEFAULT_SEED), wide)
    passed_defects = [c.key for c in wide
                      if c.args[1] and checks["wide-field"][c.key]]
    if passed_defects:
        raise SystemExit("known-defect points passed; update "
                         "padic_known_defect:\n" + "\n".join(passed_defects))
    print(f"wide-field: {len(checks['wide-field'])} digests", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump({"default_seed": DEFAULT_SEED, "checks": checks}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
