"""tools/block_time.py --counts runs against this checkout.

The tool wraps ``cyclo``, ``bernoulli`` and ``symmetry`` functions by name
and stops with an error when one is gone, so a renamed or deleted function
it counts fails here rather than at the next measurement.  One seed-1 ``series``
block is counted, in a child process, and every column of its two count
lines is printed.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("product", "row_times", "row_pairs", "quotient", "recurrence",
          "poly_inverse", "dot", "fold", "cyclotomic_polynomial", "remap",
          "bernoulli_gf", "small_field", "lift", "plan_hits", "plan_misses",
          "plans_derived")
TABLES = ("units", "sum", "inv", "ratio", "root", "rescale")


def test_counts_of_a_series_block_name_every_column():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools/block_time.py"), str(ROOT),
         "--workload", "series", "--seed", "1", "--counts"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    head, counts, tables = proc.stdout.splitlines()[:3]
    assert head.startswith("series seed 1: ") and "(counted)" in head
    assert counts.split()[::2] == list(COUNTS)
    values = dict(zip(counts.split()[::2], map(int, counts.split()[1::2])))
    # each of the 360 invariance checks reads the plan memo once, and a
    # miss derives the form plans of at most its six weight orders
    assert values["plan_hits"] + values["plan_misses"] == 360
    assert values["plan_misses"] > 0
    assert 0 < values["plans_derived"] <= 6 * values["plan_misses"]
    assert tables.startswith("table builds, to the top power built:")
    built = tables.split(":", 1)[1].split()
    assert [word for word in built if word in TABLES] == list(TABLES)
