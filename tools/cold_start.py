#!/usr/bin/env python3
"""Cold-start wall time of twistbern processes in one or two checkouts.

    python3 tools/cold_start.py A [B] [--runs 15]

Each run starts one fresh interpreter per command, with PYTHONPATH set to
the checkout's src, and times it from the outside:

- ``import twistbern.cli``, the start-up every CLI run pays;
- the ``twistbern verify ...`` example of the checkout's README, run
  through ``twistbern.cli.main`` as the console script runs it.

With two checkouts the runs alternate, A first in odd runs and B first in
even ones.  For each command it prints the median wall time of each
checkout and, with B, the change of the medians and the number of runs in
which B was faster.  It checks that the verify stdouts of the two
checkouts are equal (exit 1 if not), and lists the stdlib modules that
``import twistbern.cli`` adds to a bare interpreter in each checkout.
The PYTHONDONTWRITEBYTECODE setting is printed: where it is set, every
run compiles the package again.  The last line is the medians and wins as
one JSON object.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

MAIN = "import sys; from twistbern.cli import main; sys.exit(main(sys.argv[1:]))"
ADDED = ("import sys; bare = set(sys.modules); import twistbern.cli; "
         "print(*sorted(m for m in set(sys.modules) - bare "
         "if m.split('.')[0] != 'twistbern'))")


def readme_verify(root: Path) -> list[str]:
    """The arguments of the ``twistbern verify`` line in the README's
    command-line block."""
    text = (root / "README.md").read_text()
    block = re.search(r"## Command-line interface\s+```sh\n(.*?)```", text,
                      re.S).group(1)
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:2] == ["twistbern", "verify"]:
            return argv[1:]
    raise SystemExit(f"{root}: README has no `twistbern verify` example")


def run(root: Path, args: list[str]) -> tuple[float, str]:
    """Wall seconds and stdout of one fresh interpreter in the checkout."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=root, env=env,
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode not in (0, 1):  # 1 is a verify mismatch, still timed
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{root}: {args} exited with {proc.returncode}")
    return elapsed, proc.stdout


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkouts", nargs="+", type=Path, metavar="CHECKOUT")
    ap.add_argument("--runs", type=int, default=15,
                    help="fresh interpreters per command and checkout")
    args = ap.parse_args(argv)
    roots = [root.resolve() for root in args.checkouts]
    if len(roots) > 2:
        ap.error("give one or two checkouts")
    commands = {"import twistbern.cli": ["-c", "import twistbern.cli"],
                "verify (README)": ["-c", MAIN, *readme_verify(roots[-1])]}
    times = {(r, c): [] for r in roots for c in commands}
    stdout = {}
    for i in range(args.runs):
        for root in roots if i % 2 == 0 else roots[::-1]:
            for name, cmd in commands.items():
                seconds, out = run(root, cmd)
                times[root, name].append(seconds)
                stdout[root, name] = out

    print(f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')}"
          f"  python {sys.version.split()[0]}  {args.runs} runs per command "
          f"and checkout")
    print(f"verify argv: {' '.join(commands['verify (README)'][2:])}")
    record = {}
    for name in commands:
        medians = [statistics.median(times[r, name]) for r in roots]
        line = f"{name:22}" + "".join(f"  {m * 1e3:8.1f} ms" for m in medians)
        entry = {"median_ms": [round(m * 1e3, 1) for m in medians]}
        if len(roots) == 2:
            wins = sum(b < a for a, b in zip(times[roots[0], name],
                                             times[roots[1], name]))
            change = medians[1] / medians[0] - 1
            line += f"  {change:+7.1%}  B faster in {wins}/{args.runs}"
            entry.update(change=round(change, 3), wins=wins)
        print(line)
        record[name] = entry
    equal = len({stdout[r, "verify (README)"] for r in roots}) == 1
    if len(roots) == 2:
        print(f"verify stdout: {'equal' if equal else 'DIFFERENT'}")
    added = {r: set(run(r, ["-c", ADDED])[1].split()) for r in roots}
    for label, root in zip("AB", roots):
        print(f"stdlib modules added by import twistbern.cli in {label} "
              f"({len(added[root])}): {' '.join(sorted(added[root]))}")
    if len(roots) == 2:
        print(f"only in A: {' '.join(sorted(added[roots[0]] - added[roots[1]]))}")
        print(f"only in B: {' '.join(sorted(added[roots[1]] - added[roots[0]]))}")
    print(json.dumps(record, sort_keys=True))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
