#!/usr/bin/env python3
"""Non-blank line counts of the modules under src/twistbern.

    python3 tools/src_lines.py           # each module and the total
    python3 tools/src_lines.py REV       # also the counts at the git
                                         # revision REV and the net change

Counts at REV are read through ``git show REV:path``, so the working tree
is compared with a commit without checking it out.  Stdlib only.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/twistbern"


def nonblank(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip())


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def counts_now() -> dict[str, int]:
    return {path.name: nonblank(path.read_text())
            for path in sorted((ROOT / PACKAGE).glob("*.py"))}


def counts_at(rev: str) -> dict[str, int]:
    names = _git("ls-tree", "--name-only", rev, f"{PACKAGE}/").split()
    return {Path(name).name: nonblank(_git("show", f"{rev}:{name}"))
            for name in names if name.endswith(".py")}


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    now = counts_now()
    rows = [("module", "lines")]
    if argv:
        then = counts_at(argv[0])
        rows = [("module", "lines", argv[0], "change")]
        for name in sorted(now.keys() | then.keys()):
            a, b = now.get(name, 0), then.get(name, 0)
            rows.append((name, str(a), str(b), f"{a - b:+d}"))
        total_now, total_then = sum(now.values()), sum(then.values())
        rows.append(("total", str(total_now), str(total_then),
                     f"{total_now - total_then:+d}"))
    else:
        rows += [(name, str(n)) for name, n in now.items()]
        rows.append(("total", str(sum(now.values()))))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join([row[0].ljust(widths[0])]
                        + [cell.rjust(w) for cell, w in zip(row[1:], widths[1:])]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
