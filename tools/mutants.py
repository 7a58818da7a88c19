#!/usr/bin/env python3
"""Mutation testing of named functions against a pytest selection.

    python3 tools/mutants.py FILE:FUNC[,FUNC] ... -- PYTEST_ARGS

for example

    python3 tools/mutants.py \\
        src/twistbern/symmetry.py:row_operands,_row_form \\
        src/twistbern/bernoulli.py:factor_table \\
        -- tests/test_row_seeds.py tests/test_factor_quotient.py

Each mutant changes one site inside the named functions (nested functions
included): a ``+`` becomes ``-`` or back, a ``*`` becomes ``//`` or back, a
``<`` becomes ``<=`` or back (and ``>``/``>=`` likewise), an ``==`` becomes
``!=`` or back, or an integer constant grows by 1.  The checkout is
copied to a temporary directory (under $TMPDIR) and every mutant is written
there, never in the checkout itself; the mutated module is the unparsed AST,
so the unmutated unparsed modules are run once first and must pass.  Each
mutant runs ``python -m pytest -x -q PYTEST_ARGS`` in its own subprocess,
one at a time, with ``src`` of the copy on PYTHONPATH.  A mutant is killed
when pytest fails or runs past its timeout, max(TIMEOUT_MIN_S,
TIMEOUT_FACTOR x the baseline's time): a mutant that loops for ever then
costs a few baseline runs, not minutes.  The survivors are
printed as FILE:LINE:COL (1-based, COL in bytes, at the mutated operator
or constant, so two mutants of one line differ), then the kill rate.
Stdlib only; the tests never run this tool.
"""

from __future__ import annotations

import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".hypothesis", ".perfbench_out")
TIMEOUT_MIN_S = 60  # a mutant that runs past its timeout counts as killed
TIMEOUT_FACTOR = 5
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
         ast.FloorDiv: ast.Mult, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
         ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
         ast.NotEq: ast.Eq}
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
           ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!="}


def sites(tree: ast.Module, names: set, source: str) -> list:
    """(path, description, line, col) of every mutation site inside the
    functions called names, where path locates the site from the module
    root: a node is reached by a sequence of (field, index) steps, index
    None for a single child.  (line, col) is the 1-based position of the
    mutated operator or constant in source, the text tree was parsed from."""
    lines = source.encode().splitlines()
    found = []

    def visit(node, path, inside):
        inside = inside or (isinstance(node, (ast.FunctionDef,
                                              ast.AsyncFunctionDef))
                            and node.name in names)
        if inside:
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                    type(node.op) in SWAPS:
                symbol = SYMBOLS[type(node.op)]
                if isinstance(node, ast.BinOp):
                    where = _between(lines, node.left, node.right, symbol)
                else:
                    where = _between(lines, node.target, node.value,
                                     symbol + "=")
                found.append((path + (("op", None),),
                              f"{symbol} -> {SYMBOLS[SWAPS[type(node.op)]]}",
                              *where))
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for i, op in enumerate(node.ops):
                    if type(op) in SWAPS:
                        symbol = SYMBOLS[type(op)]
                        found.append((path + (("ops", i),),
                                      f"{symbol} -> "
                                      f"{SYMBOLS[SWAPS[type(op)]]}",
                                      *_between(lines, operands[i],
                                                operands[i + 1], symbol)))
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                found.append((path, f"{node.value} -> {node.value + 1}",
                              node.lineno, node.col_offset + 1))
        for field, value in ast.iter_fields(node):
            if isinstance(value, ast.AST):
                visit(value, path + ((field, None),), inside)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, ast.AST):
                        visit(item, path + ((field, i),), inside)

    visit(tree, (), False)
    return found


def _between(lines: list, before: ast.AST, after: ast.AST,
             symbol: str) -> tuple:
    """The 1-based (line, col) of symbol in the source bytes lines, first
    met after the end of node before and ahead of the start of node after:
    the operator between two operands."""
    line, col, symbol = before.end_lineno, before.end_col_offset, \
        symbol.encode()
    while line <= after.lineno:
        text = lines[line - 1]
        stop = after.col_offset if line == after.lineno else len(text)
        found = text.find(symbol, col, stop)
        if found >= 0:
            return line, found + 1
        line, col = line + 1, 0
    raise ValueError(f"no {symbol!r} after line {before.end_lineno}")


def mutate(tree: ast.Module, path: tuple) -> ast.Module:
    """A copy of tree with the site at path mutated."""
    tree = copy.deepcopy(tree)
    parent, (field, index) = tree, path[-1]
    for step_field, step_index in path[:-1]:
        parent = getattr(parent, step_field)
        if step_index is not None:
            parent = parent[step_index]
    if field == "op":
        parent.op = SWAPS[type(parent.op)]()
    elif field == "ops":
        parent.ops[index] = SWAPS[type(parent.ops[index])]()
    else:  # an integer constant
        node = getattr(parent, field)
        node = node[index] if index is not None else node
        node.value += 1
    return tree


def run_tests(copy_root: Path, pytest_args: list, timeout=None) -> bool:
    """True when the selection passes in the copy within timeout seconds
    (None waits for ever)."""
    env = dict(os.environ, PYTHONPATH=str(copy_root / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p",
           "no:cacheprovider", *pytest_args]
    try:
        proc = subprocess.run(cmd, cwd=copy_root, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main(argv: list) -> int:
    if "--" not in argv or argv.index("--") == 0:
        sys.exit("usage: mutants.py FILE:FUNC[,FUNC] ... -- PYTEST_ARGS")
    split = argv.index("--")
    pytest_args = argv[split + 1:]
    targets = {}
    for target in argv[:split]:
        file, _, funcs = target.partition(":")
        if not funcs:
            sys.exit(f"{target!r}: expected FILE:FUNC[,FUNC]")
        targets.setdefault(file, set()).update(funcs.split(","))

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy_root = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy_root, ignore=IGNORE)
        plans = []
        for file, names in targets.items():
            source = (ROOT / file).read_text()
            tree = ast.parse(source, filename=file)
            defined = {node.name for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))}
            if names - defined:
                sys.exit(f"{file}: no function {sorted(names - defined)}")
            (copy_root / file).write_text(ast.unparse(tree))
            plans.append((file, tree, sites(tree, names, source)))

        t0 = time.perf_counter()
        if not run_tests(copy_root, pytest_args):
            sys.exit("the unmutated modules fail the selection; nothing to do")
        baseline = time.perf_counter() - t0
        timeout = max(TIMEOUT_MIN_S, TIMEOUT_FACTOR * baseline)
        print(f"baseline passes in {baseline:.1f} s; timeout {timeout:.0f} s; "
              f"{sum(len(s) for _, _, s in plans)} mutants", flush=True)

        killed = total = 0
        for file, tree, found in plans:
            lines = (ROOT / file).read_text().splitlines()
            target = copy_root / file
            for path, what, line, col in found:
                target.write_text(ast.unparse(mutate(tree, path)))
                total += 1
                if run_tests(copy_root, pytest_args, timeout):
                    print(f"SURVIVED {file}:{line}:{col}: {what}    "
                          f"{lines[line - 1].strip()}", flush=True)
                else:
                    killed += 1
            target.write_text(ast.unparse(tree))
        rate = killed / total if total else 1.0
        print(f"killed {killed}/{total} ({rate:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
