"""tools/mutants.py mutates what runs inside the named functions.

``sites`` is called on source text, without running any mutant: a named
function's decorators run where it is defined, and a memo's ``maxsize``
changes no value, so no site may lie on a decorator line of a named
function, while its body and the decorators of functions nested in it
still hold sites.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sites(source: str, names: set) -> list:
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools/mutants.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.sites(ast.parse(source), names, source)


def _decorator_lines(source: str, names: set) -> set:
    return {line for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name in names
            for decorator in node.decorator_list
            for line in range(decorator.lineno, decorator.end_lineno + 1)}


def test_no_site_lies_on_a_decorator_line_of_the_plan_memos():
    names = {"_row_plan", "_quotient_plan", "_check_plan"}
    source = (ROOT / "src/twistbern/symmetry.py").read_text()
    decorators = _decorator_lines(source, names)
    # each plan is memoised by an lru_cache with a maxsize
    assert len(decorators) == 3
    assert not {line for _, _, line, _ in _sites(source, names)} & decorators


def test_bodies_and_nested_decorators_keep_their_sites():
    source = (
        "import functools\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def f(x):\n"
        "    @functools.lru_cache(maxsize=x + 2)\n"
        "    def g(y):\n"
        "        return y * 3\n"
        "    return g(x) + 1\n")
    found = sorted((line, what)
                   for _, what, line, _ in _sites(source, {"f"}))
    assert found == [(4, "+ -> -"), (4, "2 -> 3"), (6, "* -> //"),
                     (6, "3 -> 4"), (7, "+ -> -"), (7, "1 -> 2")]
