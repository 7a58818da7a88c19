"""One evaluator owns every form.

``bernoulli.keyed_quotient`` is the one evaluator of a plan and the owner
of the context's form store, and ``bernoulli.quotient_plan`` the one
speller of table keys.  So, read from the source alone: ``symmetry``
reads or writes no private attribute of a context and writes no table key
of its own, and in ``bernoulli`` only ``keyed_quotient`` and the table
builders read whether a unit vanishes (``_unit_root``), the t^(1-v) that
every plan's power of t is read through.
"""

import ast
from pathlib import Path

from twistbern import bernoulli, symmetry
from twistbern.bernoulli import TwistContext

#: the kinds of factor_table keys
KEY_KINDS = {"units", "ratio", "sum"}
#: the functions of bernoulli that build a RowTable of a stored key
TABLE_BUILDERS = {"factor_table", "_build", "char_sum_series",
                  "twist_units_series", "_rescaled_table", "_inverse_table",
                  "_ratio_table", "_ratio_by_row_product",
                  "_ratio_in_small_field", "_apostol_table"}


def _tree(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text())


def test_symmetry_touches_no_private_attribute_of_a_context():
    private = {slot for slot in TwistContext.__slots__
               if slot.startswith("_")}
    touched = [(node.lineno, node.attr) for node in ast.walk(_tree(symmetry))
               if isinstance(node, ast.Attribute) and node.attr in private]
    assert private and touched == []


def test_symmetry_writes_no_table_key():
    keys = [node.lineno for node in ast.walk(_tree(symmetry))
            if isinstance(node, ast.Tuple) and node.elts
            and isinstance(node.elts[0], ast.Constant)
            and node.elts[0].value in KEY_KINDS]
    assert keys == []


def test_only_the_evaluator_and_the_table_builders_read_a_vanishing_unit():
    callers = set()
    for function in ast.walk(_tree(bernoulli)):
        if isinstance(function, ast.FunctionDef):
            if any(isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   and node.func.id == "_unit_root"
                   for node in ast.walk(function)):
                callers.add(function.name)
    assert "keyed_quotient" in callers
    assert callers - TABLE_BUILDERS == {"keyed_quotient"}
