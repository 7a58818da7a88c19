"""Start-up cost: ``import twistbern.cli`` loads only what a check runs,
and the plain records that replace dataclasses keep their behaviour."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twistbern import cli
from twistbern.bernoulli import TwistContext, powersum_gf_check
from twistbern.padic import padic_context
from twistbern.report import CheckReport, TheoremReport
from twistbern.symmetry import QuotientSpec

SRC = Path(__file__).resolve().parent.parent / "src"

#: loaded only by a pool run (``grid --jobs > 1``), an internal error, or
#: not at all
HEAVY = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect",
         "traceback", "logging")


def test_import_cli_loads_no_pool_and_no_dataclasses():
    # a fresh interpreter: the test process has loaded all of these already
    code = ("import sys; bare = set(sys.modules); import twistbern.cli; "
            "print(__import__('json').dumps(sorted(set(sys.modules) - bare)))")
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path)).stdout
    added = json.loads(out)
    assert "twistbern.cli" in added
    assert [m for m in added
            if any(m == h or m.startswith(h + ".") for h in HEAVY)] == []


def test_read_only_records_reject_assignment():
    pctx = padic_context(3, 1)
    spec = QuotientSpec("pairwise", 1, (1, 2, 3),
                        TwistContext.from_orders(1, 0, 1))
    for record, name in ((pctx, "p"), (pctx, "ramification"),
                         (spec, "family"), (spec, "w"), (spec, "other")):
        with pytest.raises(AttributeError, match="is read-only"):
            setattr(record, name, 5)
        with pytest.raises(AttributeError, match="is read-only"):
            delattr(record, name)
    assert (pctx.p, pctx.s, pctx.ramification, pctx.field.order) == (3, 1, 2, 3)
    assert (spec.family, spec.i, spec.w) == ("pairwise", 1, (1, 2, 3))


def test_theorem_report_defaults_are_per_instance():
    a, b = TheoremReport(1, {}), TheoremReport(2, {})
    a.expressions.append("x")
    a.notes["k"] = True
    assert (b.expressions, b.notes) == ([], {})
    assert (a.passed, a.detail, a.verdict) == (True, None, "pass")
    assert a.to_json_dict() == {"theorem": 1, "params": {}, "verdict": "pass",
                                "detail": None, "notes": {"k": True}}


def test_check_report_json_names_its_check_params_verdict_and_detail():
    out = powersum_gf_check(TwistContext.from_orders(3, 1, 4), 2,
                            3).to_json_dict()
    assert list(out) == ["check", "params", "verdict", "detail"]
    assert out == {"check": "powersum_gf_check",
                   "params": {"d": 3, "chi_exponents": [1],
                              "xi": {"L": 4, "coeffs": ["0", "1"]}, "w": 2,
                              "k_max": 3},
                   "verdict": "pass", "detail": None}
    failed = CheckReport("c", {"n": 2}, False, "lhs at t^1: 1 vs 2")
    assert failed.to_json_dict() == {"check": "c", "params": {"n": 2},
                                     "verdict": "fail",
                                     "detail": "lhs at t^1: 1 vs 2"}


def test_grid_spec_keeps_order_defaults_and_validation():
    spec = cli.GridSpec([1], "all", [1], [(1, 1, 1)])
    assert (spec.n_max, spec.truncation, spec.jobs) == (4, 4, 1)
    with pytest.raises(ValueError, match="^truncation must be >= 0$"):
        cli.GridSpec([1], "all", [1], [(1, 1, 1)], 4, -1)
