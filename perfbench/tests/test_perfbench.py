"""Tests of the benchmark itself: metric names, the gate, trace determinism."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from workloads import Workload, padic_check  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    args = ["--workload", workload, "--seed", "3", "--seconds", "1"]
    assert run.main(args + ["--trace", "0"]) == 0
    e2e = _result(capsys)
    assert set(e2e["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert run.main(args + ["--trace", "1"]) == 0
    layers = _result(capsys)
    assert set(layers["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for res in (e2e, layers):
        assert res["correct"] and res["attempted"] >= 1
        for name, m in res["metrics"].items():
            assert m["unit"] == next(x["unit"] for x in SPEC["end_to_end"]
                                     + SPEC["per_layer"] if x["name"] == name)
    if workload != "wide-field":
        assert e2e["failed"] == 0 and e2e["metrics"]["pass_frac"]["value"] == 1
        assert layers["metrics"]["fail_frac"]["value"] == 0
    records = (tmp_path / "runs.jsonl").read_text().splitlines()
    assert {"python", "cpu_count", "git_sha", "seed"} <= set(
        json.loads(records[0]))


def _first_check(name):
    wl = Workload(name, 0)
    wl.setup()
    return wl, wl.next_check()


def test_gate_counts_corrupted_digest_as_failure():
    wl, check = _first_check("series")
    reference = worker.load_reference("series")
    assert check.key in reference
    good = worker.run_checks(wl, check, reference, count=1)
    assert good["statuses"] == {"pass": 1}
    corrupted = {check.key: "0" * 16}
    bad = worker.run_checks(wl, check, corrupted, count=1)
    assert bad["statuses"] == {"mismatch": 1}
    bad["controls"] = []
    correct, attempted, failed, _ = run.gate([bad])
    assert (correct, attempted, failed) == (False, 1, 1)


def test_gate_counts_exception_as_error_not_mismatch(monkeypatch):
    wl, check = _first_check("theorems")

    def boom(c):
        raise RuntimeError("injected")
    monkeypatch.setattr(wl, "call", boom)
    res = worker.run_checks(wl, check, {}, count=1)
    assert res["statuses"] == {"error": 1}
    assert "RuntimeError: injected" in res["failures"][0]
    res["controls"] = []
    correct, attempted, failed, _ = run.gate([res])
    assert (correct, attempted, failed) == (False, 1, 1)


def test_known_padic_defect_fails_without_breaking_the_gate():
    wl, _ = _first_check("wide-field")
    check = padic_check(2, 3, 1, 0, 2)
    res = worker.run_checks(wl, check, {check.key: None}, count=1)
    assert res["statuses"] == {"known-defect": 1}
    res["controls"] = []
    assert run.gate([res])[:3] == (True, 1, 1)


@pytest.mark.parametrize("workload,count", [("theorems", 40),
                                            ("wide-field", 3)])
def test_traced_call_counts_repeat(workload, count, tmp_path):
    args = ["--workload", workload, "--seed", "5", "--mode", "run",
            "--count", str(count), "--traced", "1"]
    runs = [run.spawn(args + ["--trace-out", str(tmp_path / f"{i}.json")])
            for i in range(2)]
    calls = [{k: v for k, v in r["layers"].items() if k.endswith(".calls")}
             for r in runs]
    assert calls[0] == calls[1]
    assert sum(calls[0].values()) > 0
    spans = json.loads((tmp_path / "0.json").read_text())["spans"]
    assert len(spans) == count + 1 and spans[1]["parent"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "series", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
