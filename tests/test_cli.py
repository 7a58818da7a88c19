import concurrent.futures
import json

import pytest

from twistbern import cli
from twistbern.bernoulli import TwistContext
from twistbern.cli import GridSpec, main, run_grid
from twistbern.cyclo import cyclo_field
from twistbern.report import TheoremReport

from bernoulli_helpers import plain_twisted_numbers


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chars_listing(capsys):
    code, out, _ = run(capsys, "chars", "--d", "5")
    assert code == 0
    assert out.count("yes") == 3
    code, out, _ = run(capsys, "chars", "--d", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 3  # header x2 + one row
    code, out, _ = run(capsys, "chars", "--d", "4", "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 3  # header + two rows


def test_bernoulli_table_text(capsys):
    code, out, _ = run(capsys, "bernoulli", "--d", "1", "--n", "4")
    assert code == 0
    assert "B_1 = -1/2" in out
    assert "B_4 = -1/30" in out
    # B_0 = 0 for xi of order 2
    code, out, _ = run(capsys, "bernoulli", "--d", "1", "--xi-order", "2",
                       "--n", "0")
    assert code == 0
    assert "B_0 = 0" in out


def test_xi_exp_selects_the_twist_root(capsys):
    # B_1 of t/(xi e^t - 1) tells the primitive 5th roots xi apart
    values = {}
    for e in (1, 2):
        code, out, _ = run(capsys, "bernoulli", "--d", "1", "--xi-order", "5",
                           "--xi-exp", str(e), "--n", "1", "--format", "json")
        assert code == 0
        values[e] = json.loads(out)["values"][1]
    assert values[1] != values[2]
    xi = cyclo_field(5).root(2)
    assert values[2] == plain_twisted_numbers(xi, 1)[1].to_json_dict()


def test_bernoulli_bad_character_index(capsys):
    code, _, err = run(capsys, "bernoulli", "--d", "1", "--char", "7",
                       "--n", "2")
    assert code == 2
    assert "error" in err


def test_json_output_roundtrips(capsys):
    code, out, _ = run(capsys, "bernoulli", "--d", "4", "--char", "1",
                       "--xi-order", "4", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out
    code, out, _ = run(capsys, "verify", "--theorem", "2", "--w", "1,2,3",
                       "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["theorem"] == 2
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "1", "--w", "1,1,1")
    assert code == 0
    assert "pass" in out
    code, out, _ = run(capsys, "verify", "--theorem", "all", "--d", "1",
                       "--w", "1,2,3", "--n", "3")
    assert code == 0
    assert out.count("pass") == 8


def test_verify_usage_errors(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "1", "--w", "0,1,1")
    assert code == 2
    code, _, err = run(capsys, "verify", "--theorem", "12", "--w", "1,1,1")
    assert code == 2
    code, _, _ = run(capsys, "verify", "--theorem", "1", "--w", "1,2")
    assert code == 2
    # a non-integer id reads as an unknown one, not as an int() failure
    assert run(capsys, "verify", "--theorem", "x") == (
        2, "", "error: theorem id must be 1..8 or 'all'\n")


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    failing = TheoremReport(theorem=1, params={}, passed=False,
                            detail="forced")
    monkeypatch.setattr(cli, "verify_theorem",
                        lambda *args, **kwargs: failing)
    code, out, _ = run(capsys, "verify", "--theorem", "1", "--w", "1,1,1")
    assert code == 1
    assert "fail" in out


def test_imprimitive_character_is_flagged(capsys):
    code, _, err = run(capsys, "bernoulli", "--d", "4", "--char", "0",
                       "--n", "1")
    assert code == 0
    assert "imprimitive" in err
    code, _, err = run(capsys, "bernoulli", "--d", "4", "--char", "1",
                       "--n", "1")
    assert code == 0
    assert "imprimitive" not in err


def test_grid_single_point_matches_verify(capsys):
    code, out, _ = run(capsys, "grid", "--d", "4", "--chars", "1",
                       "--xi-orders", "4", "--w", "1,2,3", "--n", "2",
                       "--trunc", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0
    kinds = {r["kind"] for r in payload["results"]}
    assert "theorem" in kinds and "powersum_gf" in kinds
    assert any(k.startswith("invariance") for k in kinds)
    theorem_rows = [r for r in payload["results"] if r["kind"] == "theorem"]
    assert len(theorem_rows) == 8
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


def test_grid_csv_and_ordering(capsys):
    code, out, _ = run(capsys, "grid", "--d", "4,1", "--xi-orders", "2,1",
                       "--w", "1,1,1", "--n", "1", "--trunc", "2",
                       "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("kind,")
    # deterministic ordering: d=1 rows precede d=4 rows
    d_col = [r.split(",")[2] for r in rows[1:]]
    assert d_col == sorted(d_col)


def test_grid_usage_errors(capsys):
    code, _, _ = run(capsys, "grid", "--d", "", "--w", "1,1,1")
    assert code == 2
    with pytest.raises(ValueError):
        GridSpec(d_list=[1], char_selector="all", xi_orders=[1], w_list=[])


def test_a_grid_that_selects_no_point_exits_2(capsys):
    # no character mod 2 or mod 6 is primitive
    for d in ("2", "2,6"):
        code, out, err = run(capsys, "grid", "--d", d, "--chars", "primitive")
        assert (code, out) == (2, "")
        assert err == ("error: grid selects no point: --chars 'primitive' "
                       f"matches no character mod {d}\n")
    # the d = 3 points of a grid run, though d = 2 contributes none
    code, out, _ = run(capsys, "grid", "--d", "2,3", "--chars", "primitive",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["results"]
    assert rows and {(r["d"], r["char"]) for r in rows} == {(3, 1)}
    assert all(r["verdict"] == "pass" for r in rows)


@pytest.mark.parametrize("argv, message", [
    (["bernoulli", "--n", "-1"], "n must be >= 0"),
    (["grid", "--chars", "1,,x"], "--chars must be 'all', 'primitive', or "
                                  "a comma list of indices, not '1,,x'"),
])
def test_usage_errors_name_the_flag_given(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_run_grid_jobs_agree():
    spec1 = GridSpec(d_list=[1, 4], char_selector="all", xi_orders=[1, 2],
                     w_list=[(1, 2, 3)], n_max=1, truncation=2, jobs=1)
    spec2 = GridSpec(d_list=[1, 4], char_selector="all", xi_orders=[1, 2],
                     w_list=[(1, 2, 3)], n_max=1, truncation=2, jobs=2)
    out1 = run_grid(spec1)
    out2 = run_grid(spec2)
    assert out1 == out2
    assert out1["summary"]["failed"] == 0


def test_padic_table(capsys):
    code, out, _ = run(capsys, "padic", "--p", "3", "--s", "0", "--d", "1",
                       "--k", "1", "--n-max", "4", "--format", "csv")
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()[1:]]
    assert [r[1] for r in rows] == ["1", "2", "3", "4"]
    code, out, _ = run(capsys, "padic", "--p", "3", "--s", "0", "--k", "0",
                       "--n-max", "3", "--format", "csv")
    assert code == 0
    assert all(line.endswith("inf") for line in out.strip().splitlines()[1:])


def test_padic_rejects_complex_characters(capsys):
    code, _, err = run(capsys, "padic", "--p", "5", "--s", "1", "--d", "5",
                       "--char", "1", "--k", "1", "--n-max", "2")
    assert code == 2
    assert "unsupported" in err


def test_padic_json(capsys):
    code, out, _ = run(capsys, "padic", "--p", "2", "--s", "1", "--k", "2",
                       "--n-max", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


def test_padic_xi_exp_picks_the_root(capsys):
    # xi = zeta_9^e at p = 3, s = 2, as from_orders(1, 0, 9, e) builds it
    xis = {}
    for e in ("1", "2"):
        code, out, _ = run(capsys, "padic", "--p", "3", "--s", "2",
                           "--xi-exp", e, "--k", "1", "--n-max", "2",
                           "--format", "json")
        assert code == 0
        xis[e] = json.loads(out)["params"]["xi"]
    assert xis["1"] != xis["2"]
    assert xis["2"] == TwistContext.from_orders(1, 0, 9, 2).xi.to_json_dict()


def test_output_file(tmp_path, capsys):
    target = tmp_path / "chars.csv"
    code, out, _ = run(capsys, "chars", "--d", "5", "--format", "csv",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("index,")


def test_unwritable_output_file_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "chars", "--d", "5", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --out ")
    assert str(target) in err and "No such file or directory" in err
    assert len(err.splitlines()) == 1


def test_internal_error_is_not_a_mismatch(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "cmd_chars", crash)
    code, out, err = run(capsys, "chars", "--d", "5")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:") and "boom" in err
    # parameter errors keep their own code
    code, _, err = run(capsys, "bernoulli", "--d", "1", "--char", "7")
    assert code == 2 and err.startswith("error:")


def test_effective_jobs_clamp(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli.effective_jobs(10**6, 100) == 4
    assert cli.effective_jobs(10**6, 3) == 3
    assert cli.effective_jobs(2, 100) == 2
    assert cli.effective_jobs(0, 100) == 1
    assert cli.effective_jobs(-5, 100) == 1
    assert cli.effective_jobs(8, 0) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli.effective_jobs(8, 100) == 1


def test_run_grid_starts_at_most_the_clamped_pool(monkeypatch):
    # the pool is replaced by a serial stand-in where run_grid's lazy
    # import reads it, so no process is started
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    spec = GridSpec(d_list=[1, 3], char_selector="primitive", xi_orders=[1],
                    w_list=[(1, 1, 1)], n_max=1, truncation=1, jobs=10**6)
    out = run_grid(spec)
    assert started == [2]
    assert out["summary"]["failed"] == 0


@pytest.mark.parametrize("argv,message", [
    (["verify", "--w", "1,2"],
     "argument --w: --w expects three comma-separated integers"),
    (["grid", "--w", "1,2,3,4"],
     "argument --w: --w expects three comma-separated integers"),
    (["grid", "--w", "1,x,3"],
     "argument --w: expected comma-separated integers, not '1,x,3'"),
    (["grid", "--d", "1,x"],
     "argument --d: expected comma-separated integers, not '1,x'"),
    (["grid", "--xi-orders", "1,,x"],
     "argument --xi-orders: expected comma-separated integers, not '1,,x'"),
])
def test_list_parse_errors_say_what_was_expected(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(f"error: {message}")
    assert "invalid" not in err


def test_negative_truncation_is_a_usage_error(capsys):
    code, out, err = run(capsys, "grid", "--d", "1", "--w", "1,1,1",
                         "--trunc", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: truncation must be >= 0\n"
    # checked up front too, so it never reaches a grid point as a crash
    code, out, err = run(capsys, "grid", "--d", "1", "--w", "1,1,1",
                         "--n", "-1")
    assert (code, out, err) == (2, "", "error: n must be >= 0\n")
    with pytest.raises(ValueError, match="truncation must be >= 0"):
        GridSpec(d_list=[1], char_selector="all", xi_orders=[1],
                 w_list=[(1, 1, 1)], truncation=-1)


def test_grid_survives_one_crashing_point(capsys, monkeypatch):
    argv = ["grid", "--d", "1,3", "--chars", "0", "--xi-orders", "1",
            "--w", "1,2,3", "--n", "1", "--trunc", "1", "--jobs", "1"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    clean = json.loads(out)
    assert set(clean["summary"]) == {"total", "passed", "failed"}

    real = cli._grid_point_rows

    def crash_at_d3(point, n_max, truncation):
        if point[0] == 3:
            raise RuntimeError("injected crash")
        return real(point, n_max, truncation)
    monkeypatch.setattr(cli, "_grid_point_rows", crash_at_d3)
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 3
    assert "injected crash" in err
    payload = json.loads(out)
    errors = [r for r in payload["results"] if r["verdict"] == "error"]
    assert len(errors) == 1
    assert errors[0]["d"] == 3 and errors[0]["kind"] == "point"
    assert errors[0]["detail"] == "RuntimeError: injected crash"
    d1_rows = [r for r in clean["results"] if r["d"] == 1]
    assert [r for r in payload["results"] if r["d"] == 1] == d1_rows
    assert payload["summary"] == {"total": len(d1_rows) + 1,
                                  "passed": len(d1_rows), "failed": 0,
                                  "errors": 1}
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert out.splitlines() == [
        f"grid: {len(d1_rows) + 1} checks, {len(d1_rows)} passed, 0 failed, "
        "1 errored",
        "  point d=3 char=0 xi_order=1 w=[1, 2, 3]: error  "
        "[RuntimeError: injected crash]"]


@pytest.mark.parametrize("flags, message", [
    (["--k", "-1"], "k must be >= 0"),
    (["--n-max", "0"], "n_max must be >= 1"),
    (["--n-max", "-1"], "n_max must be >= 1"),
    (["--s", "-1"], "s must be >= 0"),
])
def test_padic_parameter_errors(capsys, flags, message):
    # checked before any work: no table and no verdict for a run of nothing
    code, out, err = run(capsys, "padic", "--p", "3", "--s", "1", "--d", "3",
                         "--char", "1", *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_main_builds_the_parser_once(capsys, monkeypatch):
    calls = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser",
                        lambda: calls.append(1) or real())
    assert main(["chars", "--d", "3"]) == 0
    assert main(["chars", "--d", "4"]) == 0
    assert main(["chars"]) == 2
    assert len(calls) == 1
