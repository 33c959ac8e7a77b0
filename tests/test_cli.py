import json
import os

import pytest

from leecodes import cli


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_usage_error_even_q(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--q", "2", "--m", "3"])
    assert exc.value.code == cli.EXIT_USAGE


def test_usage_error_composite_q(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--q", "9", "--m", "2"])
    assert exc.value.code == cli.EXIT_USAGE


def test_usage_error_small_budget(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--q", "3", "--m", "3", "--budget", "10"])
    assert exc.value.code == cli.EXIT_USAGE


def test_verify_identities_passes(capsys):
    code, out = run(["verify-identities", "--q", "3", "--m", "2", "--seed", "7"], capsys)
    assert code == cli.EXIT_PASS
    payload = json.loads(out)
    assert payload["command"] == "verify-identities"
    statuses = {v["check"]: v["status"] for v in payload["verdicts"]}
    assert set(statuses.values()) == {"PASS"}
    assert "zero-trace-pair-count" in statuses


def test_spectrum_both_match(capsys):
    code, out = run(["spectrum", "--q", "3", "--m", "3", "--mode", "both", "--threads", "1"], capsys)
    assert code == cli.EXIT_PASS
    payload = json.loads(out)
    assert payload["verdicts"] == [{"check": "lee-closed-vs-brute", "status": "PASS"}]
    assert payload["results"]["defining_set_size"] == 80
    brute = {rec["weight"]: rec["multiplicity"] for rec in payload["results"]["brute"]}
    assert brute[108] == 368


def test_spectrum_json_deterministic(capsys):
    argv = ["spectrum", "--q", "3", "--m", "2", "--mode", "both", "--threads", "2", "--seed", "5"]
    _, first = run(argv, capsys)
    _, second = run(argv, capsys)
    assert first == second
    assert json.loads(first)["timing"] is None


def test_timing_flag_populates_field(capsys):
    code, out = run(["spectrum", "--q", "3", "--m", "2", "--timing"], capsys)
    assert code == cli.EXIT_PASS
    payload = json.loads(out)
    assert payload["timing"] is not None
    assert payload["timing"]["elapsed_ms"] >= 0


def test_budget_exceeded_exit_code(capsys):
    code, out = run(
        ["spectrum", "--q", "3", "--m", "6", "--mode", "brute", "--budget", "1000000"],
        capsys,
    )
    assert code == cli.EXIT_BUDGET
    payload = json.loads(out)
    assert payload["verdicts"][0]["status"] == "SKIPPED"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--q", "3", "--m", "6"],
    ["cwe", "--q", "5", "--m", "4"],
])
def test_histogram_count_runs_at_default_budget(argv, capsys):
    code, out = run(argv + ["--mode", "both"], capsys)
    assert code == cli.EXIT_PASS
    assert json.loads(out)["verdicts"][0]["status"] == "PASS"


@pytest.mark.parametrize("argv,exit_code", [
    (["spectrum"], cli.EXIT_USAGE),
    (["cwe", "--mode", "closed"], cli.EXIT_USAGE),
    (["minimality"], cli.EXIT_USAGE),
    (["check-all", "--mode", "brute"], cli.EXIT_USAGE),
    (["spectrum", "--mode", "brute"], cli.EXIT_PASS),
    (["verify-identities"], cli.EXIT_PASS),
])
def test_degree_one_needs_no_closed_tables(argv, exit_code, capsys):
    argv = argv + ["--q", "3", "--m", "1"]
    if exit_code == cli.EXIT_PASS:
        assert run(argv, capsys)[0] == exit_code
        return
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == exit_code
    assert "need --m >= 2" in capsys.readouterr().err


def test_cwe_closed_records(capsys):
    code, out = run(["cwe", "--q", "3", "--m", "4", "--mode", "closed"], capsys)
    assert code == cli.EXIT_PASS
    payload = json.loads(out)
    recs = {tuple(r["composition"]): r["multiplicity"] for r in payload["results"]["closed"]}
    assert recs[(376, 252, 252)] == 120
    assert recs[(880, 0, 0)] == 1


def test_cwe_both_match(capsys):
    code, out = run(["cwe", "--q", "3", "--m", "2", "--mode", "both"], capsys)
    assert code == cli.EXIT_PASS
    assert json.loads(out)["verdicts"] == [{"check": "cwe-closed-vs-brute", "status": "PASS"}]


def test_minimality_report(capsys):
    code, out = run(["minimality", "--q", "3", "--m", "3"], capsys)
    assert code == cli.EXIT_PASS
    payload = json.loads(out)
    res = payload["results"]
    assert res["ab_holds"] is False
    assert res["ab_ratio"] == [1, 2]
    assert res["minimal_count"] == 700
    assert res["all_minimal"] is False
    assert res["gray_rank"] == 6
    assert payload["verdicts"] == [{"check": "ab-soundness", "status": "PASS"}]


@pytest.mark.parametrize("command", ["minimality", "check-all"])
def test_degenerate_code_is_a_result(command, capsys):
    # m = 2, q = 1 mod 4: the defining set is empty and every codeword is zero
    code, out = run([command, "--q", "5", "--m", "2"], capsys)
    assert code == cli.EXIT_PASS
    payload = json.loads(out)
    res = payload["results"]
    if command == "check-all":
        res = res["minimality"]
    assert res["degenerate"] is True
    assert "ab_ratio" not in res
    assert (res["minimal_count"], res["all_minimal"], res["gray_rank"]) == (0, True, 0)
    assert {"check": "ab-soundness", "status": "PASS"} in payload["verdicts"]


def test_spectrum_brute_large_q(capsys):
    # q - 1 > 127 does not fit the int8 trace tables of smaller fields
    code, out = run(["spectrum", "--q", "131", "--m", "1", "--mode", "brute"], capsys)
    assert code == cli.EXIT_PASS
    res = json.loads(out)["results"]
    assert res["defining_set_size"] == 0
    assert res["brute"] == [{"weight": 0, "multiplicity": 131**2}]


def test_minimality_budget_skip(capsys):
    code, out = run(["minimality", "--q", "3", "--m", "4", "--budget", "1000000"], capsys)
    assert code == cli.EXIT_BUDGET
    payload = json.loads(out)
    assert payload["results"]["ab_holds"] is False
    assert payload["verdicts"][0]["status"] == "SKIPPED"


def test_minimality_boundary_case_runs_at_default_budget(capsys):
    # (3,4) sits exactly on the Ashikhmin-Barg threshold: only the scan decides it
    code, out = run(["minimality", "--q", "3", "--m", "4"], capsys)
    assert code == cli.EXIT_PASS
    res = json.loads(out)["results"]
    assert (res["ab_holds"], res["minimal_count"], res["all_minimal"]) == (False, 6520, False)


def test_check_all(capsys):
    code, out = run(["check-all", "--q", "3", "--m", "2", "--seed", "3"], capsys)
    assert code == cli.EXIT_PASS
    payload = json.loads(out)
    statuses = {v["status"] for v in payload["verdicts"]}
    assert statuses == {"PASS"}
    assert "spectrum" in payload["results"]


def test_csv_format(capsys):
    code, out = run(["spectrum", "--q", "3", "--m", "2", "--format", "csv"], capsys)
    assert code == cli.EXIT_PASS
    lines = out.strip().splitlines()
    assert lines[0] == "kind,weight,multiplicity"
    assert any(line.startswith("brute,") for line in lines[1:])


def test_human_format(capsys):
    code, out = run(["spectrum", "--q", "3", "--m", "2", "--format", "human"], capsys)
    assert code == cli.EXIT_PASS
    assert "weight" in out and "[PASS]" in out


def test_out_file_atomic(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(
        ["spectrum", "--q", "3", "--m", "2", "--out", str(target)], capsys
    )
    assert code == cli.EXIT_PASS
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "spectrum"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".leecodes-")]
    assert leftovers == []


def test_env_override_format(monkeypatch, capsys):
    monkeypatch.setenv("LEECODES_FORMAT", "csv")
    code, out = run(["spectrum", "--q", "3", "--m", "2"], capsys)
    assert code == cli.EXIT_PASS
    assert out.startswith("kind,weight,multiplicity")


def test_env_format_outside_choices_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("LEECODES_FORMAT", "xml")
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--q", "3", "--m", "2", "--mode", "closed"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--format must be one of json, csv, human" in capsys.readouterr().err


def test_env_override_budget(monkeypatch, capsys):
    monkeypatch.setenv("LEECODES_BUDGET", "1000000")
    code, out = run(["spectrum", "--q", "3", "--m", "6", "--mode", "brute"], capsys)
    assert code == cli.EXIT_BUDGET
