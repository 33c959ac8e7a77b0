import argparse
import gc
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import leecodes
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


def test_verify_identities_runs_every_check_above_dense_table_limit(capsys):
    # q^m = 6561 > 2048: no identity oracle reads a q^m x q^m table
    code, out = run(["verify-identities", "--q", "3", "--m", "8"], capsys)
    assert code == cli.EXIT_PASS
    verdicts = json.loads(out)["verdicts"]
    assert len(verdicts) == 9 and {v["status"] for v in verdicts} == {"PASS"}


def _closed_off_by_one(fn):
    """fn with each closed-mode value moved by one (a Gauss sum's embedding by 1)."""
    from leecodes import charsums, gf

    def patched(*args, mode="closed", **kwargs):
        value = fn(*args, mode=mode, **kwargs)
        if mode != "closed":
            return value
        if isinstance(value, charsums.CountResult):
            return charsums.CountResult(value.value + 1, value.branch)
        if isinstance(value, gf.GaussValue):
            return value.embedding + 1
        return value + 1
    return patched


def _first_sampled_triple(seed: int, n: int, q: int) -> list[int]:
    """The first (a, b, lam) sample: drawn after the 20 quadratic-sum tuples."""
    rng = random.Random(seed)
    for _ in range(20):
        rng.randrange(1, n), rng.randrange(n), rng.randrange(n)
    return [rng.randrange(1, n), rng.randrange(1, n), rng.randrange(1, q)]


@pytest.mark.parametrize("fname,failing,q,m,counterexample", [
    ("square_trace_count", {"square-trace-count"}, 3, 2, [0]),
    ("gauss_sum", {"gauss-sum"}, 3, 2, ["extension"]),
    ("nested_char_sum", {"nested-sum-single", "nested-sum-split", "nested-sum-coupled"},
     3, 2, [1, 1, 1]),
    ("nested_char_sum", {"nested-sum-single", "nested-sum-split", "nested-sum-coupled"},
     3, 4, _first_sampled_triple(5, 81, 3)),
], ids=["residue", "level", "exhaustive-triple", "sampled-triple"])
def test_identity_fail_reports_the_first_counterexample(fname, failing, q, m, counterexample,
                                                        monkeypatch, capsys):
    from leecodes import charsums

    monkeypatch.setattr(charsums, fname, _closed_off_by_one(getattr(charsums, fname)))
    code, out = run(["verify-identities", "--q", str(q), "--m", str(m), "--seed", "5"], capsys)
    assert code == cli.EXIT_FAIL
    verdicts = json.loads(out)["verdicts"]
    assert {v["check"] for v in verdicts if v["status"] == "FAIL"} == failing
    assert {v["check"] for v in verdicts if v["status"] == "PASS"} | failing == {
        v["check"] for v in verdicts}
    last = [v for v in verdicts if v["status"] == "FAIL"][-1]
    assert set(last) == {"check", "status", "counterexample", "closed", "oracle"}
    assert last["counterexample"] == counterexample


def test_identity_budget_skips_only_the_nested_pair_sums():
    # at (3,5) the two-sided nested oracles cost 2 (q^m + (q-1)^2 q^2) + (q-1) q^2
    # = 576 steps, the dearest other oracle 2 q^m + q^2 = 495; the runner is
    # called directly, since the CLI takes no budget below 10^6
    args = argparse.Namespace(q=3, m=5, budget=500, seed=0)
    verdicts, results = cli._identity_results(args, None)
    assert results == {}
    skipped = {"nested-sum-split", "nested-sum-coupled"}
    assert len(verdicts) == 9
    for v in verdicts:
        assert v["status"] == ("SKIPPED" if v["check"] in skipped else "PASS")
        if v["status"] == "SKIPPED":
            kind = v["check"].removeprefix("nested-sum-")
            assert v["reason"] == f"{kind}-sum oracle needs ~576 elementary steps, budget is 500"


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
        ["spectrum", "--q", "31", "--m", "2", "--mode", "brute", "--budget", "1000000"],
        capsys,
    )
    assert code == cli.EXIT_BUDGET
    payload = json.loads(out)
    assert payload["verdicts"][0]["status"] == "SKIPPED"


@pytest.mark.parametrize("argv,reason", [
    (["spectrum", "--q", "5", "--m", "10", "--mode", "both"],
     "Lee spectrum enumeration needs ~2490234375 elementary steps, budget is 1000000000"),
    (["cwe", "--q", "3", "--m", "15", "--mode", "both"],
     "CWE enumeration needs ~1980149166 elementary steps, budget is 1000000000"),
    (["minimality", "--q", "5", "--m", "11"],
     "minimality rank test (class bound) needs ~3255665050 elementary steps, "
     "budget is 1000000000"),
    (["verify-identities", "--q", "3", "--m", "19"],
     "identity oracle scan needs ~1162261467 elementary steps, budget is 1000000000"),
    (["check-all", "--q", "3", "--m", "19"],
     "identity oracle scan needs ~1162261467 elementary steps, budget is 1000000000"),
], ids=["spectrum", "cwe", "minimality", "verify-identities", "check-all"])
def test_refusal_past_the_reach_builds_no_field(argv, reason, monkeypatch, capsys):
    # the prices read only q, m (and |D| from the closed tables), so the
    # extension field, whose log/exp tables take seconds here, is never built
    from leecodes import gf

    field_init = gf.Field.__init__

    def base_fields_only(self, q, m=1):
        if m > 1:
            raise AssertionError(f"F_{q}^{m} built for a refused run")
        field_init(self, q, m)

    monkeypatch.setattr(gf.Field, "__init__", base_fields_only)
    code, out = run(argv, capsys)
    assert code == cli.EXIT_BUDGET
    assert json.loads(out)["verdicts"][0]["reason"] == reason


@pytest.mark.parametrize("argv", [
    ["spectrum", "--q", "3", "--m", "6"],
    ["cwe", "--q", "5", "--m", "4"],
    ["spectrum", "--q", "3", "--m", "7"],
    ["cwe", "--q", "5", "--m", "5"],
    ["spectrum", "--q", "3", "--m", "10"],
    ["cwe", "--q", "5", "--m", "7"],
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
    # priced at 6 * 4 * 625 + 155 * 160 * 64 steps
    code, out = run(["minimality", "--q", "5", "--m", "4", "--budget", "1000000"], capsys)
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


def test_minimality_q3_m5_runs_at_default_budget(capsys):
    code, out = run(["minimality", "--q", "3", "--m", "5"], capsys)
    assert code == cli.EXIT_PASS
    res = json.loads(out)["results"]
    assert (res["ab_holds"], res["minimal_count"], res["all_minimal"]) == (True, 59048, True)


def test_check_all(capsys):
    code, out = run(["check-all", "--q", "3", "--m", "2", "--seed", "3"], capsys)
    assert code == cli.EXIT_PASS
    payload = json.loads(out)
    statuses = {v["status"] for v in payload["verdicts"]}
    assert statuses == {"PASS"}
    assert "spectrum" in payload["results"]


def test_check_all_builds_one_defining_set_and_counts_once(monkeypatch, capsys):
    # spectrum, cwe and minimality share one D per main() call, and a new call builds anew
    from leecodes import codes

    calls = {"build_defining_set": 0, "_compositions": 0}
    for name in calls:
        def counting(*args, _fn=getattr(codes, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(codes, name, counting)
    for runs in (1, 2):
        assert run(["check-all", "--q", "3", "--m", "3"], capsys)[0] == cli.EXIT_PASS
        assert calls == {"build_defining_set": runs, "_compositions": runs}


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


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--q", "3", "--m", "3", "--out", str(target)])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--out directory does not exist" in capsys.readouterr().err
    assert not target.parent.exists()


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
    code, out = run(["spectrum", "--q", "31", "--m", "2", "--mode", "brute"], capsys)
    assert code == cli.EXIT_BUDGET


# -- start-up: a one-shot process loads only what its command runs -----------

NUMERIC_MODULES = {"numpy", "leecodes.charsums", "leecodes.codes", "leecodes.gf",
                   "leecodes.ring", "leecodes.sss"}


def _main_passes(argv: list[str]) -> str:
    """Code that runs cli.main(argv) quietly and asserts it exits 0."""
    return ("import contextlib, io\n"
            "from leecodes import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n")


SPECTRUM_BOTH = _main_passes(["spectrum", "--q", "3", "--m", "3", "--mode", "both"])


def _fresh_stdout(code: str) -> str:
    """What a fresh interpreter prints while running code and shutting down."""
    src = str(Path(leecodes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    return proc.stdout


def _modules_loaded_by(code: str) -> set[str]:
    """Names in sys.modules after a fresh interpreter runs code."""
    return set(_fresh_stdout(f"{code}\nimport sys\nprint(' '.join(sys.modules))").split())


def test_importing_cli_loads_no_numeric_module():
    assert not NUMERIC_MODULES & _modules_loaded_by("import leecodes.cli")


def test_spectrum_loads_neither_sss_nor_ring():
    # nor dataclasses and fractions: the records are slotted classes, and the
    # closed forms divide Python ints exactly
    loaded = _modules_loaded_by(SPECTRUM_BOTH)
    assert {"leecodes.codes", "leecodes.gf"} <= loaded
    assert not {"leecodes.sss", "leecodes.ring", "leecodes.charsums", "dataclasses",
                "fractions"} & loaded


def test_cwe_loads_neither_dataclasses_nor_fractions():
    loaded = _modules_loaded_by(_main_passes(["cwe", "--q", "3", "--m", "3", "--mode", "both"]))
    assert not {"leecodes.sss", "leecodes.ring", "leecodes.charsums", "dataclasses",
                "fractions"} & loaded


def test_minimality_loads_neither_ring_nor_charsums():
    loaded = _modules_loaded_by(_main_passes(["minimality", "--q", "3", "--m", "3"]))
    assert {"leecodes.codes", "leecodes.gf", "leecodes.sss"} <= loaded
    assert not {"leecodes.ring", "leecodes.charsums", "dataclasses"} & loaded


def test_counts_and_minimality_build_no_log_tables():
    # the Gram matrix of the trace form gives every trace these commands read
    runs = "".join(_main_passes(argv) for argv in (
        ["spectrum", "--q", "3", "--m", "4", "--mode", "both"],
        ["cwe", "--q", "5", "--m", "3", "--mode", "both"],
        ["minimality", "--q", "7", "--m", "3"]))
    built = _fresh_stdout(runs + "from leecodes import gf\n"
                                 "for q, m in ((3, 4), (5, 3), (7, 3)):\n"
                                 "    f = gf.make_field(q, m)\n"
                                 "    print(q, m, sorted({'generator', '_exp', '_log'} & vars(f).keys()))\n")
    assert built.splitlines() == ["3 4 []", "5 3 []", "7 3 []"]


def test_public_names_resolve_to_their_submodules():
    for name in leecodes.__all__:
        module = importlib.import_module(f"leecodes.{leecodes._EXPORTS[name]}")
        assert getattr(leecodes, name) is getattr(module, name)
        assert name in dir(leecodes)


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError):
        leecodes.no_such_name  # noqa: B018
    assert not hasattr(leecodes, "no_such_name")


def test_only_running_main_freezes_the_heap_at_exit():
    # a reference cycle left for shutdown is finalized by its last collection,
    # which the frozen heap skips: importing the CLI keeps it, running main does not
    cycle = ("import gc\n"
             "class Node:\n"
             "    def __del__(self):\n"
             "        print('finalized', flush=True)\n"
             "gc.disable()\n"
             "node = Node()\n"
             "node.self = node\n"
             "del node\n")
    assert _fresh_stdout("import leecodes.cli\n" + cycle) == "finalized\n"
    assert _fresh_stdout(SPECTRUM_BOTH + cycle) == ""


def test_main_leaves_gc_state_unchanged(capsys):
    # the heap is frozen only at interpreter exit, never by a library call
    before = (gc.isenabled(), gc.get_freeze_count())
    assert run(["spectrum", "--q", "3", "--m", "2"], capsys)[0] == cli.EXIT_PASS
    assert (gc.isenabled(), gc.get_freeze_count()) == before
