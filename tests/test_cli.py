import argparse
import gc
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
import types
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


def test_a_report_past_the_int_to_str_limit(capsys):
    # at (3,4600) the closed multiplicities pass 4300 decimal digits, Python's
    # default limit (from 3.10.7) on converting an int to str and back
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        code, out = run(["spectrum", "--q", "3", "--m", "4600", "--mode", "closed"], capsys)
        assert code == cli.EXIT_PASS
        assert json.loads(out)["results"]["closed"]
        code, out = run(["minimality", "--q", "3", "--m", "4600"], capsys)
        assert code == cli.EXIT_BUDGET
        assert json.loads(out)["command"] == "minimality"
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


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


IDENTITY_CHECKS = ["gauss-sum", "quadratic-sum", "square-trace-count", "single-character-sum",
                   "pair-trace-count", "nested-sum-single", "nested-sum-split",
                   "nested-sum-coupled", "zero-trace-pair-count"]


def test_identity_closed_exactness_error_is_a_fail(monkeypatch, capsys):
    # g = 1 in place of G_2 = 3 leaves q^m + (q - 1) g = 11 prime to q: the closed
    # count refuses it, and that is the row's FAIL, not a usage error
    from leecodes import charsums

    monkeypatch.setattr(charsums, "_gauss_int", lambda f: 1)
    code, out = run(["verify-identities", "--q", "3", "--m", "2"], capsys)
    assert code == cli.EXIT_FAIL
    verdicts = {v["check"]: v for v in json.loads(out)["verdicts"]}
    passing = {"gauss-sum", "quadratic-sum"}
    assert {c for c, v in verdicts.items() if v["status"] == "PASS"} == passing
    assert {c for c, v in verdicts.items() if v["status"] == "FAIL"} == set(IDENTITY_CHECKS) - passing
    assert verdicts["square-trace-count"] == {
        "check": "square-trace-count", "status": "FAIL", "counterexample": [0],
        "closed": "closed value 11/3 is not integral", "oracle": "5"}


@pytest.mark.parametrize("q,m", [(3, 3), (3, 4), (5, 3), (5, 4), (7, 3), (3, 5)])
def test_closed_table_exactness_error_is_a_fail(q, m, monkeypatch, capsys):
    # a term whose exponents do not sum to 2n fails the check that reads the
    # table, with the error as its closed value; every other result is written
    from leecodes import spectra
    from test_mutants import exponent_plus_one

    monkeypatch.setattr(spectra, "_closed_cwe_terms", exponent_plus_one)
    point = ["--q", str(q), "--m", str(m)]
    expected = {  # argv -> (the failing check, a result still written)
        ("spectrum",): ("lee-closed-vs-brute", "brute"),
        ("cwe",): ("cwe-closed-vs-brute", "brute"),
        ("cwe", "--mode", "closed"): ("cwe-closed", None),
        ("minimality",): ("ab-soundness", "minimal_count"),
    }
    for argv, (check, result) in expected.items():
        code, out = run([*argv, *point], capsys)
        payload = json.loads(out)
        assert code == cli.EXIT_FAIL
        assert payload["verdicts"] == [{"check": check, "status": "FAIL",
                                        "closed": payload["verdicts"][0]["closed"]}]
        assert "!= " + str(spectra.gray_image_length(q, m)) in payload["verdicts"][0]["closed"]
        assert "closed" not in payload["results"] and (result is None or result in payload["results"])
    code, out = run(["check-all", *point], capsys)
    assert code == cli.EXIT_FAIL
    failed = {v["check"] for v in json.loads(out)["verdicts"] if v["status"] == "FAIL"}
    assert failed == {"lee-closed-vs-brute", "cwe-closed-vs-brute", "ab-soundness"}


@pytest.mark.parametrize("command", ["spectrum", "minimality"])
def test_closed_table_that_cannot_be_built_is_a_fail(command, monkeypatch, capsys):
    # a table whose own exact division fails has no length 2n either: the rank
    # test's price reads q and m alone, so minimality still runs and FAILs
    from leecodes import gf, spectra

    monkeypatch.setattr(spectra, "_closed_cwe_terms",
                        lambda q, m: gf._exact(1, q, exponent=True))
    code, out = run([command, "--q", "3", "--m", "4"], capsys)
    payload = json.loads(out)
    assert code == cli.EXIT_FAIL
    assert [v["closed"] for v in payload["verdicts"]] == ["closed value 1/3 is not integral"]
    assert {"brute", "minimal_count"} & payload["results"].keys()


def _mutated_S(how):
    """charsums._S with one deliberate error."""
    from leecodes import charsums

    S = charsums._S

    def mutant(f, s, g):
        if how == "negated-g":
            return S(f, s, -g)
        if f.m % 2:  # eta(-s) read as eta(s) at odd m
            return S(f, -s, g) if how == "eta-sign" else S(f, s, g)
        return -g if s % f.q == 0 else (f.q - 1) * g  # the even-m cases swapped
    return mutant


FIVE_ROWS = {"square-trace-count", "single-character-sum", "pair-trace-count",
             "nested-sum-single", "zero-trace-pair-count"}


@pytest.mark.parametrize("how,q,m", [
    *[("negated-g", q, m) for q, m in [(3, 3), (3, 4), (5, 3), (5, 4)]],
    ("eta-sign", 3, 3), ("eta-sign", 7, 3), ("eta-sign", 5, 3),
    *[("even-cases-swapped", q, m) for q, m in [(3, 2), (3, 4), (5, 4)]],
])
def test_mutated_character_sum_fails_its_rows(how, q, m, monkeypatch):
    # the split and coupled sums are products of two values of S, so negating g
    # leaves them, and S(0) = 0 at odd m; eta(-1) = 1 at q = 1 mod 4, where reading
    # eta(-s) as eta(s) is an equivalent mutant
    from leecodes import charsums

    failing = {"negated-g": FIVE_ROWS,
               "eta-sign": FIVE_ROWS if q % 4 == 3 else set(),
               "even-cases-swapped": set(IDENTITY_CHECKS[2:])}[how]
    monkeypatch.setattr(charsums, "_S", _mutated_S(how))
    args = argparse.Namespace(q=q, m=m, budget=cli.DEFAULT_OPS_BUDGET, seed=0)
    verdicts, _ = cli._identity_results(args, None)
    assert {v["check"] for v in verdicts if v["status"] == "FAIL"} == failing
    assert {v["check"] for v in verdicts if v["status"] != "FAIL"} == set(IDENTITY_CHECKS) - failing
    assert {v["status"] for v in verdicts} <= {"PASS", "FAIL"}


def test_identity_budget_prices_each_row_as_a_whole():
    # a row's oracle calls share the budget, budget // calls each.  At (3,5) a row
    # samples 100 nested tuples and 120 pair-count tuples; one side of a nested or
    # pair-count oracle (a joint count) costs q^m + q^2 = 252 steps, and two sides
    # and their convolution 2 * 252 + q^2 = 513: the coupled row 51300 and the
    # zero-trace pair-count row 61560; every other row costs at most 25200 (100
    # one-sided nested calls of 252).  The runner is called directly, since the CLI
    # takes no budget below 10^6.
    for budget, skipped in [(51299, {"nested-sum-coupled": 513, "zero-trace-pair-count": 513}),
                            (51300, {"zero-trace-pair-count": 513}),
                            (61560, {})]:
        args = argparse.Namespace(q=3, m=5, budget=budget, seed=0)
        verdicts, results = cli._identity_results(args, None)
        assert results == {}
        assert [v["check"] for v in verdicts] == IDENTITY_CHECKS
        for v in verdicts:
            assert v["status"] == ("SKIPPED" if v["check"] in skipped else "PASS")
            if v["status"] == "SKIPPED":
                calls = 120 if v["check"] == "zero-trace-pair-count" else 100
                what = ("zero-trace pair-count" if calls == 120
                        else v["check"].removeprefix("nested-sum-") + "-sum")
                assert v["reason"] == (
                    f"{what} oracle needs ~{skipped[v['check']]} elementary steps, budget is "
                    f"{budget // calls}; the row's {calls} calls share --budget {budget}")


def test_identity_rows_share_the_cli_budget(capsys):
    # at (3,8) a coupled nested-sum call and a zero-trace pair-count call each cost
    # 2 (q^m + q^2) + q^2 = 13149 steps: 100 and 120 of them exceed 10^6, though
    # each call alone fits
    code, out = run(["verify-identities", "--q", "3", "--m", "8", "--budget", "1000000"], capsys)
    assert code == cli.EXIT_BUDGET
    skipped = {"nested-sum-coupled", "zero-trace-pair-count"}
    assert [(v["check"], v["status"]) for v in json.loads(out)["verdicts"]] == [
        (name, "SKIPPED" if name in skipped else "PASS") for name in IDENTITY_CHECKS]


@pytest.mark.parametrize("q,m", [(131, 1), (61, 2)])
def test_identity_oracles_reach_large_q(q, m, capsys):
    # each nested or pair-count oracle call costs about q^m + q^2 steps per side
    code, out = run(["verify-identities", "--q", str(q), "--m", str(m)], capsys)
    assert code == cli.EXIT_PASS
    assert [(v["check"], v["status"]) for v in json.loads(out)["verdicts"]] == [
        (name, "PASS") for name in IDENTITY_CHECKS]


def test_identity_rows_hold_no_list_of_residue_pairs():
    # at q = 2003 pair-trace-count has q^2 = 4012009 calls, refused at the first;
    # a list of all its tuples took ~440 MB
    proc = subprocess.Popen([sys.executable, "-m", "leecodes.cli", "verify-identities",
                             "--q", "2003", "--m", "1"], env=_child_env(), stdout=subprocess.PIPE)
    with proc.stdout:
        verdicts = json.loads(proc.stdout.read())["verdicts"]
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # wait4 reaped it: tell Popen
    assert proc.returncode == cli.EXIT_BUDGET
    assert {"check": "pair-trace-count", "status": "SKIPPED",
            "reason": "square_trace_pair_count oracle needs ~4006 elementary steps, budget is "
                      "249; the row's 4012009 calls share --budget 1000000000"} in verdicts
    assert usage.ru_maxrss / 1024 < 150  # MB


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


# the count's one price: m q^(m+2) + q^(m+1) + m q^m + m^2 |Z| + ((q + 1) q)^2
@pytest.mark.parametrize("argv,reason", [
    # |Z| = (5^10 - 4 * 5^5) / 5 = 1950625:
    # 2441406250 + 48828125 + 97656250 + 195062500 + 900
    (["spectrum", "--q", "5", "--m", "10", "--mode", "both"],
     "Lee spectrum enumeration needs ~2782954025 elementary steps, budget is 1000000000"),
    # |Z| = 3^14: 1937102445 + 43046721 + 215233605 + 1076168025 + 144
    (["cwe", "--q", "3", "--m", "15", "--mode", "both"],
     "CWE enumeration needs ~3271550940 elementary steps, budget is 1000000000"),
    # |Z| = 3^8: 1594323 + 59049 + 177147 + 531441 + 144
    (["spectrum", "--q", "3", "--m", "9", "--budget", "2000000"],
     "Lee spectrum enumeration needs ~2362104 elementary steps, budget is 2000000"),
    (["minimality", "--q", "5", "--m", "11"],
     "minimality rank test (class bound) needs ~3255665050 elementary steps, "
     "budget is 1000000000"),
    (["verify-identities", "--q", "3", "--m", "19"],
     "identity oracle scan needs ~1162261467 elementary steps, budget is 1000000000"),
    (["check-all", "--q", "3", "--m", "19"],
     "identity oracle scan needs ~1162261467 elementary steps, budget is 1000000000"),
], ids=["spectrum", "cwe", "spectrum-small-budget", "minimality", "verify-identities",
        "check-all"])
def test_refusal_past_the_reach_builds_no_field(argv, reason, monkeypatch, capsys):
    # the prices read only q, m (and |D| from the closed table), so a refusal
    # comes before the q^m Q grid, and the extension field is never built
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


@pytest.mark.parametrize("command", ["spectrum", "cwe"])
def test_refused_count_keeps_the_closed_table(command, capsys):
    argv = [command, "--q", "3", "--m", "15"]
    code, out = run(argv + ["--mode", "both"], capsys)
    assert code == cli.EXIT_BUDGET
    payload = json.loads(out)
    assert [v["status"] for v in payload["verdicts"]] == ["SKIPPED"]
    code, closed = run(argv + ["--mode", "closed"], capsys)
    assert code == cli.EXIT_PASS
    assert payload["results"] == {"closed": json.loads(closed)["results"]["closed"]}


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


def test_check_all_refusal_keeps_every_runner(capsys):
    # at (3,9) the count is priced at 2362104 steps and the rank test at 3437964, above
    # the budget; so are the rows of 100 nested sums (19719 steps a one-sided call,
    # 39456 a two-sided) and of 120 zero-trace pair counts (39375 a call), and the other
    # identity rows fit in it
    code, out = run(["check-all", "--q", "3", "--m", "9", "--budget", "1000000"], capsys)
    assert code == cli.EXIT_BUDGET
    payload = json.loads(out)
    statuses = [(v["check"], v["status"]) for v in payload["verdicts"]]
    refused = {"nested-sum-single", "nested-sum-split", "nested-sum-coupled",
               "zero-trace-pair-count"}
    assert statuses[:9] == [(name, "SKIPPED" if name in refused else "PASS")
                            for name in IDENTITY_CHECKS]
    assert statuses[9:] == [("spectrum", "SKIPPED"), ("cwe", "SKIPPED"),
                            ("ab-soundness", "SKIPPED")]
    results = payload["results"]
    assert {key: set(results[key]) for key in results} == {
        "spectrum": {"closed"}, "cwe": {"closed"},
        "minimality": {"w_min", "w_max", "ab_ratio", "ab_threshold", "ab_holds",
                       "module_generators", "exhaustive_scan"}}
    assert results["minimality"]["ab_holds"] is True


def test_timing_is_reported_on_a_refused_run(capsys):
    code, out = run(["spectrum", "--q", "3", "--m", "15", "--timing"], capsys)
    assert code == cli.EXIT_BUDGET
    assert json.loads(out)["timing"]["elapsed_ms"] >= 0


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


def _leaves(node, name=None, in_list=False):
    """(name, text) of each leaf of a JSON value: name is the innermost key outside any
    list, text the leaf as a report writes it (a string as is, else as in JSON)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, name if in_list else key, in_list)
    elif isinstance(node, list):
        for item in node:
            yield from _leaves(item, name, True)
    else:
        yield name, node if isinstance(node, str) else json.dumps(node)


REPORTS = {
    **{command: [command, "--q", "3", "--m", "3"]
       for command in ["verify-identities", "spectrum", "cwe", "minimality", "check-all"]},
    "refused": ["spectrum", "--q", "3", "--m", "15", "--mode", "both"],
    "fail": ["verify-identities", "--q", "3", "--m", "2"],
    "diff": ["cwe", "--q", "3", "--m", "3"],
    "timing": ["check-all", "--q", "3", "--m", "3", "--timing"],
}


@pytest.mark.parametrize("output_format", ["csv", "human"])
@pytest.mark.parametrize("report", list(REPORTS))
def test_report_shows_every_leaf_of_the_payload(report, output_format, monkeypatch, capsys):
    # every result, verdict field and timing of the JSON payload is on some line of the
    # csv or human report, beside its key or the path of its table
    from leecodes import charsums

    if report == "fail":
        monkeypatch.setattr(charsums, "square_trace_count",
                            _closed_off_by_one(charsums.square_trace_count))
    if report == "diff":
        from leecodes import spectra
        from test_mutants import swapped_y

        monkeypatch.setattr(spectra, "_closed_cwe_terms", swapped_y)
    ticks = itertools.cycle([0.0, 5.0])  # each run takes 5000 ms
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    argv = REPORTS[report]
    code, out = run(argv, capsys)
    leaves = set(_leaves(json.loads(out)))
    if report in ("fail", "diff", "timing"):  # the payload has the leaf the report must show
        assert {"fail": ("verdicts", "FAIL"), "diff": ("verdicts", "FAIL"),
                "timing": ("elapsed_ms", "5000")}[report] in leaves
    fmt_code, text = run(argv + ["--format", output_format], capsys)
    assert fmt_code == code
    lines = text.splitlines()
    missing = [leaf for leaf in leaves
               if not any(leaf[0] in line and leaf[1] in line for line in lines)]
    assert missing == []


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


def test_out_naming_a_directory_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--q", "3", "--m", "2", "--out", str(tmp_path)])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--out names a directory" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []  # no .leecodes-* temporary file left


def test_params_do_not_depend_on_the_host(monkeypatch, capsys):
    # --threads defaults to 1, the thread count the count uses, not to the host's
    # cpu count
    argv = ["spectrum", "--q", "3", "--m", "2", "--mode", "closed"]
    _, first = run(argv, capsys)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    _, second = run(argv, capsys)
    assert first == second
    assert json.loads(second)["params"]["threads"] == 1


@pytest.mark.parametrize("argv", [["spectrum", "--q", "3", "--m", "2", "--mode", "both"],
                                  ["verify-identities", "--q", "3", "--m", "3"]])
def test_no_environment_variable_changes_a_report(argv, monkeypatch, capsys):
    # every value comes from argv: a fixed argv prints one report
    unset = run(argv, capsys)
    for name, value in [("FORMAT", "csv"), ("BUDGET", "1000000"), ("SEED", "9")]:
        monkeypatch.setenv("LEECODES_" + name, value)
    assert run(argv, capsys) == unset


@pytest.mark.parametrize("argv", [
    ["minimality", "--q", "3", "--m", "2", "--mode", "both"],
    ["verify-identities", "--q", "3", "--m", "2", "--mode", "closed"],
    ["spectrum", "--q", "3", "--m", "2", "--format", "xml"],
    ["spectrum", "--q", "3", "--m", "2", "--mode", "fast"],
    ["bogus", "--q", "3", "--m", "2"],
    ["spectrum", "--m", "2"],
    [],
])
def test_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    assert "leecodes: error:" in capsys.readouterr().err


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(f"\n  {command}  " in out for command in [*cli.RUNNERS, "check-all"])


# -- start-up: a one-shot process loads only what its command runs -----------

NUMERIC_MODULES = {"numpy", "leecodes.charsums", "leecodes.codes", "leecodes.defining_set",
                   "leecodes.gf", "leecodes.ring", "leecodes.spectra", "leecodes.sss"}


def _main_exits(argv: list[str], status: int) -> str:
    """Code that runs cli.main(argv) quietly and asserts it exits with status."""
    return ("import contextlib, io\n"
            "from leecodes import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "        contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        status = cli.main({argv!r})\n"
            "    except SystemExit as exc:\n"
            "        status = exc.code\n"
            f"assert status == {status}, status\n")


def _main_passes(argv: list[str]) -> str:
    """Code that runs cli.main(argv) quietly and asserts it exits 0."""
    return _main_exits(argv, 0)


SPECTRUM_BOTH = _main_passes(["spectrum", "--q", "3", "--m", "3", "--mode", "both"])


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this leecodes."""
    src = str(Path(leecodes.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_stdout(code: str) -> str:
    """What a fresh interpreter prints while running code and shutting down."""
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                          text=True, check=True)
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
    # nor fractions and decimal: the AB test cross-multiplies Python ints
    assert not {"leecodes.ring", "leecodes.charsums", "dataclasses", "fractions",
                "decimal"} & loaded


def test_verify_identities_loads_neither_fractions_nor_the_code_modules():
    # the closed forms are Python-int expressions over one Gauss integer
    loaded = _modules_loaded_by(_main_passes(["verify-identities", "--q", "3", "--m", "3"]))
    assert {"leecodes.charsums", "leecodes.gf"} <= loaded
    assert not {"fractions", "leecodes.codes", "leecodes.defining_set", "leecodes.spectra",
                "leecodes.sss", "leecodes.ring"} & loaded


def test_the_closed_route_loads_nothing_of_the_count():
    loaded = _modules_loaded_by("import leecodes.spectra")
    assert not {"leecodes.codes", "leecodes.defining_set", "leecodes.sss", "leecodes.ring",
                "leecodes.charsums"} & loaded


def _numpy_ran(loaded: set[str]) -> bool:
    """Whether numpy's own import ran, not only its lazy module (numpy 2 and 1)."""
    return bool({"numpy._core", "numpy.core"} & loaded)


@pytest.mark.parametrize("argv,status", [
    (["spectrum", "--q", "3", "--m", "21", "--mode", "closed"], 0),
    (["cwe", "--q", "3", "--m", "21", "--mode", "closed"], 0),
    (["spectrum", "--q", "3", "--m", "15", "--mode", "both"], 3),
    (["minimality", "--q", "3", "--m", "16"], 3),
    (["spectrum", "--q", "4", "--m", "3"], 2),
])
def test_a_run_that_builds_no_field_loads_no_numpy(argv, status):
    # closed, refused and invalid runs: numpy loads at a run's first field
    assert not _numpy_ran(_modules_loaded_by(_main_exits(argv, status)))


@pytest.mark.parametrize("argv", [
    ["spectrum", "--q", "3", "--m", "3", "--mode", "both"],
    ["cwe", "--q", "3", "--m", "3", "--mode", "both"],
    ["minimality", "--q", "3", "--m", "3"],
    ["verify-identities", "--q", "3", "--m", "3"],
    ["check-all", "--q", "3", "--m", "3"],
])
def test_a_command_compiles_its_modules_before_numpy(argv):
    # a run that builds a field loads numpy's core, and sys.modules keeps import
    # order: no leecodes module is imported after it
    code = _main_passes(argv) + (
        "import sys\n"
        "names = list(sys.modules)\n"
        "core = next(n for n in names if n in ('numpy._core', 'numpy.core'))\n"
        "print(*[n for n in names[names.index(core):] if n.startswith('leecodes')])\n")
    assert _fresh_stdout(code) == "\n"


def test_importing_the_numeric_modules_loads_no_numpy():
    loaded = _modules_loaded_by(
        "import leecodes.gf, leecodes.codes, leecodes.defining_set, leecodes.sss, "
        "leecodes.charsums, leecodes.ring")
    assert "leecodes.sss" in loaded and not _numpy_ran(loaded)


@pytest.mark.parametrize("first,then", [("numpy", "leecodes.gf"), ("leecodes.gf", "numpy")])
def test_leecodes_and_numpy_share_one_numpy(first, then):
    # numpy imported first is used as is; imported after, it is the lazy module,
    # loaded in place
    code = f"import {first}, {then}\nprint(leecodes.gf.np is numpy, numpy.ndarray.__name__)"
    assert _fresh_stdout(code) == "True ndarray\n"


def test_the_closed_route_checks_q_without_a_field():
    # the same error types as when it built F_q; 3.0 is refused as a non-int
    code = ("from leecodes import errors, spectra\n"
            "for q in (4, 9, 1, 3.0):\n"
            "    try:\n"
            "        spectra.cwe_closed(q, 3)\n"
            "    except errors.LeecodesError as exc:\n"
            "        print(type(exc).__name__)\n"
            "import sys\n"
            "print(sorted({'numpy._core', 'numpy.core'} & set(sys.modules)))\n")
    assert _fresh_stdout(code).split("\n") == [
        "EvenCharacteristicError", "NonPrimeError", "NonPrimeError", "DegreeError", "[]", ""]


@pytest.mark.parametrize("name", ["gf", "defining_set", "spectra", "codes", "sss", "charsums",
                                  "ring", "cli"])
def test_each_submodule_imports_alone(name):
    # no import cycle, e.g. through codes.gray_dimension's call-time import of sss
    assert f"leecodes.{name}" in _modules_loaded_by(f"import leecodes.{name}")


def test_public_names_resolve_to_their_submodules():
    for name in leecodes.__all__:
        module = importlib.import_module(f"leecodes.{leecodes._EXPORTS[name]}")
        assert getattr(leecodes, name) is getattr(module, name)
        assert getattr(module, name).__module__ == "leecodes." + leecodes._EXPORTS[name]
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
