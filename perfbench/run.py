"""Benchmark for leecodes: cold end-to-end passes, plus a traced per-layer run.

    python3 perfbench/run.py --workload enum-grid --seed 1 --seconds 30 --trace 0

Run from anywhere; the program under test is the ``src/`` next to this
directory.  A pass is what a user of the package waits for: fresh Python
processes importing ``leecodes`` from ``src/`` and running one workload's
checks to their last verdict.  Workloads (see ``WORKLOADS``):

    enum-grid    spectrum + cwe --mode both at (3,4) (5,3) (3,5) (7,3)
    identities   verify-identities at (3,3) (5,4) (7,3)
    field-build  fresh fields at (3,10) (5,6) (7,5), four identity checks each
    minimality   minimality at (3,4) (5,3) with the pairwise scan enabled

BENCHMARK.json declares enum-grid and minimality, which cover the enumeration,
thread-pool and sss paths.  identities and field-build are run by hand, so that
a comparison of two commits (some twenty runs per declared workload, and an
enum-grid run takes about a minute) stays under an hour.

``--trace 0`` runs passes, each after one set-up process, until the next
pass would end after ``--seconds`` (but at least ``MIN_PASSES``), tops the
set-ups up to 10 to 30, and reports medians (end-to-end metrics).
``--trace 1`` runs one plain and one traced pass of the named workload,
single-thread repeats of that pass's enumerations and ``verify-identities`` at
the field-build grid (``cli.skipped_checks``), and reports per-layer figures
from spans recorded in ``child.py``.  A layer the named workload does not touch
is read from traced passes of the other workloads on their tiny grids, so no
figure reads empty; the output names each figure taken that way.  ``--tiny``
swaps every grid for a tiny one (used by the smoke test).  The last stdout
line is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it give the environment, the samples behind each metric and
fail_ratio.

Children get ``LEECODES_*`` removed from their environment (those variables
override CLI defaults) and ``OPENBLAS_NUM_THREADS`` = ``OMP_NUM_THREADS`` =
``--threads`` = min(2, nproc).

A check fails when a verdict is not PASS (SKIPPED included), a process exits
nonzero, or a report differs byte-for-byte from the run's first report of the
same call.  fail_ratio = failed / attempted.  Exit status 2, without a result
line, when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
PY = sys.executable
# what the installed ``leecodes`` console script runs
CONSOLE_SCRIPT = [PY, "-s", "-c", "import sys; from leecodes.cli import main; sys.exit(main())"]

# one thread count for the CLI's --threads and for OpenBLAS, which numpy links
# and which would otherwise start a thread per core
THREADS = min(2, len(os.sched_getaffinity(0)))
MIN_PASSES = 3  # so the median and the byte-identity check have passes to compare
SETUP_REPS = (10, 30)  # at least 10 set-up processes, more while they total under 6 s
SETUP_SECONDS = 6.0
IMPORT_REPS = 3
CHILD_TIMEOUT_S = 170

# minimal nonzero codewords found by the exhaustive scan; the scan's verdict
# alone cannot fail when the Ashikhmin-Barg condition does not hold
MINIMAL_COUNT = {(3, 2): 72, (3, 3): 700, (3, 4): 6520, (5, 3): 15496}


@dataclass(frozen=True)
class Workload:
    commands: tuple[str, ...]  # CLI subcommands run at each grid point; () = library pass
    grid: tuple[tuple[int, int], ...]
    tiny: tuple[tuple[int, int], ...]
    budget: int
    defining_set: bool  # set-up also builds defining sets and dense tables


WORKLOADS = {
    # dense enumeration in codes dominates; q = 1 and 3 (mod 4), both parities of m
    "enum-grid": Workload(("spectrum", "cwe"), ((3, 4), (5, 3), (3, 5), (7, 3)),
                          ((3, 2), (3, 3)), 10**9, True),
    # charsums oracles dominate; (3,3) is exhaustive, the others seeded samples
    "identities": Workload(("verify-identities",), ((3, 3), (5, 4), (7, 3)),
                           ((3, 2), (3, 3)), 10**9, False),
    # per-element loops in gf dominate; all four checks are table-backed, so
    # none is refused above the dense-table limit
    "field-build": Workload((), ((3, 10), (5, 6), (7, 5)), ((3, 2), (3, 3)), 10**9, False),
    # the only workload where sss works; the default budget refuses the scan
    "minimality": Workload(("minimality",), ((3, 4), (5, 3)), ((3, 3),), 10**12, True),
}

LAYER_SPANS = (
    "gf.field_init_s", "gf.trace_array_s", "gf.trace_sq_array_s", "gf.dense_tables_s",
    "codes.defining_set_s", "codes.lee_brute_s", "codes.cwe_brute_s", "codes.closed_s",
    "codes.gray_dimension_s", "charsums.closed_s", "charsums.nested_oracle_s",
    "charsums.pair_oracle_s", "charsums.quadratic_oracle_s", "charsums.gauss_oracle_s",
    "charsums.count_oracle_s", "sss.scan_s",
)


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

@dataclass
class Proc:
    code: int
    out: str
    err: str
    wall: float
    rss_mb: float


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("LEECODES_")}
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(THREADS),
               OMP_NUM_THREADS=str(THREADS))
    return env


def spawn(argv: list[str]) -> Proc:
    """Run argv to completion from ROOT; wall time from launch to exit, peak RSS."""
    start = time.perf_counter()
    p = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    watchdog.start()
    err: list[str] = []
    reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
    reader.start()
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    reader.join()
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    return Proc(p.returncode, out, err[0], wall, usage.ru_maxrss / 1024)


def child(*args: str) -> list[str]:
    return [PY, "-s", str(CHILD), *args]


def last_json(proc: Proc) -> dict | None:
    lines = proc.out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if proc.code == 0 and lines else None
    except ValueError:
        return None


# ----------------------------------------------------------------------
# passes and checks
# ----------------------------------------------------------------------

@dataclass
class Call:
    key: tuple
    proc: Proc
    code: int  # the program's exit status
    report: str | None  # the program's own report text
    trace: dict | None = None


@dataclass
class Pass:
    wall: float
    calls: list[Call]

    @property
    def rss_mb(self) -> float:
        return max(c.proc.rss_mb for c in self.calls)


def cli_argv(cmd: str, q: int, m: int, wl: Workload, seed: int) -> list[str]:
    mode = ["--mode", "both"] if cmd in ("spectrum", "cwe") else []
    return [cmd, "--q", str(q), "--m", str(m), *mode, "--threads", str(THREADS),
            "--budget", str(wl.budget), "--seed", str(seed)]


def run_pass(wl: Workload, grid, seed: int, traced: bool) -> Pass:
    trace = ["--trace"] if traced else []
    jobs = []
    if wl.commands:
        for q, m in grid:
            for cmd in wl.commands:
                argv = cli_argv(cmd, q, m, wl, seed)
                cmdline = child(*trace, "cli", *argv) if traced else [*CONSOLE_SCRIPT, *argv]
                jobs.append(((cmd, q, m), cmdline))
    else:
        spec = json.dumps({"grid": grid})
        jobs.append((("field-build",), child(*trace, "field-build", spec)))
    start = time.perf_counter()
    procs = [(key, spawn(cmdline)) for key, cmdline in jobs]
    wall = time.perf_counter() - start
    calls = []
    for key, proc in procs:
        if traced or not wl.commands:
            result = last_json(proc) or {"exit": proc.code or 1}
            calls.append(Call(key, proc, result["exit"], result.get("report"), result.get("trace")))
        else:
            calls.append(Call(key, proc, proc.code, proc.out))
    return Pass(wall, calls)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{failed}/{attempted} failed: {what}")


def parse_report(call: Call) -> dict | None:
    try:
        report = json.loads(call.report)
        return report if isinstance(report.get("verdicts"), list) else None
    except (TypeError, ValueError, AttributeError):
        return None


def judge(tally: Tally, call: Call, reference: str | None) -> None:
    """Count one call's checks against its report and the run's first report."""
    what = " ".join(map(str, call.key))
    report = parse_report(call)
    if report is None:
        tally.add(1, 1, f"{what}: no report (exit {call.code}) {call.proc.err[-300:]}")
        return
    verdicts = report["verdicts"]
    bad = sum(v.get("status") != "PASS" for v in verdicts)
    if call.key[0] == "minimality":
        expected = MINIMAL_COUNT[call.key[1:]]
        bad += report["results"].get("minimal_count") != expected
        verdicts = verdicts + [{"check": "minimal-count"}]
    if call.code != 0:
        bad = len(verdicts)
    if call.trace is not None and call.trace["cache_hits"]:
        bad = len(verdicts)
        what += " (a timed enumeration returned a memoized spectrum)"
    if reference is not None and call.report != reference:
        bad = len(verdicts)
        what += " (report differs from the run's first)"
    tally.add(max(1, len(verdicts)), min(bad, max(1, len(verdicts))), what)


def judge_pass(tally: Tally, p: Pass, references: dict) -> None:
    for call in p.calls:
        judge(tally, call, references.setdefault(call.key, call.report))


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------

def setup_proc(wl: Workload, grid) -> Proc:
    spec = {"grid": grid, "defining_set": wl.defining_set, "budget": wl.budget}
    return spawn(child("setup", json.dumps(spec)))


def end_to_end(wl: Workload, grid, seed: int, seconds: float, tally: Tally) -> dict:
    # set-ups interleave with the passes, so both sample the same stretch of time
    setups: list[Proc] = []
    passes: list[Pass] = []
    references: dict = {}
    start = time.perf_counter()
    while True:
        setups.append(setup_proc(wl, grid))
        p = run_pass(wl, grid, seed, traced=False)
        judge_pass(tally, p, references)
        passes.append(p)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + p.wall > seconds:
            break
    while len(setups) < SETUP_REPS[0] or (
        len(setups) < SETUP_REPS[1] and sum(p.wall for p in setups) < SETUP_SECONDS
    ):
        setups.append(setup_proc(wl, grid))
    tally.add(len(setups), sum(p.code != 0 for p in setups), "set-up process")
    print(f"verify_s: median of {len(passes)} pass(es) {[round(p.wall, 3) for p in passes]}; "
          f"setup_s: median of {len(setups)} processes {[round(p.wall, 3) for p in setups]}; "
          f"peak_rss_mb: median over passes of the largest child ru_maxrss")
    return {
        "setup_s": (statistics.median(p.wall for p in setups), "s"),
        "verify_s": (statistics.median(p.wall for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
    }


def layer_figures(traces: list[dict]) -> dict:
    """Per-layer figures summed over the traces of a set of traced processes."""
    self_s = {k: sum(t["self_s"].get(k, 0.0) for t in traces) for k in LAYER_SPANS}
    steps = sum(e["steps"] for t in traces for e in t["enumerations"])
    brute_s = self_s["codes.lee_brute_s"] + self_s["codes.cwe_brute_s"]
    figures = {k: (v, "s") for k, v in self_s.items()}
    figures.update({
        "gf.dense_table_mb": (max((t["dense_table_mb"] for t in traces), default=0.0), "MB"),
        "codes.defining_set_n": (sum(t["defining_set_n"] for t in traces), "count"),
        "codes.enum_steps": (steps, "count"),
        "codes.enum_steps_per_s": (steps / brute_s if brute_s else 0.0, "1/s"),
        "charsums.oracle_calls": (sum(t["oracle_calls"] for t in traces), "count"),
    })
    return figures


def per_layer(name: str, seed: int, tiny: bool, tally: Tally) -> dict:
    imports = [spawn([PY, "-s", "-c", "import leecodes.cli"]) for _ in range(IMPORT_REPS)]
    tally.add(len(imports), sum(p.code != 0 for p in imports), "import process")

    wl = WORKLOADS[name]
    grid = wl.tiny if tiny else wl.grid
    plain = run_pass(wl, grid, seed, traced=False)
    traced = run_pass(wl, grid, seed, traced=True)
    references: dict = {}
    judge_pass(tally, plain, references)
    judge_pass(tally, traced, references)  # tracing must not change a report
    # the layers this workload leaves untouched are read from tiny traced passes
    # of the others, so that no figure reads empty
    fill_calls = []
    for other_name, other in WORKLOADS.items():
        if other_name != name:
            p = run_pass(other, other.tiny, seed, traced=True)
            judge_pass(tally, p, {})
            fill_calls += p.calls
    own = [c.trace for c in traced.calls if c.trace is not None]
    fill = [c.trace for c in fill_calls if c.trace is not None]
    own_figures, fill_figures = layer_figures(own), layer_figures(fill)
    filled = [k for k, (v, _) in own_figures.items() if not v]
    metrics = {k: fill_figures[k] if k in filled else v for k, v in own_figures.items()}

    # the single-thread baseline repeats the enumerations whose spans gave
    # codes.{route}_brute_s, so each ratio compares the same work
    enumerations = []
    for route in ("lee", "cwe"):
        source = fill if f"codes.{route}_brute_s" in filled else own
        enumerations += [e for t in source for e in t["enumerations"] if e["route"] == route]
        if source is fill:
            filled.append(f"codes.{route}_brute_1t_s")
    spec = {"enumerations": enumerations, "budget": 10**12}
    base = last_json(spawn(child("baseline", json.dumps(spec))))
    if base is None:
        tally.add(1, 1, "single-thread baseline process")
        base = {"lee_1t_s": 0.0, "cwe_1t_s": 0.0, "verdicts": []}
    bad = sum(v["status"] != "PASS" for v in base["verdicts"])
    tally.add(len(base["verdicts"]), bad, "single-thread enumeration vs closed form")

    # the dense-table refusal stays visible here, outside the end-to-end metrics:
    # a refusal probe may report SKIPPED, only a FAIL or a missing report counts
    fb = WORKLOADS["field-build"]
    probe = Workload(("verify-identities",), fb.grid, fb.tiny, fb.budget, False)
    probes = run_pass(probe, fb.tiny if tiny else fb.grid, seed, traced=False).calls
    for c in probes:
        report = parse_report(c)
        done = [v for v in report["verdicts"] if v.get("status") != "SKIPPED"] if report else []
        bad = sum(v.get("status") != "PASS" for v in done) + (report is None)
        tally.add(len(done) + (report is None), bad, f"refusal probe {' '.join(map(str, c.key))}")
    skipped = sum(v.get("status") == "SKIPPED" for c in traced.calls + probes
                  for v in (parse_report(c) or {"verdicts": []})["verdicts"])

    metrics.update({
        "codes.lee_brute_1t_s": (base["lee_1t_s"], "s"),
        "codes.cwe_brute_1t_s": (base["cwe_1t_s"], "s"),
        "cli.import_s": (statistics.median(p.wall for p in imports), "s"),
        "cli.skipped_checks": (skipped, "count"),
        "trace.overhead_s": (traced.wall - plain.wall, "s"),
    })
    print(f"per-layer: summed over one traced pass of {name} ({len(own)} processes); "
          f"codes.* enumerations at {THREADS} thread(s) unless named _1t; gf.dense_table_mb "
          f"computed from array nbytes; cli.import_s median of {IMPORT_REPS} processes; "
          f"trace.overhead_s = traced pass - plain pass, one each")
    print(f"per-layer: {name} leaves these untouched, read from tiny traced passes of "
          f"{', '.join(w for w in WORKLOADS if w != name)}: {', '.join(filled) or 'none'}")
    return metrics


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def environment(seed: int) -> dict | None:
    info = last_json(spawn(child("env")))
    if info is None or Path(info["leecodes"]).resolve().parent != SRC / "leecodes":
        return None
    try:  # a checkout without git history records no commit
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    info.update(nproc=len(os.sched_getaffinity(0)), threads=THREADS, seed=seed, commit=commit)
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny grids, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "leecodes" / "__init__.py").is_file():
        print(f"error: no leecodes package under {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed)  # also compiles the package once, untimed
    if env is None:
        print(f"error: cannot import leecodes from {SRC}", file=sys.stderr)
        return 2
    print("env: " + json.dumps(env, sort_keys=True))

    wl = WORKLOADS[args.workload]
    tally = Tally()
    if args.trace:
        metrics = per_layer(args.workload, args.seed, args.tiny, tally)
    else:
        grid = wl.tiny if args.tiny else wl.grid
        metrics = end_to_end(wl, grid, args.seed, args.seconds, tally)
    for note in tally.notes:
        print(f"check: {note}")
    for k, (v, unit) in metrics.items():
        print(f"{args.workload} {k} = {v} {unit}")
    print(f"{args.workload} fail_ratio = {tally.failed / max(tally.attempted, 1)} "
          f"({tally.failed} of {tally.attempted} checks)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
