"""Command-line surface: identity verification, spectra, CWE, and minimality.

Exit status contract: 0 = every requested check passed, 1 = at least one
check failed, 2 = usage/parameter error, 3 = enumeration budget exceeded.
JSON output is byte-deterministic for a fixed configuration and seed; wall
times are reported only when --timing is passed (the timing field stays
null otherwise so that repeated runs are byte-identical).

A cold run's time goes mostly to start-up, not to the mathematics: the
interpreter, numpy, and compiling the leecodes modules (a spectrum or CWE
at the benchmark grid counts in a few ms).  So this module imports the
numeric submodules inside the runners that use them (spectrum and cwe never
load sss or ring), and looks their functions up on the module at call time
(codes.cwe_closed, not a bound name) so that replacing a module attribute
reaches the CLI too.  The runners never call one count from the other: the
one count runner calls codes.lee_spectrum_bruteforce for spectrum and
codes.cwe_bruteforce for cwe, and the two share one cached count in codes.

One table, RUNNERS, maps each command to its runner, and check-all runs them
all in order.  Each runner takes args and a function that returns the one
defining set of the main() call, built on first use, and returns (verdicts,
results); a run refused by the budget reports a single SKIPPED verdict
instead, and exits 3.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import io
import json
import os
import random
import sys
import tempfile
import time

from ._budget import DEFAULT_OPS_BUDGET, check_budget
from .errors import BudgetExceededError, DegenerateSpectrumError, LeecodesError

ENV_PREFIX = "LEECODES_"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

MIN_BUDGET = 10**6
FORMATS = ("json", "csv", "human")


def _env_default(name: str, fallback, cast):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        return fallback


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leecodes",
        description="Spectra and verification suites for the zero-trace code over F_q + uF_q (u^2 = 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_mode: bool = False) -> None:
        p.add_argument("--q", type=int, required=True, help="odd prime field characteristic")
        p.add_argument("--m", type=int, required=True, help="extension degree")
        p.add_argument(
            "--budget", type=int,
            default=_env_default("BUDGET", DEFAULT_OPS_BUDGET, int),
            help="cap on elementary enumeration steps (>= 10^6)",
        )
        p.add_argument(
            "--threads", type=int,
            default=_env_default("THREADS", os.cpu_count() or 1, int),
            help="accepted for compatibility and echoed in params; ignored, since "
                 "enumeration runs in one thread",
        )
        p.add_argument(
            "--format", dest="output_format",
            choices=FORMATS,
            default=_env_default("FORMAT", "json", str),
        )
        p.add_argument("--seed", type=int, default=_env_default("SEED", 0, int),
                       help="seed for sampled parameter tuples")
        p.add_argument("--out", type=str, default=None, help="write output to this path (atomic)")
        p.add_argument("--timing", action="store_true", help="include wall times in the report")
        if with_mode:
            p.add_argument("--mode", choices=("closed", "brute", "both"), default="both")
        else:
            p.set_defaults(mode="both")  # echoed in params

    common(sub.add_parser("verify-identities", help="closed-form vs oracle for every identity"))
    common(sub.add_parser("spectrum", help="Lee-weight distribution"), with_mode=True)
    common(sub.add_parser("cwe", help="complete weight enumerator"), with_mode=True)
    common(sub.add_parser("minimality", help="minimal-codeword analysis"))
    common(sub.add_parser("check-all", help="every check for one parameter set"), with_mode=True)
    return parser


def _validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Exit as a usage error unless args is a valid configuration."""
    from .gf import _is_prime

    if args.q < 3 or not _is_prime(args.q):
        parser.error(f"--q must be an odd prime, got {args.q}")
    if args.m < 1:
        parser.error(f"--m must be >= 1, got {args.m}")
    # minimality and check-all always read the closed Lee table, spectrum and cwe
    # unless --mode brute
    uses_closed = args.command in ("minimality", "check-all") or (
        args.command in ("spectrum", "cwe") and args.mode != "brute")
    if args.m == 1 and uses_closed:
        parser.error(f"{args.command} needs the closed-form tables, which need --m >= 2 "
                     "(spectrum and cwe run at m = 1 with --mode brute)")
    if args.budget < MIN_BUDGET:
        parser.error(f"--budget must be >= {MIN_BUDGET}")
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    if args.output_format not in FORMATS:  # argparse checks choices on argv, not on defaults
        parser.error(f"--format must be one of {', '.join(FORMATS)}, got {args.output_format!r}")
    if args.out is not None:
        directory = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(directory):
            parser.error(f"--out directory does not exist: {directory}")


# ----------------------------------------------------------------------
# check runners: each returns verdict dicts (check/status[/detail])
# ----------------------------------------------------------------------

def _identity_results(args: argparse.Namespace, defining_set) -> tuple[list[dict], dict]:
    """Each identity's closed form against its exhaustive oracle.

    One row per check: (name, charsums function, parameter tuples).  A row's
    function is called as fn(f, *params) and fn(f, *params, mode="oracle",
    budget=...); the tuples are every one at q^m <= 27 and seeded samples above.
    """
    from . import charsums, gf

    # every oracle reads all q^m elements, so none runs past this; refuse
    # before the field is built
    check_budget(args.q**args.m, args.budget, "identity oracle scan")
    f = gf.make_field(args.q, args.m)
    rng = random.Random(args.seed)
    q, n = f.q, f.order

    def nested(kind):
        def fn(f, *params, **kwargs):  # (b, lam) or (a, b, lam) -> alpha = a
            *alpha, b, lam = params
            return charsums.nested_char_sum(f, kind, b, lam, *alpha, **kwargs)
        return fn

    quadratic = [(rng.randrange(1, n), rng.randrange(n), rng.randrange(n)) for _ in range(20)]
    if n <= 27:
        singles = [(b, lam) for b in range(1, n) for lam in range(1, q)]
        triples = [(a, *p) for a in range(1, n) for p in singles]
        pair_count = [(a, b, lam) for a in range(n) for b in range(n) for lam in range(1, q)]
    else:
        triples = [(rng.randrange(1, n), rng.randrange(1, n), rng.randrange(1, q))
                   for _ in range(100)]
        singles = [p[1:] for p in triples]
        pair_count = triples + [(0, *p[1:]) for p in triples[:20]]
    residues = [(s,) for s in range(q)]
    checks = [
        ("gauss-sum", charsums.gauss_sum, [("extension",), ("base",)]),
        ("quadratic-sum", charsums.quadratic_sum, quadratic),
        ("square-trace-count", charsums.square_trace_count, residues),
        ("single-character-sum", charsums.square_trace_char_sum, residues),
        ("pair-trace-count", charsums.square_trace_pair_count,
         [(s, t) for s in range(q) for t in range(q)]),
        ("nested-sum-single", nested("single"), singles),
        ("nested-sum-split", nested("split"), singles),
        ("nested-sum-coupled", nested("coupled"), triples),
        ("zero-trace-pair-count", charsums.zero_trace_pair_count, pair_count),
    ]

    def plain(value):
        """A count's value, a Gauss sum's complex embedding, anything else as is."""
        if isinstance(value, charsums.CountResult):
            return value.value
        return value.embedding if isinstance(value, gf.GaussValue) else value

    verdicts = []
    for name, fn, cases in checks:
        verdict = {"check": name, "status": "PASS"}
        try:
            for params in cases:
                c = plain(fn(f, *params))
                o = plain(fn(f, *params, mode="oracle", budget=args.budget))
                if isinstance(c, complex) or isinstance(o, complex):
                    ok = abs(c - o) <= 1e-6 * max(1.0, abs(o))
                else:
                    ok = c == o
                if not ok:
                    verdict = {"check": name, "status": "FAIL", "counterexample": list(params),
                               "closed": repr(c), "oracle": repr(o)}
                    break
        except BudgetExceededError as exc:
            verdict = {"check": name, "status": "SKIPPED", "reason": str(exc)}
        verdicts.append(verdict)
    return verdicts, {}


def _count_results(args: argparse.Namespace, defining_set, route: str, closed_fn: str,
                   count_fn: str) -> tuple[list[dict], dict]:
    """Closed form vs count for one route; closed_fn and count_fn name codes functions."""
    from . import codes

    results: dict = {}
    verdicts = []
    if args.mode != "brute":
        closed = getattr(codes, closed_fn)(args.q, args.m)
        results["closed"] = closed.records()
    if args.mode != "closed":
        # refuse past the reach from q and m alone, before the field is built
        codes._check_scan_budget(args.q, args.m, args.budget)
        codes._check_count_budget(args.q, args.m, args.budget, route)
        D = defining_set()
        brute = getattr(codes, count_fn)(D, budget=args.budget, threads=args.threads)
        results["brute"] = brute.records()
        if route == "lee":
            results["defining_set_size"] = len(D)
    if args.mode == "both":
        ok = closed.entries == brute.entries
        verdicts.append({"check": f"{route}-closed-vs-brute", "status": "PASS" if ok else "FAIL"})
    return verdicts, results


def _minimality_results(args: argparse.Namespace, defining_set) -> tuple[list[dict], dict]:
    from . import codes, sss

    spectrum = codes.lee_spectrum_closed(args.q, args.m)
    try:
        report = sss.ab_check(spectrum, args.q)
    except DegenerateSpectrumError:
        # an empty defining set (every m = 2, q = 1 mod 4) gives the zero code:
        # there is no weight ratio to test, but the scan still runs
        report = None
        results = {"degenerate": True}
    else:
        results = {
            "w_min": report.w_min,
            "w_max": report.w_max,
            "ab_ratio": [report.ab_ratio.numerator, report.ab_ratio.denominator],
            "ab_threshold": [report.ab_threshold.numerator, report.ab_threshold.denominator],
            "ab_holds": report.ab_holds,
        }
    results["module_generators"] = args.m
    # ab_holds is a finding, not a check; the verifiable check is soundness:
    # whenever the ratio condition holds, the exhaustive scan must agree.
    verdicts = []
    try:
        # refuse past the reach from q, m and |D| alone, before the field is built
        codes._check_scan_budget(args.q, args.m, args.budget)
        sss._check_rank_budget(args.q, args.m, codes.gray_image_length(args.q, args.m) // 2,
                               args.budget)
        D = defining_set()
        count, all_min = sss.minimal_codewords_exhaustive(D, budget=args.budget)
        results["minimal_count"] = count
        results["all_minimal"] = all_min
        sound = report is None or not report.ab_holds or all_min
        verdicts.append({"check": "ab-soundness", "status": "PASS" if sound else "FAIL"})
        results["gray_rank"] = codes.gray_rank(D)
    except BudgetExceededError as exc:
        results["exhaustive_scan"] = f"SKIPPED: {exc}"
        verdicts.append({"check": "ab-soundness", "status": "SKIPPED", "reason": str(exc)})
    return verdicts, results


def _defining_set_once(args: argparse.Namespace):
    """A function that builds the defining set of (q, m) on its first call and
    returns that D after, so check-all's runners share one build and one cached
    count; each main() call gets its own."""
    @functools.cache
    def defining_set():
        from . import codes, gf

        return codes.build_defining_set(gf.make_field(args.q, args.m), budget=args.budget)
    return defining_set


RUNNERS = {
    "verify-identities": _identity_results,
    "spectrum": lambda args, D: _count_results(args, D, "lee", "lee_spectrum_closed",
                                               "lee_spectrum_bruteforce"),
    "cwe": lambda args, D: _count_results(args, D, "cwe", "cwe_closed", "cwe_bruteforce"),
    "minimality": _minimality_results,
}


def _check_all(args: argparse.Namespace, defining_set) -> tuple[list[dict], dict]:
    verdicts, results = [], {}
    for command, runner in RUNNERS.items():
        v, results[command] = runner(args, defining_set)
        verdicts += v
    del results["verify-identities"]  # it reports verdicts only
    return verdicts, results


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def _render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _render_csv(payload: dict) -> str:
    import csv  # only a csv report loads it

    buf = io.StringIO()
    writer = csv.writer(buf)
    results = payload["results"]
    wrote = False
    for key in ("closed", "brute"):
        table = results.get(key)
        if not isinstance(table, list):
            continue
        for rec in table:
            if "weight" in rec:
                if not wrote:
                    writer.writerow(["kind", "weight", "multiplicity"])
                    wrote = True
                writer.writerow([key, rec["weight"], rec["multiplicity"]])
            else:
                if not wrote:
                    writer.writerow(["kind", "composition", "multiplicity"])
                    wrote = True
                writer.writerow([key, " ".join(map(str, rec["composition"])), rec["multiplicity"]])
    if not wrote:
        writer.writerow(["check", "status"])
        for v in payload["verdicts"]:
            writer.writerow([v.get("check"), v.get("status")])
    return buf.getvalue()


def _render_human(payload: dict) -> str:
    lines = [f"command: {payload['command']}  params: {payload['params']}"]
    results = payload["results"]
    for key in ("closed", "brute"):
        table = results.get(key)
        if not isinstance(table, list):
            continue
        lines.append(f"-- {key} --")
        if table and "weight" in table[0]:
            lines.append(f"{'weight':>10}  {'multiplicity':>14}")
            for rec in table:
                lines.append(f"{rec['weight']:>10}  {rec['multiplicity']:>14}")
        else:
            for rec in table:
                comp = ",".join(map(str, rec["composition"]))
                lines.append(f"  ({comp}) x {rec['multiplicity']}")
    for key, val in results.items():
        if key in ("closed", "brute"):
            continue
        lines.append(f"{key}: {val}")
    for v in payload["verdicts"]:
        extra = "" if v.get("status") == "PASS" else f"  {v}"
        lines.append(f"[{v.get('status')}] {v.get('check')}{extra}")
    return "\n".join(lines) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".leecodes-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_freeze_at_exit = False


def main(argv: list[str] | None = None) -> int:
    global _freeze_at_exit
    if not _freeze_at_exit:
        # the OS frees the heap at exit; a frozen heap spares finalization a full collection
        atexit.register(gc.freeze)
        _freeze_at_exit = True
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)

    started = time.monotonic()
    runner = _check_all if args.command == "check-all" else RUNNERS[args.command]
    try:
        verdicts, results = runner(args, _defining_set_once(args))
        timing = {"elapsed_ms": int((time.monotonic() - started) * 1000)} if args.timing else None
    except BudgetExceededError as exc:
        results = {}
        verdicts = [{"check": args.command, "status": "SKIPPED", "reason": str(exc)}]
        timing = None
    except LeecodesError as exc:
        parser.exit(EXIT_USAGE, f"error: {exc}\n")

    payload = {
        "command": args.command,
        "params": {key: getattr(args, key) for key in ("q", "m", "mode", "budget", "threads", "seed")},
        "results": results,
        "verdicts": verdicts,
        "timing": timing,
    }
    _write_output(_render(payload, args.output_format), args.out)

    if any(v.get("status") == "FAIL" for v in verdicts):
        return EXIT_FAIL
    if any(v.get("status") == "SKIPPED" for v in verdicts):
        return EXIT_BUDGET
    return EXIT_PASS


def _render(payload: dict, output_format: str) -> str:
    if output_format == "json":
        return _render_json(payload)
    if output_format == "csv":
        return _render_csv(payload)
    return _render_human(payload)


if __name__ == "__main__":
    sys.exit(main())
