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
load sss or ring), and calls them through the module (codes.cwe_closed, not
a bound name) so that replacing a module attribute reaches the CLI too.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import gc
import io
import json
import os
import random
import sys
import tempfile
import time
from dataclasses import dataclass

from ._budget import DEFAULT_OPS_BUDGET
from .errors import BudgetExceededError, DegenerateSpectrumError, LeecodesError

ENV_PREFIX = "LEECODES_"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

MIN_BUDGET = 10**6
FORMATS = ("json", "csv", "human")


@dataclass
class RunConfig:
    q: int
    m: int
    budget: int
    threads: int
    output_format: str
    seed: int
    mode: str = "both"
    out: str | None = None
    timing: bool = False


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

    common(sub.add_parser("verify-identities", help="closed-form vs oracle for every identity"))
    common(sub.add_parser("spectrum", help="Lee-weight distribution"), with_mode=True)
    common(sub.add_parser("cwe", help="complete weight enumerator"), with_mode=True)
    common(sub.add_parser("minimality", help="minimal-codeword analysis"))
    common(sub.add_parser("check-all", help="every check for one parameter set"), with_mode=True)
    return parser


def _config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
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
    return RunConfig(
        q=args.q,
        m=args.m,
        budget=args.budget,
        threads=args.threads,
        output_format=args.output_format,
        seed=args.seed,
        mode=getattr(args, "mode", "both"),
        out=args.out,
        timing=args.timing,
    )


# ----------------------------------------------------------------------
# check runners: each returns verdict dicts (check/status[/detail])
# ----------------------------------------------------------------------

def _sample_pairs(field, rng: random.Random, count: int) -> list[tuple[int, int, int]]:
    out = []
    for _ in range(count):
        out.append(
            (
                rng.randrange(1, field.order),
                rng.randrange(1, field.order),
                rng.randrange(1, field.q),
            )
        )
    return out


def _identity_checks(cfg: RunConfig) -> list[dict]:
    from . import charsums, gf

    f = gf.make_field(cfg.q, cfg.m)
    rng = random.Random(cfg.seed)
    q = f.q
    results = []

    def run(name: str, pairs_iter, closed_fn, oracle_fn) -> None:
        try:
            for params in pairs_iter:
                c = closed_fn(*params)
                o = oracle_fn(*params)
                if isinstance(c, complex) or isinstance(o, complex):
                    ok = abs(c - o) <= 1e-6 * max(1.0, abs(o))
                else:
                    ok = c == o
                if not ok:
                    results.append(
                        {"check": name, "status": "FAIL",
                         "counterexample": list(params), "closed": repr(c), "oracle": repr(o)}
                    )
                    return
            results.append({"check": name, "status": "PASS"})
        except BudgetExceededError as exc:
            results.append({"check": name, "status": "SKIPPED", "reason": str(exc)})

    run(
        "gauss-sum",
        [("extension",), ("base",)],
        lambda lvl: charsums.gauss_sum_closed(f, lvl).embedding,
        lambda lvl: charsums.gauss_sum_oracle(f, lvl, budget=cfg.budget),
    )
    quad_params = [(rng.randrange(1, f.order), rng.randrange(f.order), rng.randrange(f.order))
                   for _ in range(20)]
    run(
        "quadratic-sum",
        quad_params,
        lambda b2, b1, b0: charsums.quadratic_sum(f, b2, b1, b0, mode="closed"),
        lambda b2, b1, b0: charsums.quadratic_sum(f, b2, b1, b0, mode="oracle", budget=cfg.budget),
    )
    run(
        "square-trace-count",
        [(s,) for s in range(q)],
        lambda s: charsums.square_trace_count(f, s).value,
        lambda s: charsums.square_trace_count(f, s, mode="oracle", budget=cfg.budget).value,
    )
    run(
        "single-character-sum",
        [(s,) for s in range(q)],
        lambda s: charsums.square_trace_char_sum(f, s),
        lambda s: charsums.square_trace_char_sum(f, s, mode="oracle", budget=cfg.budget),
    )
    run(
        "pair-trace-count",
        [(s, t) for s in range(q) for t in range(q)],
        lambda s, t: charsums.square_trace_pair_count(f, s, t).value,
        lambda s, t: charsums.square_trace_pair_count(f, s, t, mode="oracle", budget=cfg.budget).value,
    )

    exhaustive = f.order <= 27
    if exhaustive:
        single = [(b, lam) for b in range(1, f.order) for lam in range(1, q)]
        pairs = [(a, b, lam) for a in range(1, f.order) for b in range(1, f.order)
                 for lam in range(1, q)]
        pair_count_params = [(a, b, lam) for a in range(f.order) for b in range(f.order)
                       for lam in range(1, q)]
    else:
        sampled = _sample_pairs(f, rng, 100)
        single = [(b, lam) for (_, b, lam) in sampled]
        pairs = sampled
        pair_count_params = sampled + [(0, b, lam) for (_, b, lam) in sampled[:20]]

    for kind in ("single", "split"):
        run(
            f"nested-sum-{kind}",
            single,
            lambda b, lam, k=kind: charsums.nested_char_sum(f, k, b, lam),
            lambda b, lam, k=kind: charsums.nested_char_sum(f, k, b, lam, mode="oracle", budget=cfg.budget),
        )
    run(
        "nested-sum-coupled",
        pairs,
        lambda a, b, lam: charsums.nested_char_sum(f, "coupled", b, lam, alpha=a),
        lambda a, b, lam: charsums.nested_char_sum(f, "coupled", b, lam, alpha=a, mode="oracle", budget=cfg.budget),
    )
    run(
        "zero-trace-pair-count",
        pair_count_params,
        lambda a, b, lam: charsums.zero_trace_pair_count(f, a, b, lam).value,
        lambda a, b, lam: charsums.zero_trace_pair_count(f, a, b, lam, mode="oracle", budget=cfg.budget).value,
    )
    return results


def _spectrum_results(cfg: RunConfig) -> tuple[list[dict], dict]:
    from . import codes, gf

    results: dict = {}
    verdicts = []
    closed = brute = None
    if cfg.mode in ("closed", "both"):
        closed = codes.lee_spectrum_closed(cfg.q, cfg.m)
        results["closed"] = closed.records()
    if cfg.mode in ("brute", "both"):
        D = codes.build_defining_set(gf.make_field(cfg.q, cfg.m), budget=cfg.budget)
        brute = codes.lee_spectrum_bruteforce(D, budget=cfg.budget, threads=cfg.threads)
        results["brute"] = brute.records()
        results["defining_set_size"] = len(D)
    if cfg.mode == "both":
        ok = closed.entries == brute.entries
        verdicts.append({"check": "lee-closed-vs-brute", "status": "PASS" if ok else "FAIL"})
    return verdicts, results


def _cwe_results(cfg: RunConfig) -> tuple[list[dict], dict]:
    from . import codes, gf

    results: dict = {}
    verdicts = []
    closed = brute = None
    if cfg.mode in ("closed", "both"):
        closed = codes.cwe_closed(cfg.q, cfg.m)
        results["closed"] = closed.records()
    if cfg.mode in ("brute", "both"):
        D = codes.build_defining_set(gf.make_field(cfg.q, cfg.m), budget=cfg.budget)
        brute = codes.cwe_bruteforce(D, budget=cfg.budget, threads=cfg.threads)
        results["brute"] = brute.records()
    if cfg.mode == "both":
        ok = closed.entries == brute.entries
        verdicts.append({"check": "cwe-closed-vs-brute", "status": "PASS" if ok else "FAIL"})
    return verdicts, results


def _minimality_results(cfg: RunConfig) -> tuple[list[dict], dict]:
    from . import codes, gf, sss

    spectrum = codes.lee_spectrum_closed(cfg.q, cfg.m)
    try:
        report = sss.ab_check(spectrum, cfg.q)
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
    results["module_generators"] = cfg.m
    # ab_holds is a finding, not a check; the verifiable check is soundness:
    # whenever the ratio condition holds, the exhaustive scan must agree.
    verdicts = []
    try:
        D = codes.build_defining_set(gf.make_field(cfg.q, cfg.m), budget=cfg.budget)
        count, all_min = sss.minimal_codewords_exhaustive(D, budget=cfg.budget)
        results["minimal_count"] = count
        results["all_minimal"] = all_min
        sound = report is None or not report.ab_holds or all_min
        verdicts.append({"check": "ab-soundness", "status": "PASS" if sound else "FAIL"})
        results["gray_rank"] = codes.gray_rank(D)
    except BudgetExceededError as exc:
        results["exhaustive_scan"] = f"SKIPPED: {exc}"
        verdicts.append({"check": "ab-soundness", "status": "SKIPPED", "reason": str(exc)})
    return verdicts, results


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def _render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _render_csv(payload: dict) -> str:
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
    cfg = _config(args, parser)

    started = time.monotonic()
    try:
        if args.command == "verify-identities":
            verdicts = _identity_checks(cfg)
            results = {}
        elif args.command == "spectrum":
            verdicts, results = _spectrum_results(cfg)
        elif args.command == "cwe":
            verdicts, results = _cwe_results(cfg)
        elif args.command == "minimality":
            verdicts, results = _minimality_results(cfg)
        else:  # check-all
            verdicts = _identity_checks(cfg)
            v1, r1 = _spectrum_results(cfg)
            v2, r2 = _cwe_results(cfg)
            v3, r3 = _minimality_results(cfg)
            verdicts += v1 + v2 + v3
            results = {"spectrum": r1, "cwe": r2, "minimality": r3}
    except BudgetExceededError as exc:
        payload = {
            "command": args.command,
            "params": _params_dict(cfg),
            "results": {},
            "verdicts": [{"check": args.command, "status": "SKIPPED", "reason": str(exc)}],
            "timing": None,
        }
        _write_output(_render(payload, cfg), cfg.out)
        return EXIT_BUDGET
    except LeecodesError as exc:
        parser.exit(EXIT_USAGE, f"error: {exc}\n")

    elapsed_ms = int((time.monotonic() - started) * 1000)
    payload = {
        "command": args.command,
        "params": _params_dict(cfg),
        "results": results,
        "verdicts": verdicts,
        "timing": {"elapsed_ms": elapsed_ms} if cfg.timing else None,
    }
    _write_output(_render(payload, cfg), cfg.out)

    if any(v.get("status") == "FAIL" for v in verdicts):
        return EXIT_FAIL
    if any(v.get("status") == "SKIPPED" for v in verdicts):
        return EXIT_BUDGET
    return EXIT_PASS


def _params_dict(cfg: RunConfig) -> dict:
    return {
        "q": cfg.q,
        "m": cfg.m,
        "mode": cfg.mode,
        "budget": cfg.budget,
        "threads": cfg.threads,
        "seed": cfg.seed,
    }


def _render(payload: dict, cfg: RunConfig) -> str:
    if cfg.output_format == "json":
        return _render_json(payload)
    if cfg.output_format == "csv":
        return _render_csv(payload)
    return _render_human(payload)


if __name__ == "__main__":
    sys.exit(main())
