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
(codes.cwe_closed, which codes imports from spectra, not a bound name) so
that replacing a module attribute reaches the CLI too.  numpy loads at a
run's first field (gf.make_field), so each runner imports its modules before
it builds one, and check-all imports codes and sss before its first runner
builds the field: every module a run needs is compiled before numpy, and a
closed, refused or invalid run never loads numpy.  The runners never
call one count from the other: the one count runner calls
codes.lee_spectrum_bruteforce for spectrum and codes.cwe_bruteforce for cwe,
and the two share one cached count in codes.

One table, RUNNERS, maps each command to its runner, and check-all runs them
all in order.  Each runner takes args and a function that returns the one
defining set of the main() call, built on first use, and returns (verdicts,
results).  A route the budget refuses is one SKIPPED verdict carrying its
price (_skipped), beside every result that ran, and the run exits 3.
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

from .errors import (DEFAULT_OPS_BUDGET, BudgetExceededError, DegenerateSpectrumError,
                     LeecodesError, NonIntegralExponentError, NonIntegralValueError, check_budget)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

MIN_BUDGET = 10**6
FORMATS = ("json", "csv", "human")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leecodes",
        description="Spectra and verification suites for the zero-trace code over F_q + uF_q (u^2 = 1).",
        epilog="commands:\n"
               "  verify-identities  closed-form vs oracle for every identity\n"
               "  spectrum           Lee-weight distribution\n"
               "  cwe                complete weight enumerator\n"
               "  minimality         minimal-codeword analysis\n"
               "  check-all          every check for one parameter set",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=[*RUNNERS, "check-all"], metavar="command",
                        help="one of the commands below")
    parser.add_argument("--q", type=int, required=True, help="odd prime field characteristic")
    parser.add_argument("--m", type=int, required=True, help="extension degree")
    parser.add_argument("--budget", type=int, default=DEFAULT_OPS_BUDGET,
                        help="cap on elementary enumeration steps (>= 10^6)")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility and echoed in params; ignored, since "
             "enumeration runs in one thread",
    )
    parser.add_argument("--format", dest="output_format", choices=FORMATS, default="json")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled parameter tuples")
    parser.add_argument("--out", type=str, default=None, help="write output to this path (atomic)")
    parser.add_argument("--timing", action="store_true", help="include wall times in the report")
    parser.add_argument("--mode", choices=("closed", "brute", "both"), default=None,
                        help="spectrum, cwe and check-all only (default: both)")
    return parser


def _validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Exit as a usage error unless args is a valid configuration."""
    from .gf import _is_prime

    if args.mode is None:
        args.mode = "both"  # echoed in params
    elif args.command not in ("spectrum", "cwe", "check-all"):
        parser.error(f"--mode applies to spectrum, cwe and check-all, not {args.command}")
    if args.q < 3 or not _is_prime(args.q):
        parser.error(f"--q must be an odd prime, got {args.q}")
    if args.m < 1:
        parser.error(f"--m must be >= 1, got {args.m}")
    # minimality and check-all always read the closed table, spectrum and cwe
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
    if args.out is not None:
        directory = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(directory):
            parser.error(f"--out directory does not exist: {directory}")
        if os.path.isdir(args.out):
            parser.error(f"--out names a directory: {args.out}")


# ----------------------------------------------------------------------
# check runners: each returns verdict dicts (check/status[/detail])
# ----------------------------------------------------------------------

def _identity_results(args: argparse.Namespace, defining_set) -> tuple[list[dict], dict]:
    """Each identity's closed form against its exhaustive oracle.

    One row per check: (name, charsums function, call count, parameter tuples).
    A row's function is called as fn(f, *params) and fn(f, *params, mode="oracle",
    budget=...); the tuples are every one at q^m <= 27 and seeded samples above.
    A row's oracle calls share --budget: each gets budget // calls.  The rows
    over every residue or residue pair yield their tuples one at a time, so a
    row refused at its first call never holds q^2 of them.
    """
    from . import charsums, gf

    try:  # every oracle reads all q^m elements: refuse before the field is built
        check_budget(args.q**args.m, args.budget, "identity oracle scan")
    except BudgetExceededError as exc:
        return [_skipped("verify-identities", exc)], {}
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
    checks = [
        ("gauss-sum", charsums.gauss_sum, 2, [("extension",), ("base",)]),
        ("quadratic-sum", charsums.quadratic_sum, len(quadratic), quadratic),
        ("square-trace-count", charsums.square_trace_count, q, ((s,) for s in range(q))),
        ("single-character-sum", charsums.square_trace_char_sum, q, ((s,) for s in range(q))),
        ("pair-trace-count", charsums.square_trace_pair_count, q * q,
         ((s, t) for s in range(q) for t in range(q))),
        ("nested-sum-single", nested("single"), len(singles), singles),
        ("nested-sum-split", nested("split"), len(singles), singles),
        ("nested-sum-coupled", nested("coupled"), len(triples), triples),
        ("zero-trace-pair-count", charsums.zero_trace_pair_count, len(pair_count), pair_count),
    ]

    def plain(value):
        """A count's value, a Gauss sum's complex embedding, anything else as is."""
        if isinstance(value, charsums.CountResult):
            return value.value
        return value.embedding if isinstance(value, gf.GaussValue) else value

    verdicts = []
    for name, fn, calls, cases in checks:
        verdict = {"check": name, "status": "PASS"}
        try:
            for params in cases:
                c = plain(_closed(fn, f, *params))
                o = plain(fn(f, *params, mode="oracle", budget=args.budget // calls))
                if isinstance(c, complex) or isinstance(o, complex):
                    ok = abs(c - o) <= 1e-6 * max(1.0, abs(o))
                else:
                    ok = c == o
                if not ok:
                    verdict = {"check": name, "status": "FAIL", "counterexample": list(params),
                               "closed": str(c) if isinstance(c, Exception) else repr(c),
                               "oracle": repr(o)}
                    break
        except BudgetExceededError as exc:
            verdict = _skipped(name, f"{exc}; the row's {calls} calls share "
                                     f"--budget {args.budget}")
        verdicts.append(verdict)
    return verdicts, {}


def _count_results(args: argparse.Namespace, defining_set, command: str, route: str,
                   closed_fn: str, count_fn: str) -> tuple[list[dict], dict]:
    """Closed form vs count for one route; closed_fn and count_fn name codes functions,
    and a refused count is the SKIPPED verdict of command."""
    from . import codes

    results: dict = {}
    verdicts = []
    closed = brute = None
    if args.mode != "brute":
        closed = _closed(getattr(codes, closed_fn), args.q, args.m)
        if not isinstance(closed, Exception):
            results["closed"] = closed.records()
    if args.mode != "closed":
        try:  # the count's one price reads q and m alone: refuse before the field is built
            codes._check_count_budget(args.q, args.m, args.budget, route)
            D = defining_set()
            brute = getattr(codes, count_fn)(D, budget=args.budget, threads=args.threads)
        except BudgetExceededError as exc:
            verdicts.append(_skipped(command, exc))
        else:
            results["brute"] = brute.records()
            if route == "lee":
                results["defining_set_size"] = len(D)
    if isinstance(closed, Exception):
        check = f"{route}-closed" + ("" if brute is None else "-vs-brute")
        verdicts.append({"check": check, "status": "FAIL", "closed": str(closed)})
    elif closed is not None and brute is not None:
        verdict = {"check": f"{route}-closed-vs-brute", "status": "PASS"}
        diff = _diff(closed.entries, brute.entries, "weight" if route == "lee" else "composition")
        if diff:
            verdict.update(status="FAIL", diff=diff)
        verdicts.append(verdict)
    return verdicts, results


def _diff(closed: dict, brute: dict, key: str) -> list[dict]:
    """Each weight or composition whose multiplicity differs, in sorted order, with
    its closed and brute values (0 where a spectrum lacks it)."""
    return [
        {key: list(k) if isinstance(k, tuple) else k, "closed": closed.get(k, 0),
         "brute": brute.get(k, 0)}
        for k in sorted(closed.keys() | brute.keys()) if closed.get(k, 0) != brute.get(k, 0)
    ]


def _minimality_results(args: argparse.Namespace, defining_set) -> tuple[list[dict], dict]:
    from . import codes, sss
    from .defining_set import _check_scan_budget

    spectrum = _closed(codes.lee_spectrum_closed, args.q, args.m)
    report, results = None, {}
    try:
        if not isinstance(spectrum, Exception):
            report = sss.ab_check(spectrum, args.q)
            results = {
                "w_min": report.w_min,
                "w_max": report.w_max,
                "ab_ratio": list(report.ab_ratio),
                "ab_threshold": list(report.ab_threshold),
                "ab_holds": report.ab_holds,
            }
    except DegenerateSpectrumError:
        # an empty defining set (every m = 2, q = 1 mod 4) gives the zero code:
        # there is no weight ratio to test, but the scan still runs
        results = {"degenerate": True}
    results["module_generators"] = args.m
    # ab_holds is a finding, not a check; the verifiable check is soundness:
    # whenever the ratio condition holds, the exhaustive scan must agree.
    try:
        # refuse past the reach from q and m alone, before the field is built
        _check_scan_budget(args.q, args.m, args.budget)
        sss._check_rank_budget(args.q, args.m, args.budget)
        D = defining_set()
        count, all_min = sss.minimal_codewords_exhaustive(D, budget=args.budget)
        results["minimal_count"] = count
        results["all_minimal"] = all_min
        sound = report is None or not report.ab_holds or all_min
        verdict = {"check": "ab-soundness", "status": "PASS" if sound else "FAIL"}
        results["gray_rank"] = sss.gray_rank(D)
    except BudgetExceededError as exc:
        results["exhaustive_scan"] = f"SKIPPED: {exc}"
        verdict = _skipped("ab-soundness", exc)
    if isinstance(spectrum, Exception):  # whatever the scan found
        verdict = {"check": "ab-soundness", "status": "FAIL", "closed": str(spectrum)}
    return [verdict], results


def _closed(fn, *args):
    """fn(*args), or the exactness error it raised: a closed form that fails its
    own check is a FAIL of the check that reads it, carrying the error as its
    "closed" value, never a usage error."""
    try:
        return fn(*args)
    except (NonIntegralValueError, NonIntegralExponentError) as exc:
        return exc


def _skipped(check: str, exc: BudgetExceededError | str) -> dict:
    """The verdict of a check the budget refused: its reason is the refused price."""
    return {"check": check, "status": "SKIPPED", "reason": str(exc)}


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
    "spectrum": lambda args, D: _count_results(args, D, "spectrum", "lee",
                                               "lee_spectrum_closed", "lee_spectrum_bruteforce"),
    "cwe": lambda args, D: _count_results(args, D, "cwe", "cwe", "cwe_closed", "cwe_bruteforce"),
    "minimality": _minimality_results,
}


def _check_all(args: argparse.Namespace, defining_set) -> tuple[list[dict], dict]:
    # the identity runner builds the field, which loads numpy: compile the
    # later runners' modules first (module docstring)
    from . import codes, sss  # noqa: F401

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


def _cell(value) -> str:
    """A leaf as text: a string as is, a list's items space-separated, else as in JSON."""
    if isinstance(value, list):
        return " ".join(map(_cell, value))
    return value if isinstance(value, str) else json.dumps(value)


def _tables(payload: dict) -> list[list[list[str]]]:
    """Every leaf of the payload in tables of rows, each table headed by its columns.

    A list of records (a result table, the verdicts) adds its rows to the table of
    its columns; every other leaf is a row of the last table, (kind, value).  A
    row's kind is its path, results' paths without the "results." prefix."""
    tables: dict[tuple, list] = {}
    scalars = [["kind", "value"]]

    def walk(node, path: str) -> None:
        if isinstance(node, dict) and node:
            for key, value in node.items():
                walk(value, f"{path}.{key}".lstrip(".").removeprefix("results."))
        elif isinstance(node, list) and node and isinstance(node[0], dict):
            columns = list(dict.fromkeys(key for record in node for key in record))
            tables.setdefault(tuple(columns), [["kind", *columns]]).extend(
                [path, *(_cell(record.get(c, "")) for c in columns)] for record in node)
        else:
            scalars.append([path, _cell(node)])
    walk(payload, "")
    return [*tables.values(), scalars]


def _render_csv(payload: dict) -> str:
    import csv  # only a csv report loads it

    buf = io.StringIO()
    csv.writer(buf).writerows(row for table in _tables(payload) for row in table)
    return buf.getvalue()


def _render_human(payload: dict) -> str:
    lines = []
    for table in _tables(payload):
        if "status" in table[0]:  # a verdict's status reads [PASS]
            i = table[0].index("status")
            for row in table[1:]:
                row[i] = f"[{row[i]}]"
        widths = [max(map(len, column)) for column in zip(*table)]
        lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in table]
        lines.append("")
    return "\n".join(lines)


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
    if hasattr(sys, "set_int_max_str_digits"):  # Python >= 3.10.7 caps int-to-str at 4300 digits
        sys.set_int_max_str_digits(0)  # a closed count at large m has more
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)

    started = time.monotonic()
    runner = _check_all if args.command == "check-all" else RUNNERS[args.command]
    try:
        verdicts, results = runner(args, _defining_set_once(args))
    except LeecodesError as exc:
        parser.exit(EXIT_USAGE, f"error: {exc}\n")
    timing = {"elapsed_ms": int((time.monotonic() - started) * 1000)} if args.timing else None

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
