"""Child-process side of the leecodes benchmark.

Every invocation is one fresh Python process, so each pass starts cold, as a
user's ``leecodes`` run does.  ``run.py`` starts it with ``PYTHONPATH`` set to
the ``src/`` of the checkout under test.  Modes:

    child.py env                    interpreter, numpy and OpenBLAS versions
    child.py setup SPEC             import, build the fields (and defining sets)
    child.py field-build SPEC       the field-build pass through library calls
    child.py cli ARGV...            one ``leecodes`` CLI call, in this process
    child.py baseline SPEC          single-thread Lee/CWE enumerations

SPEC is a JSON object.  ``--trace`` before the mode wraps leecodes' public
functions in spans (see ``Tracer``).  Each mode prints one JSON object as its
last line of standard output.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import sys
import threading
from time import perf_counter

DENSE_KEYS = ("mul", "add", "trace_add")

# charsums functions with a mode="closed"/"oracle" switch -> span of the oracle
CHARSUMS_ORACLES = {
    "quadratic_sum": "charsums.quadratic_oracle_s",
    "square_trace_count": "charsums.count_oracle_s",
    "square_trace_char_sum": "charsums.count_oracle_s",
    "square_trace_pair_count": "charsums.count_oracle_s",
    "nested_char_sum": "charsums.nested_oracle_s",
    "zero_trace_pair_count": "charsums.pair_oracle_s",
}
ORACLE_SPANS = frozenset(CHARSUMS_ORACLES.values()) | {"charsums.gauss_oracle_s"}


class Tracer:
    """Spans around calls into leecodes, kept in memory until the process ends.

    A span is [name, start, end, parent index]; a layer's self time is its
    spans' durations minus the durations of their child spans.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.enumerations: list[dict] = []
        self.defining_set_n = 0
        self.fields: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, fn, label, after=None):
        """fn with a span named label (or label(*args, **kwargs); None skips the span)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label(*args, **kwargs) if callable(label) else label
            if name is None:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                index = len(self.spans)
                self.spans.append([name, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[index][2] = perf_counter()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def summary(self) -> dict:
        self_s: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            self_s[name] = self_s.get(name, 0.0) + (end - start)
            if parent >= 0:
                pname = self.spans[parent][0]
                self_s[pname] = self_s.get(pname, 0.0) - (end - start)
        dense_bytes = sum(
            f._dense[k].nbytes for f in self.fields for k in DENSE_KEYS if k in f._dense
        )
        return {
            "self_s": self_s,
            "oracle_calls": sum(1 for s in self.spans if s[0] in ORACLE_SPANS),
            "enumerations": self.enumerations,
            "cache_hits": sum(e["cache_hit"] for e in self.enumerations),
            "defining_set_n": self.defining_set_n,
            "dense_table_mb": dense_bytes / 2**20,
        }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of gf, codes, charsums and sss in spans.

    Module attributes are replaced, so calls made through the module (as the
    CLI and the package's own cross-function calls do) are traced.
    """
    from leecodes import charsums, codes, gf, sss

    field = gf.Field
    field.__init__ = tracer.wrap(
        field.__init__, "gf.field_init_s", after=lambda _, self, *a, **k: tracer.fields.append(self)
    )
    # the lazy tables: only the first access, which builds the table, gets a span
    for prop, key, name in (
        ("trace_array", "trace", "gf.trace_array_s"),
        ("trace_sq_array", "trace_sq", "gf.trace_sq_array_s"),
        ("mul_array", "mul", "gf.dense_tables_s"),
        ("add_array", "add", "gf.dense_tables_s"),
        ("trace_add_array", "trace_add", "gf.dense_tables_s"),
    ):
        fget = getattr(field, prop).fget
        label = functools.partial(_table_label, key=key, name=name)
        setattr(field, prop, property(tracer.wrap(fget, label)))

    def count_defining_set(D, *args, **kwargs):
        tracer.defining_set_n += len(D)

    codes.build_defining_set = tracer.wrap(
        codes.build_defining_set, "codes.defining_set_s", after=count_defining_set
    )
    for route, fname in (("lee", "lee_spectrum_bruteforce"), ("cwe", "cwe_bruteforce")):
        label = functools.partial(_enumeration_label, tracer, route)
        setattr(codes, fname, tracer.wrap(getattr(codes, fname), label))
    for fname in ("lee_spectrum_closed", "cwe_closed"):
        setattr(codes, fname, tracer.wrap(getattr(codes, fname), "codes.closed_s"))
    codes.gray_dimension = tracer.wrap(codes.gray_dimension, "codes.gray_dimension_s")

    for fname, oracle in CHARSUMS_ORACLES.items():
        fn = getattr(charsums, fname)
        pos = list(inspect.signature(fn).parameters).index("mode")
        label = functools.partial(_charsums_label, pos=pos, oracle=oracle)
        setattr(charsums, fname, tracer.wrap(fn, label))
    charsums.gauss_sum_closed = tracer.wrap(charsums.gauss_sum_closed, "charsums.closed_s")
    charsums.gauss_sum_oracle = tracer.wrap(charsums.gauss_sum_oracle, "charsums.gauss_oracle_s")

    sss.minimal_codewords_exhaustive = tracer.wrap(sss.minimal_codewords_exhaustive, "sss.scan_s")


def _table_label(self, *, key, name):
    return None if key in self._dense else name


def _enumeration_label(tracer, route, D, *args, **kwargs):
    # DefiningSet memoizes its spectra; a timed call must do the enumeration
    order = D.field.order
    tracer.enumerations.append({
        "route": route, "q": D.field.q, "m": D.field.m,
        "steps": 2 * order**2 * len(D), "cache_hit": route in D._cache,
    })
    return f"codes.{route}_brute_s"


def _charsums_label(*args, pos, oracle, **kwargs):
    mode = kwargs.get("mode", args[pos] if len(args) > pos else "closed")
    return oracle if mode == "oracle" else "charsums.closed_s"


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------

def env_info() -> dict:
    import leecodes
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "leecodes": leecodes.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "openblas": openblas,
    }


def setup(spec: dict) -> dict:
    from leecodes import codes, gf

    for q, m in spec["grid"]:
        f = gf.make_field(q, m)
        if spec["defining_set"]:
            codes.build_defining_set(f, budget=spec["budget"])
            f.mul_array, f.trace_add_array  # noqa: B018 - the first access builds them
    return {}


def _compare(name: str, cases, closed, oracle) -> dict:
    """The CLI's rule: exact equality, complex values within 1e-6."""
    for params in cases:
        c, o = closed(*params), oracle(*params)
        ok = abs(c - o) <= 1e-6 * max(1.0, abs(o)) if isinstance(o, complex) else c == o
        if not ok:
            return {"check": name, "status": "FAIL", "counterexample": list(params)}
    return {"check": name, "status": "PASS"}


def field_build(spec: dict) -> dict:
    """Fresh field models, then the four table-backed identities, closed vs oracle."""
    from leecodes import charsums, gf

    verdicts = []
    for q, m in spec["grid"]:
        f = gf.make_field(q, m)
        residues = [(s,) for s in range(q)]
        checks = [
            _compare("gauss-sum", [("extension",), ("base",)],
                     lambda lvl: charsums.gauss_sum_closed(f, lvl).embedding,
                     lambda lvl: charsums.gauss_sum_oracle(f, lvl)),
            _compare("square-trace-count", residues,
                     lambda s: charsums.square_trace_count(f, s).value,
                     lambda s: charsums.square_trace_count(f, s, mode="oracle").value),
            _compare("single-character-sum", residues,
                     lambda s: charsums.square_trace_char_sum(f, s),
                     lambda s: charsums.square_trace_char_sum(f, s, mode="oracle")),
            _compare("pair-trace-count", [(s, t) for s in range(q) for t in range(q)],
                     lambda s, t: charsums.square_trace_pair_count(f, s, t).value,
                     lambda s, t: charsums.square_trace_pair_count(f, s, t, mode="oracle").value),
        ]
        verdicts += [dict(v, q=q, m=m) for v in checks]
    report = {"command": "field-build", "verdicts": verdicts}
    return {"exit": 0, "report": json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"}


def cli(argv: list[str]) -> dict:
    from leecodes import cli as leecodes_cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = leecodes_cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "report": out.getvalue()}


def baseline(spec: dict) -> dict:
    """Repeat each listed enumeration at one thread on a fresh defining set.

    The dense tables and the defining set's gather tables are built before the
    clock starts, so only the enumeration is timed; each result is checked
    against the closed form.
    """
    from leecodes import codes, gf

    seconds = {"lee": 0.0, "cwe": 0.0}
    verdicts = []
    closed = {"lee": codes.lee_spectrum_closed, "cwe": codes.cwe_closed}
    brute = {"lee": codes.lee_spectrum_bruteforce, "cwe": codes.cwe_bruteforce}
    for e in spec["enumerations"]:
        f = gf.make_field(e["q"], e["m"])
        D = codes.build_defining_set(f, budget=spec["budget"])
        codes._enumeration_tables(D)
        start = perf_counter()
        got = brute[e["route"]](D, budget=spec["budget"], threads=1)
        seconds[e["route"]] += perf_counter() - start
        ok = got.entries == closed[e["route"]](e["q"], e["m"]).entries
        verdicts.append({"check": f"{e['route']}-1t", "q": e["q"], "m": e["m"],
                         "status": "PASS" if ok else "FAIL"})
    return {"lee_1t_s": seconds["lee"], "cwe_1t_s": seconds["cwe"], "verdicts": verdicts}


def main(argv: list[str]) -> int:
    tracer = None
    if argv and argv[0] == "--trace":
        tracer = Tracer()
        install(tracer)
        argv = argv[1:]
    mode, rest = argv[0], argv[1:]
    if mode == "env":
        result = env_info()
    elif mode == "setup":
        result = setup(json.loads(rest[0]))
    elif mode == "field-build":
        result = field_build(json.loads(rest[0]))
    elif mode == "cli":
        result = cli(rest)
    elif mode == "baseline":
        result = baseline(json.loads(rest[0]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if tracer is not None:
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
