"""Acceptance gate: one test per numbered criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.

The pinned spectra and CWEs carry their own proof: before a table is compared
with the program, it must have mass q^(2m) and satisfy the first Pless power
moment (MacWilliams-Sloane, The Theory of Error-Correcting Codes, Ch. 5 S6).
Every Gray coordinate Tr(alpha*a + beta*b) or Tr(alpha*b + beta*a) with
(a, b) != (0, 0) is a nonzero F_q-linear form of the message (alpha, beta), so
over all q^(2m) messages it takes each value of F_q exactly q^(2m-1) times.
For a Gray image of length 2n this gives sum(wt) = 2n(q-1)q^(2m-1) and, for
every nonzero symbol s, sum(n_s) = 2n q^(2m-1), whatever the defining set.
"""

import random
import time

import numpy as np

from leecodes import charsums as cs
from leecodes import codes, defining_set, spectra
from leecodes.gf import make_field
from leecodes.ring import RingVector, gray_map, lee_distance
from leecodes.sss import ab_check, minimal_codewords_exhaustive


def _report(criterion: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = ("; ".join(failures)) if failures else ""
    print(f"\nACCEPTANCE {criterion}: {status}" + (f" [{detail}]" if detail else ""))
    assert not failures, f"criterion {criterion}: {detail}"


def _lee_moment_failures(label: str, entries: dict, q: int, m: int, n: int) -> list[str]:
    """Mass and first power moment of a Lee spectrum of a Gray image of length 2n."""
    failures = []
    mass, total = sum(entries.values()), q ** (2 * m)
    if mass != total:
        failures.append(f"{label}: mass {mass} != q^(2m) = {total}")
    moment = sum(w * c for w, c in entries.items())
    want = 2 * n * (q - 1) * q ** (2 * m - 1)
    if moment != want:
        failures.append(f"{label}: first moment sum(wt) = {moment} != 2n(q-1)q^(2m-1) = {want}")
    return failures


def _cwe_moment_failures(label: str, entries: dict, q: int, m: int, n: int) -> list[str]:
    """Mass and per-symbol first moments of a CWE of a Gray image of length 2n."""
    failures = []
    mass, total = sum(entries.values()), q ** (2 * m)
    if mass != total:
        failures.append(f"{label}: mass {mass} != q^(2m) = {total}")
    want = 2 * n * q ** (2 * m - 1)
    for s in range(1, q):
        moment = sum(comp[s] * c for comp, c in entries.items())
        if moment != want:
            failures.append(f"{label}: first moment sum(n_{s}) = {moment} != 2n q^(2m-1) = {want}")
    return failures


def _count_diffs(label: str, expected: dict, enumerated: dict) -> list[str]:
    """One message per key whose count differs between the two tables."""
    return [
        f"{label} {k}: expected {expected.get(k, 0)}, enumerated {enumerated.get(k, 0)}"
        for k in sorted(expected.keys() | enumerated.keys())
        if expected.get(k, 0) != enumerated.get(k, 0)
    ]


def test_criterion_1_q3_m3_reproduction():
    n = 80
    # Deviates from the frozen reference {72: 12, 144: 24}, which transposes
    # the two extreme multiplicities: its sum(wt) is 78624, not the 77760 the
    # first moment requires. The middle rows fix A_72 + A_144 = 36 and
    # 72 A_72 + 144 A_144 = 3456, hence (A_72, A_144) = (24, 12).
    expected = {0: 1, 72: 24, 96: 180, 108: 368, 120: 144, 144: 12}
    failures = _lee_moment_failures("expected spectrum", expected, 3, 3, n)
    if failures:
        _report("1 (q=3, m=3 reproduction)", failures)
    t0 = time.monotonic()
    D = defining_set.build_defining_set(make_field(3, 3))
    spec = codes.lee_spectrum_bruteforce(D)
    elapsed = time.monotonic() - t0
    failures += _count_diffs("weight", expected, spec.entries)
    if len(D) != n:
        failures.append(f"|D| = {len(D)} != {n}")
    rep = codes.gray_dimension(D)
    if rep.rank != 6:
        failures.append(f"gray rank {rep.rank} != 6")
    if rep.min_lee_weight != 72:
        failures.append(f"min Lee distance {rep.min_lee_weight} != 72")
    if rep.gray_length != 160:
        failures.append(f"gray length {rep.gray_length} != 160")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report("1 (q=3, m=3 reproduction)", failures)


def test_criterion_2_q3_m4_reproduction():
    failures = []
    t0 = time.monotonic()
    D = defining_set.build_defining_set(make_field(3, 4))
    spec = codes.lee_spectrum_bruteforce(D)
    cwe = codes.cwe_bruteforce(D)
    elapsed = time.monotonic() - t0
    failures += _count_diffs(
        "weight", {0: 1, 504: 120, 540: 400, 576: 3600, 612: 2400, 756: 40}, spec.entries
    )
    expected_cwe = {
        (880, 0, 0): 1,
        (376, 252, 252): 120,
        (340, 270, 270): 400,
        (304, 288, 288): 3600,
        (268, 306, 306): 2400,
        (124, 378, 378): 40,
    }
    failures += _count_diffs("composition", expected_cwe, cwe.entries)
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    _report("2 (q=3, m=4 reproduction)", failures)


def test_criterion_3_q3_m5_reproduction():
    n = 6560
    # Both tables deviate from the frozen reference, which pairs 144 with the
    # weight-7776 term and 180 with the weight-9720 term. That pairing gives
    # sum(wt) = 516551904, not the 516481920 the first moment requires, and
    # misses the per-symbol moment 258240960 (s = 1, 2) by 36 * 972.
    expected = {0: 1, 7776: 180, 8640: 13284, 8748: 32480, 8856: 12960, 9720: 144}
    expected_cwe = {
        (13120, 0, 0): 1,
        (5344, 3888, 3888): 180,
        (4480, 4320, 4320): 13284,
        (4372, 4374, 4374): 32480,
        (4264, 4428, 4428): 12960,
        (3400, 4860, 4860): 144,
    }
    failures = _lee_moment_failures("expected spectrum", expected, 3, 5, n)
    failures += _cwe_moment_failures("expected CWE", expected_cwe, 3, 5, n)
    if failures:
        _report("3 (q=3, m=5 reproduction)", failures)
    t0 = time.monotonic()
    D = defining_set.build_defining_set(make_field(3, 5))
    spec = codes.lee_spectrum_bruteforce(D)
    cwe = codes.cwe_bruteforce(D)
    elapsed = time.monotonic() - t0
    failures += _count_diffs("weight", expected, spec.entries)
    failures += _count_diffs("composition", expected_cwe, cwe.entries)
    if elapsed > 300.0:
        failures.append(f"runtime {elapsed:.1f}s > 300s")
    _report("3 (q=3, m=5 reproduction)", failures)


def test_criterion_4_closed_equals_bruteforce(defining_sets):
    failures = []
    for (q, m) in [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3)]:
        D = defining_sets(q, m)
        if spectra.lee_spectrum_closed(q, m).entries != codes.lee_spectrum_bruteforce(D).entries:
            failures.append(f"Lee spectra differ at ({q},{m})")
        if spectra.cwe_closed(q, m).entries != codes.cwe_bruteforce(D).entries:
            failures.append(f"CWE differ at ({q},{m})")
    _report("4 (closed == brute force, zero tolerance)", failures)


def test_criterion_5_identity_suites():
    failures = []
    for (q, m) in [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3)]:
        f = make_field(q, m)
        for s in range(q):
            if cs.square_trace_count(f, s).value != cs.square_trace_count(f, s, mode="oracle").value:
                failures.append(f"square-trace count at ({q},{m}), s={s}")
            if cs.square_trace_char_sum(f, s) != cs.square_trace_char_sum(f, s, mode="oracle"):
                failures.append(f"single sum at ({q},{m}), s={s}")
            for t in range(q):
                if cs.square_trace_pair_count(f, s, t).value != cs.square_trace_pair_count(f, s, t, mode="oracle").value:
                    failures.append(f"pair count at ({q},{m}), ({s},{t})")

    for (q, m) in [(3, 2), (3, 3)]:  # exhaustive parameter sweep
        f = make_field(q, m)
        for lam in range(1, q):
            for beta in range(1, f.order):
                for kind in ("single", "split"):
                    if cs.nested_char_sum(f, kind, beta, lam) != cs.nested_char_sum(f, kind, beta, lam, mode="oracle"):
                        failures.append(f"{kind} at ({q},{m}) beta={beta} lam={lam}")
                for alpha in range(1, f.order):
                    if cs.nested_char_sum(f, "coupled", beta, lam, alpha=alpha) != cs.nested_char_sum(
                        f, "coupled", beta, lam, alpha=alpha, mode="oracle"
                    ):
                        failures.append(f"coupled sum at ({q},{m}) {alpha},{beta},{lam}")
            for alpha in range(f.order):
                for beta in range(f.order):
                    if cs.zero_trace_pair_count(f, alpha, beta, lam).value != cs.zero_trace_pair_count(
                        f, alpha, beta, lam, mode="oracle"
                    ).value:
                        failures.append(f"zero-trace pair count at ({q},{m}) {alpha},{beta},{lam}")

    for (q, m) in [(3, 4), (5, 2), (5, 3)]:  # seeded random tuples
        f = make_field(q, m)
        rng = random.Random(520 + 10 * q + m)
        for _ in range(100):
            alpha = rng.randrange(1, f.order)
            beta = rng.randrange(1, f.order)
            lam = rng.randrange(1, q)
            for kind in ("single", "split"):
                if cs.nested_char_sum(f, kind, beta, lam) != cs.nested_char_sum(f, kind, beta, lam, mode="oracle"):
                    failures.append(f"{kind} sampled at ({q},{m})")
            if cs.nested_char_sum(f, "coupled", beta, lam, alpha=alpha) != cs.nested_char_sum(
                f, "coupled", beta, lam, alpha=alpha, mode="oracle"
            ):
                failures.append(f"coupled sum sampled at ({q},{m})")
            if cs.zero_trace_pair_count(f, alpha, beta, lam).value != cs.zero_trace_pair_count(
                f, alpha, beta, lam, mode="oracle"
            ).value:
                failures.append(f"pair count sampled at ({q},{m})")
    _report("5 (identity suites, exact equality)", failures[:5])


def test_criterion_6_gauss_sums():
    failures = []
    for (q, m) in [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1), (7, 2)]:
        f = make_field(q, m)
        for level, size in (("extension", q**m), ("base", q)):
            closed = cs.gauss_sum_closed(f, level)
            oracle = cs.gauss_sum_oracle(f, level)
            if abs(closed.embedding - oracle) > 1e-6 * abs(oracle):
                failures.append(f"Gauss sum ({q},{m},{level})")
            if abs(abs(oracle) ** 2 - size) > 1e-9 * size:
                failures.append(f"|G|^2 != {size} at ({q},{m},{level})")
            if closed.magnitude_squared != size:
                failures.append(f"symbolic magnitude at ({q},{m},{level})")
    _report("6 (Gauss sums)", failures)


def test_criterion_7_minimality(defining_sets):
    failures = []
    r5 = ab_check(codes.lee_spectrum_bruteforce(defining_sets(3, 5)), 3)
    if r5.ab_ratio != (4, 5) or not r5.ab_holds:
        failures.append(f"(3,5) ratio {r5.ab_ratio} (expected 4/5 > 2/3)")
    r3 = ab_check(codes.lee_spectrum_bruteforce(defining_sets(3, 3)), 3)
    if r3.ab_ratio != (1, 2) or r3.ab_holds:
        failures.append(f"(3,3) ratio {r3.ab_ratio} (expected 1/2, condition failing)")
    r4 = ab_check(codes.lee_spectrum_bruteforce(defining_sets(3, 4)), 3)
    if r4.ab_ratio != (2, 3) or r4.ab_holds:
        failures.append(f"(3,4) ratio {r4.ab_ratio} (expected exactly 2/3, strict test failing)")
    for (q, m) in [(3, 2), (3, 3)]:
        count, all_minimal = minimal_codewords_exhaustive(defining_sets(q, m))
        if count <= 0:
            failures.append(f"({q},{m}) exhaustive scan produced no minimal codewords")
        holds = ab_check(codes.lee_spectrum_bruteforce(defining_sets(q, m)), q).ab_holds
        if holds and not all_minimal:
            failures.append(f"({q},{m}) violates the sufficiency implication")
    _report("7 (minimality)", failures)


def test_criterion_8_property_suites(defining_sets, mul_table):
    failures = []

    # Gray isometry on 1000 random pairs
    base = make_field(3, 1)
    rng = random.Random(8080)
    for _ in range(1000):
        x = RingVector(base, [rng.randrange(3) for _ in range(20)],
                       [rng.randrange(3) for _ in range(20)])
        y = RingVector(base, [rng.randrange(3) for _ in range(20)],
                       [rng.randrange(3) for _ in range(20)])
        if lee_distance(x, y) != int(np.count_nonzero(gray_map(x) != gray_map(y))):
            failures.append("Gray isometry violated")
            break

    # spectrum mass, first power moments and CWE marginal consistency on
    # every computed pair
    for (q, m) in [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3)]:
        D = defining_sets(q, m)
        lee = codes.lee_spectrum_bruteforce(D)
        cwe = codes.cwe_bruteforce(D)
        failures += _lee_moment_failures(f"spectrum at ({q},{m})", lee.entries, q, m, len(D))
        failures += _cwe_moment_failures(f"CWE at ({q},{m})", cwe.entries, q, m, len(D))
        if cwe.to_lee().entries != lee.entries:
            failures.append(f"CWE marginal inconsistency at ({q},{m})")

    # five distinct nonzero weights at odd degree
    for m in (3, 5):
        if len(codes.lee_spectrum_bruteforce(defining_sets(3, m)).nonzero_weights()) != 5:
            failures.append(f"(3,{m}) does not have five nonzero weights")

    # character orthogonality, exhaustive for every field with q^m <= 729
    for (q, m) in [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6),
                   (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3)]:
        f = make_field(q, m)
        if f.order > 729:
            continue
        idx = f.trace_array[mul_table(f)]
        for a in range(f.order):
            counts = np.bincount(idx[a], minlength=q)
            ok = (
                counts[0] == f.order and counts[1:].sum() == 0
                if a == 0
                else np.all(counts == f.order // q)
            )
            if not ok:
                failures.append(f"orthogonality at ({q},{m}), a={a}")
                break
    _report("8 (property suites)", failures)
