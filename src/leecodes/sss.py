"""Minimal-codeword analysis of the Gray image for secret-sharing suitability.

A nonzero codeword is minimal when no other nonzero codeword has strictly
smaller support; support-equal scalar multiples do not disqualify each other.
The sufficient condition w_min / w_max > (q-1)/q is evaluated in exact
rational arithmetic, never floating point.

The exhaustive scan builds one support per F_q-line of messages, since scalar
multiples share a support, and compares each only with heavier supports: a
strict containment needs a smaller weight.  Containment is |S_i & S_j| == w_i,
read off a float32 product of 0/1 rows, exact because every entry is an
integer at most 2n < 2^24.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._budget import DEFAULT_OPS_BUDGET, check_budget
from .codes import DefiningSet, LeeSpectrum, _enumeration_tables
from .errors import DegenerateSpectrumError, LengthMismatchError, UnsupportedParametersError

_BLOCK = 1024  # support rows per BLAS product in the minimality scan


def covers(x, y) -> bool:
    """True iff the support of y is contained in the support of x."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise LengthMismatchError("covers() needs equal-length vectors")
    return not np.any((y != 0) & (x == 0))


@dataclass(frozen=True)
class MinimalityReport:
    w_min: int
    w_max: int
    ab_ratio: Fraction
    ab_threshold: Fraction
    ab_holds: bool
    minimal_count: int | None = None
    all_minimal: bool | None = None


def ab_check(spectrum: LeeSpectrum, q: int) -> MinimalityReport:
    """Exact-rational sufficient test: all nonzero codewords are minimal when
    w_min / w_max strictly exceeds (q-1)/q."""
    nz = spectrum.nonzero_weights()
    if not nz:
        raise DegenerateSpectrumError("spectrum has no nonzero weight")
    w_min, w_max = nz[0], nz[-1]
    ratio = Fraction(w_min, w_max)
    threshold = Fraction(q - 1, q)
    return MinimalityReport(w_min, w_max, ratio, threshold, ratio > threshold)


@dataclass(frozen=True)
class MinimalityRatios:
    """Closed-form w_min/w_max candidates per parity, as exact rationals."""

    ratios: tuple[Fraction, ...]
    threshold: Fraction
    holds: bool


def minimality_ratios(q: int, m: int) -> MinimalityRatios:
    """Closed-form minimality ratios.

    Odd m (>= 3): the single ratio (q^{2m-3} - q^{(3m-5)/2}) / (q^{2m-3} + q^{(3m-5)/2}).
    Even m (>= 2): both sign cases of the closed table, reported together.
    """
    if m >= 3 and m % 2:
        a = q ** (2 * m - 3)
        y = q ** ((3 * m - 5) // 2)
        ratios = (Fraction(a - y, a + y),)
    elif m >= 2 and m % 2 == 0:
        a = q ** (2 * m - 3)
        y = q ** ((3 * m - 6) // 2)
        z = q ** (m - 2)
        ratios = (
            Fraction(a + (q - 1) * y, a + (2 * q - 1) * y + (q - 1) * z),
            Fraction(a - (2 * q - 1) * y + (q - 1) * z, a - (q - 1) * y),
        )
    else:
        raise UnsupportedParametersError("need odd m >= 3 or even m >= 2")
    threshold = Fraction(q - 1, q)
    return MinimalityRatios(ratios, threshold, all(r > threshold for r in ratios))


def _line_representatives(q: int, m: int) -> np.ndarray:
    """One pair index k = alpha q^m + beta per F_q-line: the k whose leading
    base-q digit is 1 (a scalar c in F_q* multiplies every digit by c)."""
    return np.concatenate([np.arange(q**e, 2 * q**e) for e in range(2 * m)])


def minimal_codewords_exhaustive(D: DefiningSet, budget: int = DEFAULT_OPS_BUDGET
                                 ) -> tuple[int, bool]:
    """Strict support-containment scan, one support per F_q-line of messages.

    Returns (number of minimal nonzero codewords, whether all are minimal).
    """
    f = D.field
    q, n2 = f.q, 2 * len(D)
    lines = (f.order**2 - 1) // (q - 1)
    check_budget(lines * lines * max(n2, 1), budget, "pairwise minimality scan")
    assert n2 < 2**24, "float32 support products would be inexact"

    alpha, beta = np.divmod(_line_representatives(q, f.m), f.order)
    TA, TB = _enumeration_tables(D)
    sup = np.hstack([TA[alpha] != -TB[beta] % q, TB[alpha] != -TA[beta] % q])
    w = sup.sum(axis=1)
    order = np.argsort(w)
    order = order[w[order] > 0]  # zero codewords are neither minimal nor counted
    sup, w = sup[order].astype(np.float32), w[order]
    dominated = np.zeros(w.size, dtype=bool)
    for lo in range(0, w.size, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        # S_i inside S_j is |S_i & S_j| == w_i; it is strict only when w_i < w_j
        hi = np.searchsorted(w, w[lo], side="right")
        inside = (sup[blk] @ sup[hi:].T == w[blk, None]) & (w[blk, None] < w[hi:])
        dominated[hi:] |= inside.any(axis=0)
    return (q - 1) * int(w.size - dominated.sum()), not dominated.any()
