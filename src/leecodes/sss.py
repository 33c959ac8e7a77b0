"""Minimal-codeword analysis of the Gray image for secret-sharing suitability.

A nonzero codeword is minimal when no other nonzero codeword has strictly
smaller support; support-equal scalar multiples do not disqualify each other.
The sufficient condition w_min / w_max > (q-1)/q is evaluated in exact
rational arithmetic, never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._budget import DEFAULT_OPS_BUDGET, check_budget
from .codes import DefiningSet, LeeSpectrum, _matches
from .errors import DegenerateSpectrumError, LengthMismatchError, UnsupportedParametersError


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


def minimal_codewords_exhaustive(D: DefiningSet, budget: int = DEFAULT_OPS_BUDGET
                                 ) -> tuple[int, bool]:
    """Pairwise support-inclusion scan over every nonzero codeword.

    Returns (number of minimal nonzero codewords, whether all are minimal).
    """
    f = D.field
    order2 = f.order**2
    n2 = 2 * len(D)
    check_budget(order2 * order2 * max(n2, 1), budget, "pairwise minimality scan")

    supports = np.empty((order2, n2), dtype=np.int8)
    for alpha in range(f.order):
        z1, z2 = _matches(D, alpha, 0)
        rows = slice(alpha * f.order, (alpha + 1) * f.order)
        supports[rows, 0::2] = ~z1
        supports[rows, 1::2] = ~z2

    nonzero = supports.any(axis=1)
    sup = supports[nonzero]
    if sup.size == 0:
        return 0, True

    uniq, counts = np.unique(sup, axis=0, return_counts=True)
    s = uniq.astype(np.float64)
    # missing[i, j] = #coordinates in support(i) outside support(j)
    missing = s @ (1.0 - s).T
    contained = missing < 0.5
    proper = contained & ~contained.T  # support(i) strictly inside support(j)
    dominated = proper.any(axis=0)
    minimal_count = int(counts[~dominated].sum())
    return minimal_count, not dominated.any()
