"""Minimal-codeword analysis of the Gray image for secret-sharing suitability.

A nonzero codeword is minimal when no other nonzero codeword has strictly
smaller support; support-equal scalar multiples do not disqualify each other.
The sufficient condition w_min / w_max > (q-1)/q is evaluated in exact
rational arithmetic, never floating point.

The exhaustive scan makes three exact reductions.

- One support per F_q-line of messages: scalar multiples share a support.
- One Gray half: the second half of alpha + u*beta at (a, b) is its first
  half at (b, a), and D is closed under that swap, so S_i is inside S_j on
  both halves exactly when it is on the first, and w = 2 |S^1|.
- One containing codeword per orbit: (alpha, beta) -> (beta, alpha),
  (alpha, -beta) and Frobenius each permute the coordinates of every
  support by one fixed permutation ((a, b) -> (b, a), (a, -b) and
  (phi^-1 a, phi^-1 b); Z = -Z and Z is Frobenius-stable), so "some nonzero
  codeword has strictly smaller support" is constant on each orbit.

Every line i is then compared with each orbit representative j: S_i is inside
S_j when |S_i & S_j| == w_i, and strictly when 0 < w_i < w_j.  The counts are
read off a float32 product of 0/1 rows, exact because every entry is an
integer at most n < 2^24.  The scan is priced L * R * n steps, for L lines,
R orbits and n first-half coordinates; the lower bound R >= L / 4m refuses an
unaffordable scan before the orbits are labelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._budget import DEFAULT_OPS_BUDGET, check_budget
from .codes import DefiningSet, LeeSpectrum, _enumeration_tables
from .errors import DegenerateSpectrumError, LengthMismatchError, UnsupportedParametersError
from .gf import Field

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


def _line_orbits(f: Field) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the F_q-lines under (alpha, beta) -> (beta, alpha),
    (alpha, -beta) and Frobenius: the smallest line representative of each
    orbit, and the number of lines in it.

    The group these generate acts on lines through 4m maps; each line is
    labelled with the smallest representative among its 4m images.  Reading
    mul_array keeps this O(4m L) work under the dense-table limit.
    """
    q, order = f.q, f.order
    mul, neg = f.mul_array, f.neg_array
    frob = np.array([f.frobenius(x) for x in f.elements()])
    lead = np.arange(order)  # leading base-q digit of each element
    for _ in range(f.m - 1):
        lead = np.where(lead >= q, lead // q, lead)
    inv = np.array([0] + [pow(c, q - 2, q) for c in range(1, q)])

    def line(x, y):
        c = inv[np.where(x > 0, lead[x], lead[y])]
        return mul[c, x].astype(np.int64) * order + mul[c, y]

    lines = _line_representatives(q, f.m)
    label = lines
    a, b = np.divmod(lines, order)
    for _ in range(f.m):
        # the signed swaps modulo the scalar -1: identity, swap, negate beta, both
        for x, y in ((a, b), (b, a), (a, neg[b]), (b, neg[a])):
            label = np.minimum(label, line(x, y))
        a, b = frob[a], frob[b]
    return np.unique(label, return_counts=True)


def minimal_codewords_exhaustive(D: DefiningSet, budget: int = DEFAULT_OPS_BUDGET
                                 ) -> tuple[int, bool]:
    """Strict support-containment scan of every F_q-line against one line per
    orbit (module docstring).

    Returns (number of minimal nonzero codewords, whether all are minimal).
    """
    f = D.field
    q, n = f.q, len(D)
    L = (q ** (2 * f.m) - 1) // (q - 1)  # F_q-lines of message pairs
    # an orbit holds at most 4m lines, so R >= ceil(L / 4m): refuse before labelling
    check_budget(L * -(-L // (4 * f.m)) * n, budget, "pairwise minimality scan (lower bound)")
    reps, sizes = _line_orbits(f)
    check_budget(L * reps.size * n, budget, "pairwise minimality scan")
    lines = _line_representatives(q, f.m)
    assert n < 2**24, "float32 support products would be inexact"

    TA, TB = _enumeration_tables(D)

    def supports(k):  # the first Gray half, Tr(alpha a + beta b) != 0
        alpha, beta = np.divmod(k, f.order)
        return TA[alpha] != -TB[beta] % q

    sup = supports(reps)
    w = sup.sum(axis=1)
    sup = sup.T.astype(np.float32)
    dominated = np.zeros(reps.size, dtype=bool)
    for lo in range(0, lines.size, _BLOCK):
        blk = supports(lines[lo:lo + _BLOCK])
        w_blk = blk.sum(axis=1)[:, None]
        # S_i inside S_j is |S_i & S_j| == w_i; it is strict only when w_i < w_j
        inside = (blk.astype(np.float32) @ sup == w_blk) & (0 < w_blk) & (w_blk < w)
        dominated |= inside.any(axis=0)
    return (q - 1) * int(sizes[(w > 0) & ~dominated].sum()), not dominated.any()
