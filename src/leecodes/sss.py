"""Minimal-codeword analysis of the Gray image for secret-sharing suitability.

A nonzero codeword is minimal when no other nonzero codeword has strictly
smaller support; support-equal scalar multiples do not disqualify each other.
The sufficient condition w_min / w_max > (q-1)/q is evaluated in exact
rational arithmetic, never floating point.

The exhaustive scan makes four exact reductions.

- One support per F_q-line of messages: scalar multiples share a support.
- One Gray half: the second half of alpha + u*beta at (a, b) is its first
  half at (b, a), and D is closed under that swap, so S_i is inside S_j on
  both halves exactly when it is on the first, and w = 2 |S^1|.
- One coordinate per F_q-line of coordinates: Tr is F_q-linear and cZ = Z
  for c in F_q*, so (c a, c b) is in a support exactly when (a, b) is.  The
  scan reads the first half at one pair per F_q*-orbit of Z x Z less (0, 0):
  (a, b) with a in Z1, and (0, b) with b in Z1, where Z1 holds the nonzero
  elements of Z whose leading base-q digit is 1.  That is
  n = (|Z|^2 - 1)/(q - 1) coordinates, and every first-half weight is q - 1
  times its count there.
- One containing codeword per orbit: (alpha, beta) -> (beta, alpha),
  (alpha, -beta) and Frobenius each permute the coordinates of every
  support by one fixed permutation ((a, b) -> (b, a), (a, -b) and
  (phi^-1 a, phi^-1 b); Z = -Z and Z is Frobenius-stable), so "some nonzero
  codeword has strictly smaller support" is constant on each orbit.

The comparisons are ordered by weight: S_i strictly inside S_j needs
w_i < w_j.  Every weight is read off the trace histograms
H[x, s] = #{z in Z : Tr(x z) = s}, without building a support: the first
half of alpha + u*beta vanishes at the pairs (a, b) of Z x Z with
Tr(alpha a) = -Tr(beta b), so w = |Z|^2 - sum_s H[alpha, s] H[beta, -s].
The lines are sorted by weight and cut into blocks within one weight class,
and the orbit representatives are sorted heaviest first, so each block is
compared only with the prefix of representatives strictly heavier than it:
S_i is inside S_j when |S_i & S_j| == w_i.  The counts are read off a float32
product of 0/1 rows, exact because every entry is an integer at most
n < 2^24.

The scan is priced sum_c L_c R_{>c} n steps, for L_c lines of weight class c
and R_{>c} orbits strictly heavier than c.  An orbit keeps the weight and
holds at most 4m lines, so R_{>c} >= ceil(L_{>c} / 4m); that lower bound,
from the class sizes the distinct rows of H give, refuses an unaffordable
scan before the orbits are labelled or a line is built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._budget import DEFAULT_OPS_BUDGET, check_budget
from .codes import DefiningSet, LeeSpectrum, _enumeration_tables, _trace_histograms
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


def _leading_digit(x: np.ndarray, q: int) -> np.ndarray:
    """The leading base-q digit of each x; a scalar c in F_q* multiplies every
    digit of an element by c."""
    while (x >= q).any():
        x = np.where(x >= q, x // q, x)
    return x


def _line_orbits(f: Field) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the F_q-lines under (alpha, beta) -> (beta, alpha),
    (alpha, -beta) and Frobenius: the smallest line representative of each
    orbit, and the number of lines in it.

    The group these generate acts on lines through 4m maps; each line is
    labelled with the smallest representative among its 4m images.  Scalars
    c in F_q are the elements 0, ..., q-1, so the q rows mul_row(c) hold every
    product the labelling needs; -1 is q - 1.
    """
    q, order = f.q, f.order
    mul = np.stack([f.mul_row(c) for c in range(q)])
    neg = mul[q - 1]
    frob = np.array([f.frobenius(x) for x in f.elements()])
    lead = _leading_digit(np.arange(order), q)
    inv = np.array([0] + [pow(c, q - 2, q) for c in range(1, q)])

    def line(x, y):
        c = inv[np.where(x > 0, lead[x], lead[y])]
        return mul[c, x] * order + mul[c, y]

    lines = _line_representatives(q, f.m)
    label = lines
    a, b = np.divmod(lines, order)
    for _ in range(f.m):
        # the signed swaps modulo the scalar -1: identity, swap, negate beta, both
        for x, y in ((a, b), (b, a), (a, neg[b]), (b, neg[a])):
            label = np.minimum(label, line(x, y))
        a, b = frob[a], frob[b]
    return np.unique(label, return_counts=True)


def _first_half_weights(Ha: np.ndarray, Hb: np.ndarray) -> np.ndarray:
    """First-half Gray weight of alpha + u*beta from the rows H[alpha], H[beta]:
    the |Z|^2 pairs (a, b) of Z x Z less those with Tr(alpha a) = -Tr(beta b),
    which number sum_s H[alpha, s] H[beta, -s] (every row sums to |Z|).  No
    support is built."""
    q = Ha.shape[-1]
    return Ha.sum(axis=-1) ** 2 - (Ha * Hb[..., -np.arange(q) % q]).sum(axis=-1)


def minimal_codewords_exhaustive(D: DefiningSet, budget: int = DEFAULT_OPS_BUDGET
                                 ) -> tuple[int, bool]:
    """Strict support-containment scan of every F_q-line against the heavier
    orbit representatives, on one coordinate per F_q*-orbit (module docstring).

    Returns (number of minimal nonzero codewords, whether all are minimal).
    """
    f = D.field
    q, n = f.q, len(D) // (f.q - 1)  # first-half coordinates, one per F_q*-orbit
    H = _trace_histograms(D)
    # a weight depends only on the two rows of H, so the messages per weight come
    # from the distinct rows; L_c lines per nonzero class c, lightest first, give
    # the lower bound R_{>c} >= ceil(L_{>c} / 4m) (module docstring)
    rows, mult = np.unique(H, axis=0, return_counts=True)
    messages: Counter = Counter()
    for wt, c in zip(_first_half_weights(rows[:, None], rows[None, :]).ravel().tolist(),
                     np.outer(mult, mult).ravel().tolist()):
        messages[wt] += c
    L_c = [messages[wt] // (q - 1) for wt in sorted(messages) if wt]
    L_heavier = [sum(L_c[c + 1:]) for c in range(len(L_c))]
    check_budget(sum(l * -(-h // (4 * f.m)) for l, h in zip(L_c, L_heavier)) * n, budget,
                 "pairwise minimality scan (lower bound)")

    def weights(k):  # counted over the n coordinates the scan reads
        alpha, beta = np.divmod(k, f.order)
        return _first_half_weights(H[alpha], H[beta]) // (q - 1)

    reps, sizes = _line_orbits(f)
    w_rep = weights(reps)
    heaviest_first = np.argsort(-w_rep, kind="stable")
    reps, sizes, w_rep = reps[heaviest_first], sizes[heaviest_first], w_rep[heaviest_first]
    lines = _line_representatives(q, f.m)
    w = weights(lines)
    lines, w = lines[w > 0], w[w > 0]  # the zero codeword dominates nothing
    lightest_first = np.argsort(w, kind="stable")
    lines, w = lines[lightest_first], w[lightest_first]
    heavier = np.searchsorted(-w_rep, -w)  # representatives strictly heavier than each line
    check_budget(int(heavier.sum()) * n, budget, "pairwise minimality scan")
    assert n < 2**24, "float32 support products would be inexact"

    T = _enumeration_tables(D)
    Z1 = 1 + np.flatnonzero(_leading_digit(D.zeros[1:], q) == 1)  # indices into Z
    T1, negT = T[:, Z1], -T % q

    def supports(k):  # Tr(alpha a) + Tr(beta b) != 0 at (a, b) in Z1 x Z, then at (0, Z1)
        alpha, beta = np.divmod(k, f.order)
        pairs = T1[alpha][:, :, None] != negT[beta][:, None, :]
        return np.hstack([pairs.reshape(k.size, -1), T1[beta] != 0]).astype(np.float32)

    sup = supports(reps)
    dominated = np.zeros(reps.size, dtype=bool)
    starts = np.flatnonzero(np.diff(w, prepend=0))  # the first line of each weight class
    for start, end in zip(starts.tolist(), [*starts[1:].tolist(), w.size]):
        R = heavier[start]
        if not R:  # this class and any after it are the heaviest
            break
        for lo in range(start, end, _BLOCK):
            # S_i inside S_j is |S_i & S_j| == w_i, and strictly so as w_i < w_j
            blk = supports(lines[lo:min(lo + _BLOCK, end)])
            dominated[:R] |= (blk @ sup[:R].T == w[start]).any(axis=0)
    return (q - 1) * int(sizes[(w_rep > 0) & ~dominated].sum()), not dominated.any()
