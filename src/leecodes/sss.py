"""Minimal-codeword analysis of the Gray image for secret-sharing suitability.

A nonzero codeword is minimal when no other nonzero codeword has strictly
smaller support; support-equal scalar multiples do not disqualify each other.
The sufficient condition w_min / w_max > (q-1)/q is evaluated in exact
rational arithmetic, never floating point.

Where the ratio says nothing, the exhaustive test decides each codeword by one
rank (A. Ashikhmin, A. Barg, "Minimal vectors in linear codes", IEEE Trans.
IT 44(5), 1998; G. N. Alfarano, M. Borello, A. Neri, "A geometric
characterization of minimal codes and their asymptotic performance", Adv.
Math. Commun. 16(1), 2022).  The message x in F_q^(2m) has the value x . g at
the generator column g; let r be the rank of all the columns
(codes.gray_rank).  The support of c_y lies inside that of c_x exactly when y
is orthogonal to every column at which c_x vanishes.  For a nonzero c_x those
columns lie in the hyperplane of the column space orthogonal to x, so c_x is
minimal iff they span it: their rank is r - 1.  A non-proportional y with an
equal support gives a strictly smaller one, c_x - lambda c_y, so this is the
strict definition above.

The test keeps three exact reductions.

- One Gray half: the second-half column at (a, b) is the first-half column at
  (b, a), and D is closed under that swap, so both halves give one set of
  columns.
- One coordinate per F_q*-orbit: Tr is F_q-linear and cZ = Z for c in F_q*,
  so the column at (c a, c b) is c times the one at (a, b) and spans the same
  line.  The test reads (a, b) with a in Z1, and (0, b) with b in Z1, where Z1
  holds the nonzero elements of Z whose leading base-q digit is 1: that is
  n = (|Z|^2 - 1)/(q - 1) columns.
- One message per orbit: scalar multiples share a support, and
  (alpha, beta) -> (beta, alpha), (alpha, -beta) and Frobenius each permute
  the coordinates of every support by one fixed permutation ((a, b) -> (b, a),
  (a, -b) and (phi^-1 a, phi^-1 b); Z = -Z and Z is Frobenius-stable), so
  minimality is constant on each orbit of F_q-lines.

Each orbit representative is tested first on c = min(n, 8mq) evenly spaced
columns.  A subset's rank never exceeds that of the full zero set, so a rank
of r - 1 there makes the representative minimal when its codeword is nonzero,
as every nonzero message's is when r = 2m.  Only the others get a full
zero-set rank: the subset sets the speed, never the verdict.  (A contiguous prefix is a poor
subset: its first |Z| columns share one a.)

The work is priced (2m)^2 steps per column a rank reads: R c for the subset
pass over R representatives, plus n per full check.  An orbit holds at most
4m lines, so R >= ceil(L / 4m) for the L F_q-lines; that lower bound needs
only q, m and |Z|, and refuses an unaffordable test before a line or a table
is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._budget import DEFAULT_OPS_BUDGET, check_budget
from .codes import DefiningSet, LeeSpectrum, _rank_mod_q, _trace_rows, gray_rank
from .errors import DegenerateSpectrumError, LengthMismatchError, UnsupportedParametersError
from .gf import Field

_BATCH = 1 << 20  # codeword entries per batch of zero-set ranks


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
    frob = f.power_row(q)
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


def _zero_set_ranks(X: np.ndarray, cols: np.ndarray, q: int) -> np.ndarray:
    """For each message (a row of base-q digits in X), the rank of the columns
    of cols (one per row) at which its codeword vanishes."""
    ranks = np.zeros(len(X), dtype=np.int64)
    step = max(1, _BATCH // max(1, len(cols)))
    for lo in range(0, len(X), step):
        zero = X[lo:lo + step] @ cols.T % q == 0
        # each message's zero columns first, in a slice as long as the longest
        front = np.argsort(~zero, axis=1, kind="stable")[:, :zero.sum(axis=1).max()]
        batch = cols[front] * np.take_along_axis(zero, front, axis=1)[..., None]
        ranks[lo:lo + step] = _rank_mod_q(batch, q)
    return ranks


def minimal_codewords_exhaustive(D: DefiningSet, budget: int = DEFAULT_OPS_BUDGET
                                 ) -> tuple[int, bool]:
    """Hyperplane-rank test of one message per orbit, on one column per
    F_q*-orbit of coordinates, a subset of them first (module docstring).

    Returns (number of minimal nonzero codewords, whether all are minimal).
    """
    f = D.field
    q, m = f.q, f.m
    n = len(D) // (q - 1)  # first-half columns, one per F_q*-orbit
    c = min(n, 8 * m * q)
    step = (2 * m) ** 2  # per column a rank reads
    lines = (q ** (2 * m) - 1) // (q - 1)
    check_budget(-(-lines // (4 * m)) * c * step, budget, "minimality rank test (lower bound)")

    reps, sizes = _line_orbits(f)
    # k = alpha q^m + beta has the base-q digits of beta, then those of alpha, so
    # the column at (a, b) is (W[:, b], W[:, a]): x . g = Tr(beta b) + Tr(alpha a)
    X = reps[:, None] // q ** np.arange(2 * m) % q
    W = _trace_rows(D).T  # row j: Tr(x^i z_j) over i
    Z1 = 1 + np.flatnonzero(_leading_digit(D.zeros[1:], q) == 1)  # indices into Z
    # (a, b) for a in Z1 and b in Z, then (0, b) for b in Z1
    Wb = np.vstack([np.tile(W, (Z1.size, 1)), W[Z1]])
    Wa = np.vstack([np.repeat(W[Z1], D.zeros.size, axis=0), 0 * W[Z1]])
    G = np.hstack([Wb, Wa])
    r = gray_rank(D)

    ranks = _zero_set_ranks(X, G[np.arange(c) * n // c], q)
    # with r < 2m some messages give the zero codeword, which a subset cannot tell
    full = ((ranks != r - 1) | (r < 2 * m)) & (c < n)
    check_budget((reps.size * c + int(full.sum()) * n) * step, budget, "minimality rank test")
    ranks[full] = _zero_set_ranks(X[full], G, q)
    # rank r: the zero codeword; below r - 1: a smaller support exists
    return (q - 1) * int(sizes[ranks == r - 1].sum()), not (ranks < r - 1).any()
