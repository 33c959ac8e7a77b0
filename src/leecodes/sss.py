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
- One message per class: write Q(x) = Tr(x^2) and B(x, y) = Tr(xy), a
  nondegenerate symmetric form on F_q^m with Z = {Q = 0}.  An isometry g of Q
  maps Z onto Z, and B(g alpha, a) = B(alpha, g^-1 a), so the message
  (g alpha, g beta) has the codeword of (alpha, beta) with its coordinates
  permuted by (a, b) -> (g^-1 a, g^-1 b).  By Witt's extension theorem
  (E. Witt, J. reine angew. Math. 176, 1937) two messages lie in one orbit of
  the isometries exactly when they share the key (relation, Q(alpha),
  Q(beta), B(alpha, beta)), the relation being alpha = 0, beta = 0,
  beta = c alpha or independent.  So minimality is constant on each class of
  that key, of which there are at most q^3 + q^2 + q whatever m is.  This
  needs Z to be the quadric itself: any other zero set is refused.

Each class's message is ranked first on c = min(n, 8mq) evenly spaced
columns.  A subset's rank never exceeds that of the full zero set, so a rank
of r - 1 there makes the message minimal when its codeword is nonzero, as
every nonzero message's is when r = 2m.  The others are ranked again on 4c,
16c, ... columns, and last on all n: the subsets set the speed, never the
verdict.  (A contiguous prefix is a poor subset: its first |Z| columns share
one a.)  Only the columns a rank reads are built, by their index.

The work is priced (2m)^2 steps per column a rank reads, plus m q^m per
class pass.  From q, m and |Z| alone, before the field is built, the q + 1
passes and a subset rank for each of at most q^3 + q^2 + q classes are
priced; after the passes, each stage is priced for the classes it ranks.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ._budget import DEFAULT_OPS_BUDGET, check_budget
from ._record import Record
from .codes import (
    DefiningSet,
    LeeSpectrum,
    _evenly_spaced,
    _rank_mod_q,
    _trace_rows,
    gray_rank,
)
from .errors import (
    ContextMismatchError,
    DegenerateSpectrumError,
    LengthMismatchError,
    UnsupportedParametersError,
)
from .gf import Field

_BATCH = 1 << 20  # codeword entries per batch of zero-set ranks
_GROUPS = 8  # slices of a batch, by zero count, per batched rank


def covers(x, y) -> bool:
    """True iff the support of y is contained in the support of x."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise LengthMismatchError("covers() needs equal-length vectors")
    return not np.any((y != 0) & (x == 0))


class MinimalityReport(Record):
    """(w_min, w_max, ab_ratio, ab_threshold, ab_holds), the ratio and the
    threshold as Fractions."""

    __slots__ = ("w_min", "w_max", "ab_ratio", "ab_threshold", "ab_holds")


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


class MinimalityRatios(Record):
    """Closed-form w_min/w_max candidates per parity, as exact rationals:
    (ratios, threshold, holds)."""

    __slots__ = ("ratios", "threshold", "holds")


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


def _leading_digit(x: np.ndarray, q: int) -> np.ndarray:
    """The leading base-q digit of each x; a scalar c in F_q* multiplies every
    digit of an element by c."""
    while (x >= q).any():
        x = np.where(x >= q, x // q, x)
    return x


def _witt_classes(f: Field) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One message (alpha, beta) per class of nonzero messages keyed by
    (relation, Q(alpha), Q(beta), B(alpha, beta)), and the size of each class
    (module docstring): the alphas, the betas and the sizes.

    One pass over every beta for alpha = 0 and for the first nonzero alpha of
    each value of Q.  A pass keys beta by Q(beta) q + B(alpha, beta) when the
    two are independent, q^2 + c - 1 when beta = c alpha and q^2 + q - 1 when
    beta = 0, and keeps the first beta of each key.  The nonzero alpha with one
    value of Q form one orbit, so a class's size is its count in the pass times
    their number.
    """
    q = f.q
    tsq = f.trace_sq_array.astype(np.int32)
    per_q = np.bincount(tsq[1:], minlength=q)  # the nonzero alpha per value of Q
    n_keys = q * q + q
    alphas, betas, sizes = [], [], []
    for alpha in [0] + [1 + int(np.argmax(tsq[1:] == s)) for s in range(q) if per_q[s]]:
        key = tsq * q + f.trace_mul_row(alpha)  # B(alpha, beta) = d(alpha) . Tm . d(beta)
        if alpha:
            for c in range(1, q):  # the digits of c alpha are c times those of alpha
                key[f.element([c * d for d in f.coeffs(alpha)])] = q * q + c - 1
            key[0] = q * q + q - 1
        else:
            key = key[1:]  # (0, 0) is the zero message
        count = np.bincount(key, minlength=n_keys)
        first = np.full(n_keys, key.size)
        np.minimum.at(first, key, np.arange(key.size))
        found = np.flatnonzero(count)
        alphas.append(np.full(found.size, alpha))
        betas.append(first[found] + (alpha == 0))
        sizes.append(count[found] * (per_q[tsq[alpha]] if alpha else 1))
    return np.concatenate(alphas), np.concatenate(betas), np.concatenate(sizes)


def _columns(D: DefiningSet, Z1: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The generator columns j of the rank test, one per row: (a, b) =
    (Z1[j // |Z|], Z[j % |Z|]) for the first |Z1| |Z|, then (0, Z1[j - |Z1| |Z|]);
    Z1 indexes Z.  A message's row holds the base-q digits of beta, then those
    of alpha, so the column at (a, b) is (W[:, b], W[:, a]):
    x . g = Tr(beta b) + Tr(alpha a)."""
    W = _trace_rows(D)  # W[:, 0] = 0: Z starts at 0
    a, b = np.divmod(j, D.zeros.size)
    tail = a >= Z1.size
    b[tail] = Z1[j[tail] - Z1.size * D.zeros.size]
    a = np.where(tail, 0, Z1[np.minimum(a, Z1.size - 1)])
    return np.hstack([W[:, b].T, W[:, a].T])


def _zero_set_ranks(X: np.ndarray, cols: np.ndarray, q: int) -> np.ndarray:
    """For each message (a row of base-q digits in X), the rank of the columns
    of cols (one per row) at which its codeword vanishes.  Each batch of
    messages is ranked in _GROUPS slices of its rows sorted by zero count, so
    that a slice pads each zero set only to the longest in that slice."""
    ranks = np.zeros(len(X), dtype=np.int64)
    step = max(1, _BATCH // max(1, len(cols)))
    for lo in range(0, len(X), step):
        zero = X[lo:lo + step] @ cols.T % q == 0
        counts = zero.sum(axis=1)
        order = np.argsort(counts, kind="stable")
        for rows in np.array_split(order, min(_GROUPS, len(order))):
            # each message's zero columns first, in a slice as long as the longest
            z = zero[rows]
            front = np.argsort(~z, axis=1, kind="stable")[:, :counts[rows[-1]]]
            batch = cols[front] * np.take_along_axis(z, front, axis=1)[..., None]
            ranks[lo + rows] = _rank_mod_q(batch, q)
    return ranks


def _check_rank_budget(q: int, m: int, size: int, budget: int) -> tuple[int, int]:
    """The rank test's price from q, m and |D| = size alone (module docstring):
    the q + 1 class passes and a subset rank for each of at most q^3 + q^2 + q
    classes.  Returns the first-half columns n, one per F_q*-orbit, and the
    subset size c."""
    n = size // (q - 1)
    c = min(n, 8 * m * q)
    check_budget((q + 1) * m * q**m + (q**3 + q**2 + q) * c * (2 * m) ** 2, budget,
                 "minimality rank test (class bound)")
    return n, c


def minimal_codewords_exhaustive(D: DefiningSet, budget: int = DEFAULT_OPS_BUDGET
                                 ) -> tuple[int, bool]:
    """Hyperplane-rank test of one message per class, on one column per
    F_q*-orbit of coordinates, evenly spaced subsets of them first (module
    docstring).  Z must be {x : Tr(x^2) = 0}, as build_defining_set makes it;
    any other D raises ContextMismatchError.

    Returns (number of minimal nonzero codewords, whether all are minimal).
    """
    f = D.field
    q, m = f.q, f.m
    n, c = _check_rank_budget(q, m, len(D), budget)
    step = (2 * m) ** 2  # per column a rank reads

    quadric = np.zeros(f.order, dtype=bool)
    quadric[D.zeros] = True
    if quadric.sum() != D.zeros.size or not np.array_equal(quadric, f.trace_sq_array == 0):
        raise ContextMismatchError("the class route needs Z = {x : Tr(x^2) = 0}")
    if not n:  # Z = {0}: every codeword is zero
        return 0, True
    alphas, betas, sizes = _witt_classes(f)
    digits = q ** np.arange(m)
    X = np.hstack([betas[:, None] // digits % q, alphas[:, None] // digits % q])
    Z1 = 1 + np.flatnonzero(_leading_digit(D.zeros[1:], q) == 1)  # indices into Z
    r = gray_rank(D)

    ranks = np.zeros(sizes.size, dtype=np.int64)
    todo = np.arange(sizes.size)
    cost = 0
    while todo.size:
        cost += todo.size * c * step
        check_budget(cost, budget, "minimality rank test")
        cols = _columns(D, Z1, _evenly_spaced(n, c))
        ranks[todo] = _zero_set_ranks(X[todo], cols, q)
        # with r < 2m some messages give the zero codeword, which a subset cannot tell
        todo = todo[(ranks[todo] != r - 1) | (r < 2 * m)] if c < n else todo[:0]
        c = min(n, 4 * c)
    # rank r: the zero codeword; below r - 1: a smaller support exists
    return int(sizes[ranks == r - 1].sum()), not (ranks < r - 1).any()
