"""Minimal-codeword analysis of the Gray image for secret-sharing suitability.

A nonzero codeword is minimal when no other nonzero codeword has strictly
smaller support; support-equal scalar multiples do not disqualify each other.
The sufficient condition w_min / w_max > (q-1)/q is decided by integer
cross-multiplication, q w_min > (q-1) w_max, never floating point; ratios are
reported as (numerator, denominator) pairs in lowest terms.

Where the ratio says nothing, the exhaustive test decides each codeword by one
rank (A. Ashikhmin, A. Barg, "Minimal vectors in linear codes", IEEE Trans.
IT 44(5), 1998; G. N. Alfarano, M. Borello, A. Neri, "A geometric
characterization of minimal codes and their asymptotic performance", Adv.
Math. Commun. 16(1), 2022).  The message x in F_q^(2m) has the value x . g at
the generator column g; let r be the rank of all the columns (gray_rank,
which codes.gray_dimension reports too).  The support of c_y lies inside that
of c_x exactly when y is orthogonal to every column at which c_x vanishes.
For a nonzero c_x those columns lie in the hyperplane of the column space
orthogonal to x, so c_x is minimal iff they span it: their rank is r - 1.
A non-proportional y with an equal support gives a strictly smaller one,
c_x - lambda c_y, so this is the strict definition above.

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
  needs Z to be the quadric itself, as every DefiningSet is by construction.

Both ranks here, gray_rank's and the test's, sample columns on one schedule,
_growing_samples, and rank by one elimination mod q, _rank_mod_q.  The test
reads c = min(n, 8mq) evenly spaced columns, then 4c, 16c, ... and last all
n.  Each class's message is ranked first on c columns.  A subset's rank never
exceeds that of the full zero set, so a rank of r - 1 there makes the message
minimal when its codeword is nonzero, as every nonzero message's is when
r = 2m.  Only the others are ranked on the next sample, and those left at the
last on all n: the subsets set the speed, never the verdict.  Only the
columns a rank reads are built, by their index, from the columns of W at
their b and a (Field.trace_columns); no table of W is kept.

The work is priced (2m)^2 steps per column a rank reads, plus m q^m for the
census of Q's classes and for each of at most q class passes.  Before the
field is built, those and a subset rank for each of at most q^3 + q^2 + q
classes are priced from q and m alone; after, each stage for what it ranks.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING

from ._numpy import np
from ._record import Record
from .defining_set import DefiningSet, _count_and_first, _square_classes, _zero_count
from .errors import (
    DEFAULT_OPS_BUDGET,
    DegenerateSpectrumError,
    LengthMismatchError,
    UnsupportedParametersError,
    check_budget,
)
from .gf import Field

if TYPE_CHECKING:
    from collections.abc import Iterator

    from .spectra import LeeSpectrum

_BATCH = 1 << 20  # codeword entries per batch of zero-set ranks
_GROUPS = 8  # slices of a batch, by zero count, per batched rank


def covers(x, y) -> bool:
    """True iff the support of y is contained in the support of x."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise LengthMismatchError("covers() needs equal-length vectors")
    return not np.any((y != 0) & (x == 0))


def _lowest(num: int, den: int) -> tuple[int, int]:
    """num / den (den > 0) as a (numerator, denominator) pair in lowest terms."""
    g = gcd(num, den)
    return num // g, den // g


def _exceeds_threshold(ratio: tuple[int, int], q: int) -> bool:
    """num / den > (q-1)/q for ratio = (num, den), den > 0, by cross-multiplication."""
    num, den = ratio
    return q * num > (q - 1) * den



class MinimalityReport(Record):
    """(w_min, w_max, ab_ratio, ab_threshold, ab_holds), the ratio and the
    threshold as (numerator, denominator) pairs in lowest terms."""

    __slots__ = ("w_min", "w_max", "ab_ratio", "ab_threshold", "ab_holds")


def ab_check(spectrum: LeeSpectrum, q: int) -> MinimalityReport:
    """Exact sufficient test: all nonzero codewords are minimal when
    w_min / w_max strictly exceeds (q-1)/q, i.e. q w_min > (q-1) w_max."""
    nz = spectrum.nonzero_weights()
    if not nz:
        raise DegenerateSpectrumError("spectrum has no nonzero weight")
    w_min, w_max = nz[0], nz[-1]
    ratio = _lowest(w_min, w_max)
    return MinimalityReport(w_min, w_max, ratio, (q - 1, q), _exceeds_threshold(ratio, q))


class MinimalityRatios(Record):
    """Closed-form w_min/w_max candidates per parity, each a (numerator,
    denominator) pair in lowest terms: (ratios, threshold, holds)."""

    __slots__ = ("ratios", "threshold", "holds")


def minimality_ratios(q: int, m: int) -> MinimalityRatios:
    """Closed-form minimality ratios.

    Odd m (>= 3): the single ratio (q^{2m-3} - q^{(3m-5)/2}) / (q^{2m-3} + q^{(3m-5)/2}).
    Even m (>= 2): both sign cases of the closed table, reported together.
    """
    if m >= 3 and m % 2:
        a = q ** (2 * m - 3)
        y = q ** ((3 * m - 5) // 2)
        ratios = (_lowest(a - y, a + y),)
    elif m >= 2 and m % 2 == 0:
        a = q ** (2 * m - 3)
        y = q ** ((3 * m - 6) // 2)
        z = q ** (m - 2)
        ratios = (
            _lowest(a + (q - 1) * y, a + (2 * q - 1) * y + (q - 1) * z),
            _lowest(a - (2 * q - 1) * y + (q - 1) * z, a - (q - 1) * y),
        )
    else:
        raise UnsupportedParametersError("need odd m >= 3 or even m >= 2")
    return MinimalityRatios(ratios, (q - 1, q), all(_exceeds_threshold(r, q) for r in ratios))


def _rank_mod_q(mats: np.ndarray, q: int) -> int | np.ndarray:
    """Rank mod q of one matrix, or of each matrix in a (B, rows, cols) batch.

    Column by column, each matrix takes its first row that is nonzero there as
    pivot, normalises it and subtracts its multiples from every row, the pivot
    row included.  The pivot row then vanishes, so the rank is the number of
    columns that found a pivot, and the column is zero everywhere and dropped.
    Entries stay below q and every product below (q - 1)^2, which the working
    dtype holds exactly.
    """
    dtype = np.min_scalar_type(-(q - 1) ** 2)
    a = np.asarray(mats) % q
    single = a.ndim == 2
    a = (a[None] if single else a).astype(dtype)
    if a.shape[1] < a.shape[2]:  # eliminate along the shorter side
        a = a.transpose(0, 2, 1)
    inv = np.array([0] + [pow(c, q - 2, q) for c in range(1, q)], dtype=dtype)
    batch = np.arange(a.shape[0])
    rank = np.zeros(a.shape[0], dtype=np.int64)
    while a.shape[2]:
        v = a[:, :, 0]
        piv = a[batch, (v != 0).argmax(axis=1)]  # a zero row where the column is zero
        rank += piv[:, 0] != 0
        piv = piv[:, 1:] * inv[piv[:, 0]][:, None] % q
        a = (a[:, :, 1:] - v[:, :, None] * piv[:, None, :]) % q
    return int(rank[0]) if single else rank


def _growing_samples(n: int, c: int) -> Iterator[np.ndarray]:
    """The one schedule of a sampled rank: evenly spaced index sets into
    range(n) (n >= 1) of c, 4c, 16c, ... indices, capped at n, the last being
    all of range(n).  A set of k holds i n / k rounded down for i < k, without
    forming i n.  A contiguous prefix is a poor subset of Z or of D: a prefix
    of Z in integer order holds only low-degree elements, and D's first |Z|
    columns share one a.  A subset whose rank falls short costs the next, four
    times larger, not all n."""
    while True:
        c = min(n, c)
        i = np.arange(c)
        yield i * (n // c) + i * (n % c) // c
        if c == n:
            return
        c *= 4


def gray_rank(D: DefiningSet) -> int:
    """Rank over F_q of the Gray image, measured on its generator columns.

    The basis messages x^i and u x^i give the column (W[:, a], W[:, b]) at the
    first Gray coordinate of d = (a, b) and (W[:, b], W[:, a]) at the second.
    As 0 is in Z, D holds (a, 0) and (0, b) for every nonzero a and b of Z, and
    every column is the sum of the columns there: the rank is that of the
    block-diagonal matrix of W and W, twice the rank of W.  W has m rows, so
    columns of rank m settle it: the schedule of _growing_samples reads 8m
    evenly spaced columns, then 32m, 128m, ... up to all |Z|, building only
    those, and stops at the first of rank m.
    Cached per defining set: the minimality test and its report both read it.
    """
    if "rank" not in D._cache:
        q, m = D.field.q, D.field.m
        for j in _growing_samples(D.zeros.size, 8 * m):
            rank = _rank_mod_q(D.field.trace_columns(D.zeros[j]), q)
            if rank == m:
                break
        D._cache["rank"] = 2 * rank
    return D._cache["rank"]


def _leading_digit(x: np.ndarray, q: int) -> np.ndarray:
    """The leading base-q digit of each x, on one copy of x divided in place; a
    scalar c in F_q* multiplies every digit of an element by c."""
    x = x.copy()
    while (big := x >= q).any():
        np.floor_divide(x, q, out=x, where=big)
    return x


def _witt_classes(f: Field) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One message (alpha, beta) per class of nonzero messages keyed by
    (relation, Q(alpha), Q(beta), B(alpha, beta)), and the size of each class
    (module docstring): the alphas, the betas and the sizes.

    The census of Q's classes (defining_set._square_classes) gives the alpha = 0
    classes, one per value of Q(beta), and the nonzero alphas, one pass over
    every beta each.  A pass keys beta by Q(beta) q + B(alpha, beta) when the
    two are independent, q^2 + c - 1 when beta = c alpha and q^2 + q - 1 when
    beta = 0, and keeps the first beta of each key.  The nonzero alpha with one
    value of Q form one orbit, so a class's size is its count times their number.
    """
    q = f.q
    n_keys = q * q + q
    tsq = f.trace_sq_array.astype(np.min_scalar_type(n_keys))
    reps, per_q = _square_classes(f)
    alphas, betas, sizes = [np.zeros_like(reps[1:])], [reps[1:]], [per_q[1:]]
    for alpha, size in zip(reps[1:].tolist(), per_q[1:].tolist()):
        # B(alpha, beta) = d(alpha) . Tm . d(beta), below q
        key = tsq * q + f.trace_mul_row(alpha).astype(tsq.dtype)
        for c in range(1, q):
            key[f.mul(c, alpha)] = q * q + c - 1
        key[0] = q * q + q - 1
        count, first = _count_and_first(key, n_keys)
        found = np.flatnonzero(count)
        alphas.append(np.full(found.size, alpha))
        betas.append(first[found])
        sizes.append(count[found] * size)
    return np.concatenate(alphas), np.concatenate(betas), np.concatenate(sizes)


def _columns(D: DefiningSet, Z1: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The generator columns j of the rank test, one per row: (a, b) =
    (Z1[j // |Z|], Z[j % |Z|]) for the first |Z1| |Z|, then (0, Z1[j - |Z1| |Z|]);
    Z1 indexes Z.  A message's row holds the base-q digits of beta, then those
    of alpha, so the column at (a, b) is (W[:, b], W[:, a]):
    x . g = Tr(beta b) + Tr(alpha a), built for those b and a alone."""
    a, b = np.divmod(j, D.zeros.size)
    tail = a >= Z1.size
    b[tail] = Z1[j[tail] - Z1.size * D.zeros.size]
    a = np.where(tail, 0, Z1[np.minimum(a, Z1.size - 1)])  # index 0 of Z is 0
    return np.hstack([D.field.trace_columns(D.zeros[b]).T, D.field.trace_columns(D.zeros[a]).T])


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


def _check_rank_budget(q: int, m: int, budget: int) -> tuple[int, int]:
    """The rank test's price from q and m alone, |D| = |Z|^2 - 1 by
    defining_set._zero_count (module docstring): the census and at most q class
    passes, and a subset rank for each of at most q^3 + q^2 + q classes.
    Returns the first-half columns n, one per F_q*-orbit, and the subset size c."""
    n = (_zero_count(q, m) ** 2 - 1) // (q - 1)
    c = min(n, 8 * m * q)
    check_budget((q + 1) * m * q**m + (q**3 + q**2 + q) * c * (2 * m) ** 2, budget,
                 "minimality rank test (class bound)")
    return n, c


def minimal_codewords_exhaustive(D: DefiningSet, budget: int = DEFAULT_OPS_BUDGET
                                 ) -> tuple[int, bool]:
    """Hyperplane-rank test of one message per class, on one column per
    F_q*-orbit of coordinates, evenly spaced subsets of them first (module
    docstring).

    Returns (number of minimal nonzero codewords, whether all are minimal).
    """
    f = D.field
    q, m = f.q, f.m
    n, c = _check_rank_budget(q, m, budget)
    step = (2 * m) ** 2  # per column a rank reads

    if not n:  # Z = {0}: every codeword is zero
        return 0, True
    alphas, betas, sizes = _witt_classes(f)
    X = np.vstack([f.digits(betas), f.digits(alphas)]).T.astype(np.int64)  # int8 X @ cols.T overflows
    Z1 = 1 + np.flatnonzero(_leading_digit(D.zeros[1:], q) == 1)  # indices into Z
    r = gray_rank(D)

    ranks = np.zeros(sizes.size, dtype=np.int64)
    todo = np.arange(sizes.size)
    cost = 0
    for j in _growing_samples(n, c):
        cost += todo.size * j.size * step
        check_budget(cost, budget, "minimality rank test")
        ranks[todo] = _zero_set_ranks(X[todo], _columns(D, Z1, j), q)
        # with r < 2m some messages give the zero codeword, which a subset cannot tell
        todo = todo[(ranks[todo] != r - 1) | (r < 2 * m)]
        if not todo.size:
            break
    # rank r: the zero codeword; below r - 1: a smaller support exists
    return int(sizes[ranks == r - 1].sum()), not (ranks < r - 1).any()
