"""The trace code over F_{q^m} + uF_{q^m} from the zero-trace defining set.

The defining set collects every nonzero pair a + ub with Tr(a^2) = 0 and
Tr(b^2) = 0; a message x = alpha + u*beta maps to the vector of ring traces
(tr(x d))_{d in D}, whose Gray image has coordinates Tr(alpha a + beta b),
Tr(alpha b + beta a) per defining-set member.

Two independent routes to the complete weight enumerator are provided: an
exact count over all q^{2m} messages, and one closed-form table instantiated
in exact integer arithmetic.  On both routes the Lee spectrum is the CWE
collapsed to the weight 2n - n_0 (CweSpectrum.to_lee).  Any closed value that
fails integrality or nonnegativity raises instead of rounding.

The count uses D = Z x Z less (0, 0), Z = {a : Tr(a^2) = 0}: each Gray half
of alpha + u*beta has the symbol counts H[alpha] (*) H[beta] less the zero
pair, H[x, s] = #{a in Z : Tr(x a) = s}, so messages with equal rows of H
share one cyclic convolution.  An isometry of Q(x) = Tr(x^2) maps Z onto Z,
and by Witt's extension theorem (E. Witt, J. reine angew. Math. 176, 1937)
the nonzero x with one value of Q form one orbit, so H[x] depends only on
its class, x = 0 or Q(x): at most q + 1 rows, which the count checks against
one census of the classes (_square_classes), which the rank test (sss) reads too.

Every Tr(x z) here and in sss comes from W[i, j] = Tr(x^i z_j) (_trace_rows),
read off the Gram matrix of the trace form, W = Tm . d(Z)^T mod q (gf): Tr is
F_q-linear, so Tr(x z_j) = sum_i x_i W[i, j] over the base-q digits x_i of x
(Lidl-Niederreiter, Finite Fields, Thm 2.23).  The Gray rank and the
minimality test read columns of W, codeword() two digit products with it, and
the count H, built from W's columns by an exact q-ary transform
(_enumeration_tables).  A defining set caches results, never these tables:
each reader builds the columns of W and the H it reads, and drops them after.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ._budget import DEFAULT_OPS_BUDGET, check_budget
from ._record import Record
from .errors import (
    ContextMismatchError,
    NonIntegralExponentError,
    NonIntegralValueError,
    UnsupportedParametersError,
)
from .gf import (
    Field,
    _cyclic_convolve,
    _exact,
    _signed_below,
    make_field,
    quadratic_gauss_sum,
)

if TYPE_CHECKING:
    from collections.abc import Iterator

    # ring is imported where it is used, so no spectrum, CWE or minimality run loads it
    from .ring import RingElement, RingVector


# ----------------------------------------------------------------------
# spectrum containers
# ----------------------------------------------------------------------

class LeeSpectrum(Record):
    """Multiset weight -> multiplicity over all q^{2m} messages: (entries, total)."""

    __slots__ = ("entries", "total")

    def _validate(self):
        if any(w < 0 for w in self.entries):
            raise NonIntegralValueError("negative weight in spectrum")
        if any(c <= 0 for c in self.entries.values()):
            raise NonIntegralValueError("nonpositive multiplicity in spectrum")
        if sum(self.entries.values()) != self.total:
            raise NonIntegralValueError(
                f"spectrum mass {sum(self.entries.values())} != {self.total}"
            )

    def nonzero_weights(self) -> list[int]:
        return sorted(w for w in self.entries if w > 0)

    def min_nonzero(self) -> int:
        return min((w for w in self.entries if w > 0), default=0)

    def records(self) -> list[dict]:
        return [{"weight": w, "multiplicity": self.entries[w]} for w in sorted(self.entries)]


class CweSpectrum(Record):
    """Multiset symbol-composition -> multiplicity for the Gray image:
    (entries, total, gray_length)."""

    __slots__ = ("entries", "total", "gray_length")

    def _validate(self):
        for comp, c in self.entries.items():
            if c <= 0 or any(v < 0 for v in comp):
                raise NonIntegralValueError("bad CWE entry")
            if sum(comp) != self.gray_length:
                raise NonIntegralValueError(
                    f"composition {comp} does not sum to {self.gray_length}"
                )
        if sum(self.entries.values()) != self.total:
            raise NonIntegralValueError("CWE mass mismatch")

    def to_lee(self) -> LeeSpectrum:
        """Collapse each composition to the weight 2n - n_0."""
        acc: Counter = Counter()
        for comp, c in self.entries.items():
            acc[self.gray_length - comp[0]] += c
        return LeeSpectrum(dict(acc), self.total)

    def records(self) -> list[dict]:
        return [
            {"composition": list(comp), "multiplicity": self.entries[comp]}
            for comp in sorted(self.entries)
        ]


# ----------------------------------------------------------------------
# defining set and codewords
# ----------------------------------------------------------------------

class DefiningSet:
    """Nonzero pairs (a, b) of Z x Z in canonical order; Z (zero first) has Tr(z^2) = 0.

    The pair arrays a and b (|Z|^2 - 1 entries each) are built on first use:
    the counts and the minimality scan read only Z.  _cache holds results
    only, the count ("cwe") and the Gray rank ("rank"), never W or H.
    """

    def __init__(self, field: Field, zeros):
        self.field = field
        self.zeros = np.asarray(zeros, dtype=np.int64)
        if self.zeros.size == 0 or self.zeros[0] != 0:  # the first pair dropped must be (0, 0)
            raise ValueError("zeros must list Z with 0 first")
        self._cache: dict[str, object] = {}

    @cached_property
    def a(self) -> np.ndarray:
        return np.repeat(self.zeros, self.zeros.size)[1:]

    @cached_property
    def b(self) -> np.ndarray:
        return np.tile(self.zeros, self.zeros.size)[1:]

    def __len__(self) -> int:
        return self.zeros.size**2 - 1

    @property
    def gray_length(self) -> int:
        return 2 * len(self)

    def member(self, i: int) -> RingElement:
        from .ring import RingElement

        return RingElement(self.field, int(self.a[i]), int(self.b[i]))

    def __repr__(self) -> str:
        return f"DefiningSet(q={self.field.q}, m={self.field.m}, n={len(self)})"


def _check_scan_budget(q: int, m: int, budget: int) -> None:
    """The scan for Z reads each of the q^m elements once."""
    check_budget(q**m, budget, "defining-set scan")


def build_defining_set(field: Field, budget: int = DEFAULT_OPS_BUDGET) -> DefiningSet:
    """Scan F_{q^m} in canonical order and keep Z; D's pairs follow in pair order."""
    _check_scan_budget(field.q, field.m, budget)
    return DefiningSet(field, _in_canonical_order(field, field.trace_sq_array == 0))


def _in_canonical_order(field: Field, mask: np.ndarray) -> np.ndarray:
    """The elements x with mask[x], sorted by coefficient tuple, low degree
    compared first, i.e. by their digit-reversed values.

    Read as a (q,)*m array, the mask has digit i on axis m-1-i; transposing
    reverses the axes, so its flat nonzero indices are the digit-reversed values,
    in increasing order.  Each is reversed back in two halves, the high
    ceil(m/2) digits and the low floor(m/2), by one table of reversals each,
    in place, a _CHUNK of them at a time.
    """
    q, m = field.q, field.m
    out = np.flatnonzero(mask.reshape((q,) * m).T)
    low = m // 2
    rev_low, rev_high = (np.arange(q**n).reshape((q,) * n).T.ravel() for n in (low, m - low))
    for lo in range(0, out.size, _CHUNK):
        # head: digits 0..low-1, reversed
        head, tail = np.divmod(out[lo:lo + _CHUNK], q ** (m - low))
        out[lo:lo + _CHUNK] = rev_low[head] + q**low * rev_high[tail]
    return out


def codeword(x: RingElement, D: DefiningSet) -> RingVector:
    """The vector (tr(x d))_{d in D} over the base ring."""
    from .ring import RingVector

    if x.field != D.field:
        raise ContextMismatchError("message and defining set use different contexts")
    f = D.field
    W = _trace_rows(D)
    # Tr(alpha a + beta b) = Tr(alpha a) + Tr(beta b) over the pairs of Z x Z in
    # row-major order, the first of which, (0, 0), is not in D
    ta = np.array(f.coeffs(x.a)) @ W
    tb = np.array(f.coeffs(x.b)) @ W
    t1 = (ta[:, None] + tb[None, :]).ravel()[1:] % f.q
    t2 = (tb[:, None] + ta[None, :]).ravel()[1:] % f.q
    return RingVector(f.prime_subfield(), t1, t2)


# ----------------------------------------------------------------------
# exhaustive enumeration
# ----------------------------------------------------------------------

def _enumeration_tables(D: DefiningSet) -> np.ndarray:
    """H[x, s] = #{z in Z : Tr(x z) = s}, built on each call.

    Tr(x z_j) = d(x) . W[:, j] mod q over the base-q digits d(x) of x, so H[x, s]
    counts the columns y of W with d(x) . y = s.  Start from the indicator of them,
    F[y_(m-1), ..., y_0, s] = [y is a column and s = 0], and fold one digit axis
    at a time, out[.., x_i, .., s] = sum_a F[.., a, .., s - x_i a]: after all m
    the axes hold x_(m-1), ..., x_0, so the flat index is x.  Each fold is q^(m+2)
    steps, summed a term at a time so no temporary exceeds q^(m+1) entries; W is
    dropped before the first.
    """
    q, m = D.field.q, D.field.m
    r = np.arange(q)
    shift = (r - r[:, None, None] * r[:, None]) % q  # shift[x_i, a, s] = s - x_i a
    F = np.zeros((q,) * m + (q,), dtype=np.int32)  # counts up to |Z|
    F[tuple(_trace_rows(D)[::-1]) + (0,)] = 1  # the columns of W are distinct
    for _ in range(m):
        F = F.reshape(q, -1, q)
        # the leading digit axis comes out as x_i, just before s
        F = sum(F[a][:, shift[:, a]] for a in range(q))
    return F.reshape(-1, q)


_COUNT_TASKS = {"lee": "Lee spectrum enumeration", "cwe": "CWE enumeration"}


_CHUNK = 1 << 16  # rows of H, or elements of Z, per chunk


def _count_and_first(key: np.ndarray, n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """For each value k < n_keys, its count in key and its first index (key.size
    if none), a _CHUNK of key at a time; only a chunk that holds a value new to
    the count is searched for first indices, so the search is O(key.size)."""
    count = np.zeros(n_keys, dtype=np.int64)
    first = np.full(n_keys, key.size, dtype=np.int64)
    for lo in range(0, key.size, _CHUNK):
        chunk = np.bincount(key[lo:lo + _CHUNK], minlength=n_keys)
        if (chunk[count == 0] > 0).any():
            values, index = np.unique(key[lo:lo + _CHUNK], return_index=True)
            first[values] = np.minimum(first[values], lo + index)
        count += chunk
    return count, first


def _check_count_budget(q: int, m: int, budget: int, route: str) -> None:
    """The count's one price, from q and m alone, so a refusal comes before the
    field is built.  Its terms: the transform, m q^(m+2) steps; the check of H
    against its class rows, q^(m+1); the table of Q = Tr(x^2), m q^m; the table W,
    m^2 |Z|; and one length-q convolution per pair of the q + 1 class rows,
    ((q + 1) q)^2.  |Z| = (q^m + sum over c in F_q* of eta(c) g) / q, g the
    quadratic Gauss sum of F_{q^m} and eta its quadratic character, which is 1
    on F_q* at even m and sums to 0 there at odd m."""
    zeros = _zero_count(q, m)
    cost = m * q ** (m + 2) + q ** (m + 1) + m * q**m + m * m * zeros + ((q + 1) * q) ** 2
    check_budget(cost, budget, _COUNT_TASKS[route])


def _zero_count(q: int, m: int) -> int:
    """|Z| (_check_count_budget) from q and m alone, for the count's and the
    rank test's prices: it reads neither the field nor the closed table."""
    g = quadratic_gauss_sum(q, m).as_int() if m % 2 == 0 else 0
    return (q**m + (q - 1) * g) // q


def _square_classes(f: Field) -> tuple[np.ndarray, np.ndarray]:
    """The classes of x (module docstring): x = 0, then the first nonzero x of
    each value of Q in increasing order, and the number of x in each class."""
    count, first = _count_and_first(f.trace_sq_array[1:], f.q)
    return np.append(0, 1 + first[count > 0]), np.append(1, count[count > 0])


def _class_rows(D: DefiningSet) -> tuple[np.ndarray, np.ndarray]:
    """The row of H of each class in the census, and its size.  Every row of H
    is compared with its class's row; a difference raises AssertionError."""
    f = D.field
    H = _enumeration_tables(D)
    Q = f.trace_sq_array
    reps, sizes = _square_classes(f)
    rows = H[reps]
    index = np.zeros(f.q, dtype=np.intp)  # the row of each value of Q
    index[Q[reps[1:]]] = np.arange(1, reps.size)
    for lo in range(1, f.order, _CHUNK):
        off = np.flatnonzero(H[lo:lo + _CHUNK] - rows[index[Q[lo:lo + _CHUNK]]])
        if off.size:
            x = lo + int(off[0]) // f.q
            raise AssertionError(f"H[{x}] differs from the row of its class Q(x) = {Q[x]}")
    return rows, sizes


def _compositions(D: DefiningSet, budget: int, route: str) -> Counter:
    """Multiset over all messages of 2 (H[alpha] (*) H[beta]) - 2 e_0 (module docstring)."""
    q = D.field.q
    _check_count_budget(q, D.field.m, budget, route)
    rows, mult = _class_rows(D)
    rows = rows.astype(np.int64)  # a product of two counts can pass 2^31
    comps = 2 * _cyclic_convolve(rows[:, None], rows[None, :]).reshape(-1, q)
    comps[:, 0] -= 2
    acc: Counter = Counter()
    for comp, c in zip(comps.tolist(), np.outer(mult, mult).ravel().tolist()):
        acc[tuple(comp)] += c
    return acc


def _count(D: DefiningSet, budget: int, route: str) -> CweSpectrum:
    """The composition multiset, counted once per defining set: both public
    counts read it, so a cached count answers whatever the budget.  Neither
    public count calls the other, so a wrapper around one times only its own."""
    if "cwe" not in D._cache:
        comps = _compositions(D, budget, route)
        D._cache["cwe"] = CweSpectrum(dict(comps), D.field.order**2, D.gray_length)
    return D._cache["cwe"]


def lee_spectrum_bruteforce(D: DefiningSet, budget: int = DEFAULT_OPS_BUDGET,
                            threads: int = 1) -> LeeSpectrum:
    """Exact Lee-weight multiset over all q^{2m} messages.

    ``threads`` is accepted for compatibility and ignored.
    """
    return _count(D, budget, "lee").to_lee()


def cwe_bruteforce(D: DefiningSet, budget: int = DEFAULT_OPS_BUDGET,
                   threads: int = 1) -> CweSpectrum:
    """Exact composition multiset of the Gray image over all messages.

    ``threads`` is accepted for compatibility and ignored.
    """
    return _count(D, budget, "cwe")


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------

def _validate_closed_params(q: int, m: int) -> None:
    make_field(q, 1)  # raises for even/composite q
    if m < 2:
        raise UnsupportedParametersError("closed-form tables need m >= 2")


def _closed_cwe_terms(q: int, m: int) -> list[tuple[int, int, int]]:
    """(multiplicity, zero-symbol exponent, common nonzero-symbol exponent)."""
    if m % 2:
        Q0 = 2 * q ** (2 * m - 3)
        Y = q ** ((3 * m - 5) // 2)
        Z = q ** (m - 2)
        B = q ** (m - 1)
        S = q ** ((m - 1) // 2)
        sq = q ** (2 * m - 2)
        P0 = (2 * q - 1) * sq - 2 * (q - 1) * B - 1
        # of each +-Y and +-Z pair, the larger class has the smaller weight: the
        # pairing enumeration gives, and the one that keeps the per-symbol first
        # power moment sum(n_s) = 2n q^(2m-1) for every nonzero s
        return [
            (1, 2 * sq - 2, 0),
            (P0, Q0 - 2, Q0),
            ((q - 1) * (B + S), Q0 + 2 * (q - 1) * Y - 2, Q0 - 2 * Y),
            ((q - 1) * (B - S), Q0 - 2 * (q - 1) * Y - 2, Q0 + 2 * Y),
            (_exact((q - 1) ** 2 * (sq + B), 2), Q0 + 2 * (q - 1) * Z - 2, Q0 - 2 * Z),
            (_exact((q - 1) ** 2 * (sq - B), 2), Q0 - 2 * (q - 1) * Z - 2, Q0 + 2 * Z),
        ]
    g = quadratic_gauss_sum(q, m).as_int()
    # q times the table's P2, P3 - 1 and Q2, which are integers over q at m = 2;
    # Q3 = 2(q - 1) q^(m-2) is an integer
    P2 = 2 * q ** (2 * m - 2) + 4 * g * (q - 1) * q ** (m - 2)
    P3 = q**m + (q - 1) * g - q
    Q2 = (q - 1) * (q**m - g)
    Q3 = 2 * (q - 1) * q ** (m - 2)

    def exponent(num: int, den: int = q) -> int:
        return _exact(num, den, exponent=True)

    return [
        (1, exponent(2 * (P3 + q) ** 2 - 2 * q * q, q * q), 0),
        (_exact(2 * P3, q), exponent(P2 + Q3 * (q - 1) * (q + g) - 2 * q),
         exponent(P2 - Q3 * g)),
        (_exact(2 * Q2, q), exponent(P2 - Q3 * g - 2 * q),
         exponent(P2 + Q3 * q + 2 * g * q ** (m - 2))),
        (_exact(P3**2, q * q), exponent(P2 + (q - 1) * Q3 * q - 2 * q), exponent(P2)),
        (_exact(2 * Q2 * P3, q * q), exponent(P2 - 2 * q), exponent(P2 + Q3 * q)),
        (_exact(Q2**2, q * q), exponent(P2 + Q3 * q - 2 * q),
         exponent(P2 + 2 * (q - 2) * q ** (m - 1))),
    ]


def gray_image_length(q: int, m: int) -> int:
    """2n for the closed-form table: the zero codeword's zero-symbol count."""
    _validate_closed_params(q, m)
    return _closed_cwe_terms(q, m)[0][1]


def cwe_closed(q: int, m: int) -> CweSpectrum:
    """Closed-form complete weight enumerator for the Gray image."""
    _validate_closed_params(q, m)
    terms = _closed_cwe_terms(q, m)
    two_n = terms[0][1]  # the zero codeword's n_0, as in gray_image_length
    acc: Counter = Counter()
    for mult, n0, ni in terms:
        if mult == 0:
            continue
        if mult < 0:
            raise NonIntegralValueError(f"negative multiplicity {mult}")
        if n0 < 0 or ni < 0:
            raise NonIntegralExponentError(f"negative exponent in term ({n0}, {ni})")
        if n0 + (q - 1) * ni != two_n:
            raise NonIntegralExponentError(
                f"term exponents {n0} + {q - 1}*{ni} != {two_n}"
            )
        acc[(n0,) + (ni,) * (q - 1)] += mult
    return CweSpectrum(dict(acc), q ** (2 * m), two_n)


def lee_spectrum_closed(q: int, m: int) -> LeeSpectrum:
    """Closed-form Lee spectrum: the closed CWE collapsed by CweSpectrum.to_lee,
    as the count's Lee spectrum is the collapse of its CWE."""
    return cwe_closed(q, m).to_lee()


# ----------------------------------------------------------------------
# Gray-image rank and diagnostics
# ----------------------------------------------------------------------

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


def _trace_rows(D: DefiningSet, j=slice(None)) -> np.ndarray:
    """The columns j of W, W[i, j] = Tr(x^i z_j) = (Tm . d(z_j))_i mod q, in the
    dtype of trace_array, built on each call: the one source of Tr(x z), since
    Tr(x z_j) = sum_i x_i W[i, j] over the base-q digits x_i of x.  j indexes Z
    (a slice, or an index array that may repeat).  A _CHUNK of columns at a
    time, the m products Tm[:, k] d_k(z_j) are summed in the narrowest signed
    dtype that holds m (q - 1)^2."""
    f = D.field
    zeros = D.zeros[j]
    acc = _signed_below(f.m * (f.q - 1) ** 2 + 1)
    Tm = f.Tm.astype(acc)[:, :, None]
    W = np.empty((f.m, zeros.size), dtype=np.min_scalar_type(1 - f.q))
    for lo in range(0, zeros.size, _CHUNK):
        rest = zeros[lo:lo + _CHUNK]
        total = np.zeros((f.m, rest.size), dtype=acc)
        for k in range(f.m):
            rest, digit = np.divmod(rest, f.q)
            total += Tm[:, k] * digit.astype(acc)
        W[:, lo:lo + _CHUNK] = total % f.q
    return W


def _growing_samples(n: int, c: int) -> Iterator[np.ndarray]:
    """The one schedule of a sampled rank: evenly spaced index sets into
    range(n) (n >= 1) of c, 4c, 16c, ... indices, capped at n, the last being
    all of range(n).  A set of k holds i n / k rounded down for i < k, without
    forming i n.  A contiguous prefix is a poor subset of Z or of D: Z is in
    canonical order, and D's first |Z| columns share one a.  A subset whose
    rank falls short costs the next, four times larger, not all n."""
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
            rank = _rank_mod_q(_trace_rows(D, j), q)
            if rank == m:
                break
        D._cache["rank"] = 2 * rank
    return D._cache["rank"]


class GrayReport(Record):
    """(rank, min_lee_weight, gray_length, module_generators); the last is the
    degree of the message module over the base ring."""

    __slots__ = ("rank", "min_lee_weight", "gray_length", "module_generators")


def gray_dimension(D: DefiningSet, budget: int = DEFAULT_OPS_BUDGET) -> GrayReport:
    """Measured rank of the Gray image plus its minimum nonzero Lee weight."""
    spec = lee_spectrum_bruteforce(D, budget=budget)
    return GrayReport(gray_rank(D), spec.min_nonzero(), 2 * len(D), D.field.m)
