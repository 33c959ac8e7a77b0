"""The zero-trace defining set over F_{q^m} + uF_{q^m}, and its codewords.

The defining set collects every nonzero pair a + ub with Tr(a^2) = 0 and
Tr(b^2) = 0, that is D = Z x Z less (0, 0), Z = {a : Tr(a^2) = 0}; a message
x = alpha + u*beta maps to the vector of ring traces (tr(x d))_{d in D}, whose
Gray image has coordinates Tr(alpha a + beta b), Tr(alpha b + beta a) per
defining-set member.

Every Tr(x z) the count (codes) and the rank test (sss) read comes from
W[i, j] = Tr(x^i z_j) (_trace_rows), read off the Gram matrix of the trace
form, W = Tm . d(Z)^T mod q (gf): Tr is F_q-linear, so Tr(x z_j) =
sum_i x_i W[i, j] over the base-q digits x_i of x (Lidl-Niederreiter, Finite
Fields, Thm 2.23).  codeword() reads two digit products with W.  A defining
set caches results, never these tables: each reader builds the columns of W
it reads, and drops them after.  The census of Q(x) = Tr(x^2)'s classes
(_square_classes) and |Z| from q and m alone (_zero_count) serve both readers.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import DEFAULT_OPS_BUDGET, ContextMismatchError, check_budget
from .gf import Field, _signed_below, quadratic_gauss_sum

if TYPE_CHECKING:
    # ring is imported where it is used, so no spectrum, CWE or minimality run loads it
    from .ring import RingElement, RingVector


class DefiningSet:
    """Nonzero pairs (a, b) of Z x Z in row-major order; Z (zero first) has Tr(z^2) = 0.

    Any listing of Z gives the same code up to a permutation of coordinates.
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
    """Scan F_{q^m} and keep Z in increasing integer order, 0 first; D's pairs
    follow in pair order."""
    _check_scan_budget(field.q, field.m, budget)
    return DefiningSet(field, np.flatnonzero(field.trace_sq_array == 0))


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


_CHUNK = 1 << 16  # rows of H, or elements of Z, per chunk


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


def _zero_count(q: int, m: int) -> int:
    """|Z| (codes._check_count_budget) from q and m alone, for the count's and
    the rank test's prices: it reads neither the field nor the closed table."""
    g = quadratic_gauss_sum(q, m).as_int() if m % 2 == 0 else 0
    return (q**m + (q - 1) * g) // q


def _square_classes(f: Field) -> tuple[np.ndarray, np.ndarray]:
    """The classes of x (codes' module docstring): x = 0, then the first nonzero
    x of each value of Q in increasing order, and the number of x in each class."""
    count, first = _count_and_first(f.trace_sq_array[1:], f.q)
    return np.append(0, 1 + first[count > 0]), np.append(1, count[count > 0])
