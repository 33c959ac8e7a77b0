"""The count: the Gray image's CWE and Lee spectrum over all q^{2m} messages.

This is the exhaustive route to the complete weight enumerator; the closed
route is spectra.  Both give the Lee spectrum as the CWE collapsed to the
weight 2n - n_0 (CweSpectrum.to_lee), and the CLI compares them.  The names
the CLI calls on both routes are read here, codes.build_defining_set and
codes.cwe_closed among them, so that replacing a module attribute reaches it.

The count uses D = Z x Z less (0, 0), Z = {a : Tr(a^2) = 0} (defining_set):
each Gray half of alpha + u*beta has the symbol counts H[alpha] (*) H[beta]
less the zero pair, H[x, s] = #{a in Z : Tr(x a) = s}, so messages with equal
rows of H share one cyclic convolution.  An isometry of Q(x) = Tr(x^2) maps Z
onto Z, and by Witt's extension theorem (E. Witt, J. reine angew. Math. 176,
1937) the nonzero x with one value of Q form one orbit, so H[x] depends only
on its class, x = 0 or Q(x): at most q + 1 rows, which the count checks
against one census of the classes (defining_set._square_classes), which the
rank test (sss) reads too.  H is built from W = Field.trace_columns(Z) by
an exact q-ary transform (_enumeration_tables) on each call, and dropped
after: a defining set caches the count only.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from ._numpy import np
from ._record import Record
from .defining_set import _square_classes, _zero_count
from .errors import DEFAULT_OPS_BUDGET, check_budget
from .gf import _CHUNK, _cyclic_convolve
from .spectra import CweSpectrum

# the CLI calls these through codes, as it calls the counts (module docstring)
from .defining_set import build_defining_set  # noqa: F401
from .spectra import cwe_closed, lee_spectrum_closed  # noqa: F401

if TYPE_CHECKING:
    from .defining_set import DefiningSet
    from .spectra import LeeSpectrum


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
    F[tuple(D.field.trace_columns(D.zeros)[::-1]) + (0,)] = 1  # the columns of W are distinct
    for _ in range(m):
        F = F.reshape(q, -1, q)
        # the leading digit axis comes out as x_i, just before s
        F = sum(F[a][:, shift[:, a]] for a in range(q))
    return F.reshape(-1, q)


_COUNT_TASKS = {"lee": "Lee spectrum enumeration", "cwe": "CWE enumeration"}


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
# diagnostics
# ----------------------------------------------------------------------

class GrayReport(Record):
    """(rank, min_lee_weight, gray_length, module_generators); the last is the
    degree of the message module over the base ring."""

    __slots__ = ("rank", "min_lee_weight", "gray_length", "module_generators")


def gray_dimension(D: DefiningSet, budget: int = DEFAULT_OPS_BUDGET) -> GrayReport:
    """Measured rank of the Gray image plus its minimum nonzero Lee weight."""
    from .sss import gray_rank

    spec = lee_spectrum_bruteforce(D, budget=budget)
    return GrayReport(gray_rank(D), min(spec.nonzero_weights(), default=0), 2 * len(D), D.field.m)
