"""The trace code over F_{q^m} + uF_{q^m} from the zero-trace defining set.

The defining set collects every nonzero pair a + ub with Tr(a^2) = 0 and
Tr(b^2) = 0; a message x = alpha + u*beta maps to the vector of ring traces
(tr(x d))_{d in D}, whose Gray image has coordinates Tr(alpha a + beta b),
Tr(alpha b + beta a) per defining-set member.

Two independent routes to the Lee spectrum and the complete weight
enumerator are provided: an exact count over all q^{2m} messages, and
closed-form tables instantiated in exact integer arithmetic.  Any closed
value that fails integrality or nonnegativity raises instead of rounding.

The count uses D = Z x Z less (0, 0), Z = {a : Tr(a^2) = 0}: each Gray half
of alpha + u*beta has the symbol counts H[alpha] (*) H[beta] less the zero
pair, H[x, s] = #{a in Z : Tr(x a) = s}, so messages with equal rows of H
share one cyclic convolution.

Every Tr(x z) here and in sss comes from W[i, j] = Tr(x^i z_j) (_trace_rows):
Tr is F_q-linear, so Tr(x z_j) = sum_i x_i W[i, j] over the base-q digits x_i
of x (Lidl-Niederreiter, Finite Fields, Thm 2.23).  The Gray rank and the
minimality test read W, codeword() two digit products with it, and the count
H, built from W's columns by an exact q-ary transform (_enumeration_tables).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ._budget import DEFAULT_OPS_BUDGET, check_budget
from .errors import (
    ContextMismatchError,
    NonIntegralExponentError,
    NonIntegralValueError,
    UnsupportedParametersError,
)
from .gf import Field, _cyclic_convolve, make_field, quadratic_gauss_sum

if TYPE_CHECKING:
    # ring is imported where it is used, so no spectrum, CWE or minimality run loads it
    from .ring import RingElement, RingVector


# ----------------------------------------------------------------------
# spectrum containers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LeeSpectrum:
    """Multiset weight -> multiplicity over all q^{2m} messages."""

    entries: dict[int, int]
    total: int

    def __post_init__(self):
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


@dataclass(frozen=True)
class CweSpectrum:
    """Multiset symbol-composition -> multiplicity for the Gray image."""

    entries: dict[tuple[int, ...], int]
    total: int
    gray_length: int

    def __post_init__(self):
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
    the counts and the minimality scan read only Z.
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
    elements = field.canonical_elements()
    return DefiningSet(field, elements[field.trace_sq_array[elements] == 0])


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
    """H[x, s] = #{z in Z : Tr(x z) = s}, cached per defining set.

    Tr(x z_j) = d(x) . W[:, j] mod q over the base-q digits d(x) of x, so H[x, s]
    counts the columns y of W with d(x) . y = s.  Start from the indicator of them,
    F[y_(m-1), ..., y_0, s] = [y is a column and s = 0], and fold one digit axis
    at a time, out[.., x_i, .., s] = sum_a F[.., a, .., s - x_i a]: after all m
    the axes hold x_(m-1), ..., x_0, so the flat index is x.  Each fold is q^(m+2)
    steps, summed a term at a time so no temporary exceeds q^(m+1) entries.
    """
    if "H" not in D._cache:
        q, m = D.field.q, D.field.m
        r = np.arange(q)
        shift = (r - r[:, None, None] * r[:, None]) % q  # shift[x_i, a, s] = s - x_i a
        F = np.zeros((q,) * m + (q,), dtype=np.int64)
        F[tuple(_trace_rows(D)[::-1]) + (0,)] = 1  # the columns of W are distinct
        for _ in range(m):
            F = F.reshape(q, -1, q)
            # the leading digit axis comes out as x_i, just before s
            F = sum(F[a][:, shift[:, a]] for a in range(q))
        D._cache["H"] = F.reshape(-1, q)
    return D._cache["H"]


_COUNT_TASKS = {"lee": "Lee spectrum enumeration", "cwe": "CWE enumeration"}


def _check_count_budget(q: int, m: int, budget: int, route: str) -> int:
    """The count's price before its convolutions, from q and m alone: the
    transform, m q^(m+2) steps, and the gather of H, q^(m+1).  Returns it."""
    cost = m * q ** (m + 2) + q ** (m + 1)
    check_budget(cost, budget, _COUNT_TASKS[route])
    return cost


def _compositions(D: DefiningSet, budget: int, route: str) -> Counter:
    """Multiset over all messages of 2 (H[alpha] (*) H[beta]) - 2 e_0 (module docstring)."""
    q = D.field.q
    cost = _check_count_budget(q, D.field.m, budget, route)
    rows, mult = np.unique(_enumeration_tables(D), axis=0, return_counts=True)
    # then one length-q convolution per pair of the U distinct rows
    check_budget(cost + (rows.shape[0] * q) ** 2, budget, _COUNT_TASKS[route])
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

def _as_count(x: Fraction) -> int:
    if x.denominator != 1:
        raise NonIntegralValueError(f"multiplicity is not integral: {x}")
    return int(x)


def _as_exponent(x: Fraction) -> int:
    if x.denominator != 1:
        raise NonIntegralExponentError(f"enumerator exponent is not integral: {x}")
    return int(x)


def _validate_closed_params(q: int, m: int) -> None:
    make_field(q, 1)  # raises for even/composite q
    if m < 2:
        raise UnsupportedParametersError("closed-form tables need m >= 2")


def _closed_rows(q: int, m: int) -> list[tuple[Fraction, Fraction]]:
    """(weight, multiplicity) rows for the nonzero-message classes."""
    F = Fraction
    if m % 2:
        A = F(q) ** (2 * m - 3)
        Y = F(q) ** ((3 * m - 5) // 2)
        Z = F(q) ** (m - 2)
        B = F(q) ** (m - 1)
        S = F(q) ** ((m - 1) // 2)
        sq = F(q) ** (2 * m - 2)
        # the +-Y weights carry the complementary multiplicities: the smaller
        # weight is the larger class. Enumeration agrees, and so does the first
        # power moment sum(wt) = 2n(q-1)q^(2m-1) (every Gray coordinate is a
        # nonzero linear form of the message), which the opposite pairing breaks
        return [
            (2 * (q - 1) * A, (2 * q - 1) * sq - 2 * (q - 1) * B - 1),
            (2 * (q - 1) * (A - Y), (q - 1) * (B + S)),
            (2 * (q - 1) * (A + Y), (q - 1) * (B - S)),
            (2 * (q - 1) * (A - Z), F((q - 1) ** 2, 2) * (sq + B)),
            (2 * (q - 1) * (A + Z), F((q - 1) ** 2, 2) * (sq - B)),
        ]
    g = quadratic_gauss_sum(q, m).as_int()
    A = F(q) ** (2 * m - 3)
    gm3 = g * F(q) ** (m - 3)
    Zm2 = F(q) ** (m - 2)
    P3 = F(q) ** (m - 1) + F((q - 1) * g, q)
    Q2f = F(q) ** (m - 1) - F(g, q)
    w1 = 2 * (q - 1) * A + 2 * (q - 1) ** 2 * gm3
    w2 = 2 * (q - 1) * A + 2 * (q - 1) * (2 * q - 1) * gm3 + 2 * (q - 1) ** 2 * Zm2
    w3 = 2 * (q - 1) * A + 4 * (q - 1) ** 2 * gm3
    return [
        (w1, 2 * (P3 - 1)),
        (w2, 2 * (q - 1) * Q2f),
        (w3, (P3 - 1) ** 2),
        (w3 + 2 * (q - 1) ** 2 * Zm2, 2 * (q - 1) * Q2f * (P3 - 1)),
        (w3 + 2 * (q - 1) * (q - 2) * Zm2, ((q - 1) * Q2f) ** 2),
    ]


def lee_spectrum_closed(q: int, m: int) -> LeeSpectrum:
    """Closed-form Lee spectrum, exact and mass-checked.

    Rows with zero multiplicity are dropped before validation; colliding
    weights (possible at m=2) are merged.
    """
    _validate_closed_params(q, m)
    acc: Counter = Counter()
    acc[0] = 1
    for w, f in _closed_rows(q, m):
        mult = _as_count(f)
        if mult == 0:
            continue
        if mult < 0:
            raise NonIntegralValueError(f"negative multiplicity {mult}")
        weight = _as_count(w)
        if weight < 0:
            raise NonIntegralValueError(f"negative weight {weight}")
        acc[weight] += mult
    return LeeSpectrum(dict(acc), q ** (2 * m))


def _closed_cwe_terms(q: int, m: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(multiplicity, zero-symbol exponent, common nonzero-symbol exponent)."""
    F = Fraction
    if m % 2:
        Q0 = 2 * F(q) ** (2 * m - 3)
        Y = F(q) ** ((3 * m - 5) // 2)
        Z = F(q) ** (m - 2)
        B = F(q) ** (m - 1)
        S = F(q) ** ((m - 1) // 2)
        sq = F(q) ** (2 * m - 2)
        P0 = (2 * q - 1) * sq - 2 * (q - 1) * B - 1
        # large class on the weight-minimal term, mirroring _closed_rows: the
        # pairing enumeration gives, and the one that keeps the per-symbol first
        # power moment sum(n_s) = 2n q^(2m-1) for every nonzero s
        return [
            (F(1), 2 * sq - 2, F(0)),
            (P0, Q0 - 2, Q0),
            ((q - 1) * (B + S), Q0 + 2 * (q - 1) * Y - 2, Q0 - 2 * Y),
            ((q - 1) * (B - S), Q0 - 2 * (q - 1) * Y - 2, Q0 + 2 * Y),
            (F((q - 1) ** 2, 2) * (sq + B), Q0 + 2 * (q - 1) * Z - 2, Q0 - 2 * Z),
            (F((q - 1) ** 2, 2) * (sq - B), Q0 - 2 * (q - 1) * Z - 2, Q0 + 2 * Z),
        ]
    g = quadratic_gauss_sum(q, m).as_int()
    P2 = 2 * F(q) ** (2 * m - 3) + 4 * g * (q - 1) * F(q) ** (m - 3)
    Q2 = (q - 1) * (F(q) ** (m - 1) - F(g, q))
    P3 = F(q) ** (m - 1) + F((q - 1) * g, q)
    Q3 = 2 * (q - 1) * F(q) ** (m - 2)
    return [
        (F(1), 2 * P3**2 - 2, F(0)),
        (2 * (P3 - 1), P2 + Q3 * (q - 1) * F(q + g, q) - 2, P2 - Q3 * F(g, q)),
        (2 * Q2, P2 - Q3 * F(g, q) - 2, P2 + Q3 + 2 * g * F(q) ** (m - 3)),
        ((P3 - 1) ** 2, P2 + (q - 1) * Q3 - 2, P2),
        (2 * Q2 * (P3 - 1), P2 - 2, P2 + Q3),
        (Q2**2, P2 + Q3 - 2, P2 + 2 * (q - 2) * F(q) ** (m - 2)),
    ]


def gray_image_length(q: int, m: int) -> int:
    """2n for the closed-form tables: the zero codeword's zero-symbol count."""
    _validate_closed_params(q, m)
    return _as_exponent(_closed_cwe_terms(q, m)[0][1])


def cwe_closed(q: int, m: int) -> CweSpectrum:
    """Closed-form complete weight enumerator for the Gray image."""
    _validate_closed_params(q, m)
    terms = _closed_cwe_terms(q, m)
    two_n = _as_exponent(terms[0][1])  # the zero codeword's n_0, as in gray_image_length
    acc: Counter = Counter()
    for mult_f, n0_f, ni_f in terms:
        mult = _as_count(mult_f)
        if mult == 0:
            continue
        if mult < 0:
            raise NonIntegralValueError(f"negative multiplicity {mult}")
        n0 = _as_exponent(n0_f)
        ni = _as_exponent(ni_f)
        if n0 < 0 or ni < 0:
            raise NonIntegralExponentError(f"negative exponent in term ({n0}, {ni})")
        if n0 + (q - 1) * ni != two_n:
            raise NonIntegralExponentError(
                f"term exponents {n0} + {q - 1}*{ni} != {two_n}"
            )
        acc[(n0,) + (ni,) * (q - 1)] += mult
    return CweSpectrum(dict(acc), q ** (2 * m), two_n)


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


def _trace_rows(D: DefiningSet) -> np.ndarray:
    """W[i, j] = Tr(x^i z_j) in the dtype of trace_array, cached per defining set:
    the one source of Tr(x z), since Tr(x z_j) = sum_i x_i W[i, j] over the
    base-q digits x_i of x."""
    if "W" not in D._cache:
        f = D.field
        D._cache["W"] = np.stack([f.trace_array[f.mul_row(f.q**i)[D.zeros]]
                                  for i in range(f.m)])
    return D._cache["W"]


def gray_rank(D: DefiningSet) -> int:
    """Rank over F_q of the Gray image, measured on its generator columns.

    The basis messages x^i and u x^i give the column (W[:, a], W[:, b]) at the
    first Gray coordinate of d = (a, b) and (W[:, b], W[:, a]) at the second.
    As 0 is in Z, D holds (a, 0) and (0, b) for every nonzero a and b of Z, and
    every column is the sum of the columns there: the rank is that of the
    block-diagonal matrix of W and W, twice the rank of W.  Cached per
    defining set: the minimality test and its report both read it.
    """
    if "rank" not in D._cache:
        D._cache["rank"] = 2 * _rank_mod_q(_trace_rows(D), D.field.q)
    return D._cache["rank"]


@dataclass(frozen=True)
class GrayReport:
    rank: int
    min_lee_weight: int
    gray_length: int
    module_generators: int  # degree of the message module over the base ring


def gray_dimension(D: DefiningSet, budget: int = DEFAULT_OPS_BUDGET) -> GrayReport:
    """Measured rank of the Gray image plus its minimum nonzero Lee weight."""
    spec = lee_spectrum_bruteforce(D, budget=budget)
    return GrayReport(gray_rank(D), spec.min_nonzero(), 2 * len(D), D.field.m)


def defining_set_census(field: Field) -> dict[str, int]:
    """Sizes of the two readings of the ambient set: all nonzero pairs with
    vanishing squared traces vs only the units among them."""
    tsq = field.trace_sq_array
    zeros = [int(x) for x in np.nonzero(tsq == 0)[0]]
    zset = set(zeros)
    z = len(zeros)
    units = 0
    for a in zeros:
        na = field.neg(a)
        excluded = len({na, a} & zset)
        units += z - excluded
    return {"nonzero_count": z * z - 1, "unit_count": units}
