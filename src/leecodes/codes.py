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
share one cyclic convolution.  The per-coordinate trace tables TA, TB
(_enumeration_tables) serve only the minimality scan, which needs supports.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from ._budget import DEFAULT_OPS_BUDGET, check_budget
from .charsums import _cyclic_convolve, quadratic_gauss_sum
from .errors import (
    ContextMismatchError,
    NonIntegralExponentError,
    NonIntegralValueError,
    UnsupportedParametersError,
)
from .gf import Field, make_field

if TYPE_CHECKING:
    # ring is imported where it is used, so a spectrum or CWE run never loads it
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

    def max_weight(self) -> int:
        return max(self.entries)

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
    """Nonzero pairs (a, b) of Z x Z in canonical order; Z (zero first) has Tr(z^2) = 0."""

    def __init__(self, field: Field, zeros):
        self.field = field
        self.zeros = np.asarray(zeros, dtype=np.int64)
        if self.zeros.size == 0 or self.zeros[0] != 0:  # the first pair dropped must be (0, 0)
            raise ValueError("zeros must list Z with 0 first")
        self.a = np.repeat(self.zeros, self.zeros.size)[1:]
        self.b = np.tile(self.zeros, self.zeros.size)[1:]
        self._cache: dict[str, object] = {}

    def __len__(self) -> int:
        return self.a.size

    @property
    def gray_length(self) -> int:
        return 2 * len(self)

    def member(self, i: int) -> RingElement:
        from .ring import RingElement

        return RingElement(self.field, int(self.a[i]), int(self.b[i]))

    def __repr__(self) -> str:
        return f"DefiningSet(q={self.field.q}, m={self.field.m}, n={len(self)})"


def build_defining_set(field: Field, budget: int = DEFAULT_OPS_BUDGET) -> DefiningSet:
    """Scan F_{q^m}^2 in canonical pair order and keep the zero-trace pairs."""
    check_budget(field.order**2, budget, "defining-set scan")
    tsq = field.trace_sq_array
    return DefiningSet(field, [x for x in field.canonical_elements() if tsq[x] == 0])


def codeword(x: RingElement, D: DefiningSet) -> RingVector:
    """The vector (tr(x d))_{d in D} over the base ring."""
    from .ring import RingVector

    if x.field != D.field:
        raise ContextMismatchError("message and defining set use different contexts")
    f = D.field
    mul = f.mul_array
    tradd = f.trace_add_array
    t1 = tradd[mul[x.a][D.a], mul[x.b][D.b]]
    t2 = tradd[mul[x.a][D.b], mul[x.b][D.a]]
    return RingVector(f.prime_subfield(), t1.astype(np.int64), t2.astype(np.int64))


# ----------------------------------------------------------------------
# exhaustive enumeration
# ----------------------------------------------------------------------

def _enumeration_tables(D: DefiningSet) -> tuple[np.ndarray, np.ndarray]:
    """TA[x, j] = Tr(x a_j) and TB[x, j] = Tr(x b_j), built once per defining set."""
    if "TA" not in D._cache:
        f = D.field
        tr, mul = f.trace_array, f.mul_array
        D._cache["TA"] = tr[mul[:, D.a]]
        D._cache["TB"] = tr[mul[:, D.b]]
    return D._cache["TA"], D._cache["TB"]


def _compositions(D: DefiningSet, budget: int, what: str) -> Counter:
    """Multiset over all messages of 2 (H[alpha] (*) H[beta]) - 2 e_0 (module docstring)."""
    f = D.field
    tr = f.trace_array[f.mul_array[:, D.zeros]]  # tr[x, j] = Tr(x z_j)
    H = (tr[:, :, None] == np.arange(f.q)).sum(axis=1)
    rows, mult = np.unique(H, axis=0, return_counts=True)
    # the dense product table, H, and one length-q convolution per pair of the U
    # distinct rows; the work before this check is bounded by the dense-table limit
    check_budget(f.order**2 + tr.size * f.q + (rows.shape[0] * f.q) ** 2, budget, what)
    comps = 2 * _cyclic_convolve(rows[:, None], rows[None, :]).reshape(-1, f.q)
    comps[:, 0] -= 2
    acc: Counter = Counter()
    for comp, c in zip(comps.tolist(), np.outer(mult, mult).ravel().tolist()):
        acc[tuple(comp)] += c
    return acc


def lee_spectrum_bruteforce(D: DefiningSet, budget: int = DEFAULT_OPS_BUDGET,
                            threads: int = 1) -> LeeSpectrum:
    """Exact Lee-weight multiset over all q^{2m} messages.

    ``threads`` is accepted for compatibility and ignored.
    """
    if "lee" in D._cache:
        return D._cache["lee"]
    f = D.field
    comps = _compositions(D, budget, "Lee spectrum enumeration")
    spec = CweSpectrum(dict(comps), f.order**2, D.gray_length).to_lee()
    D._cache["lee"] = spec
    return spec


def cwe_bruteforce(D: DefiningSet, budget: int = DEFAULT_OPS_BUDGET,
                   threads: int = 1) -> CweSpectrum:
    """Exact composition multiset of the Gray image over all messages.

    ``threads`` is accepted for compatibility and ignored.
    """
    if "cwe" in D._cache:
        return D._cache["cwe"]
    f = D.field
    comps = _compositions(D, budget, "CWE enumeration")
    spec = CweSpectrum(dict(comps), f.order**2, D.gray_length)
    D._cache["cwe"] = spec
    return spec


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
    """2n for the closed-form tables (twice the defining-set size)."""
    _validate_closed_params(q, m)
    if m % 2:
        return 2 * (q ** (2 * m - 2) - 1)
    g = quadratic_gauss_sum(q, m).as_int()
    P3 = Fraction(q) ** (m - 1) + Fraction((q - 1) * g, q)
    return _as_exponent(2 * P3**2 - 2)


def cwe_closed(q: int, m: int) -> CweSpectrum:
    """Closed-form complete weight enumerator for the Gray image."""
    _validate_closed_params(q, m)
    two_n = gray_image_length(q, m)
    acc: Counter = Counter()
    for mult_f, n0_f, ni_f in _closed_cwe_terms(q, m):
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

def _rank_mod_q(rows: np.ndarray, q: int) -> int:
    mat = rows.astype(np.int64) % q
    rank = 0
    nrows, ncols = mat.shape
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if mat[r, col] % q:
                piv = r
                break
        if piv is None:
            continue
        mat[[rank, piv]] = mat[[piv, rank]]
        inv = pow(int(mat[rank, col]), q - 2, q)
        mat[rank] = (mat[rank] * inv) % q
        for r in range(nrows):
            if r != rank and mat[r, col]:
                mat[r] = (mat[r] - mat[r, col] * mat[rank]) % q
        rank += 1
        if rank == nrows:
            break
    return rank


@dataclass(frozen=True)
class GrayReport:
    rank: int
    min_lee_weight: int
    gray_length: int
    module_generators: int  # degree of the message module over the base ring


def gray_dimension(D: DefiningSet, budget: int = DEFAULT_OPS_BUDGET) -> GrayReport:
    """Measured rank of the Gray image plus its minimum nonzero Lee weight."""
    from .ring import RingElement, gray_map

    f = D.field
    rows = []
    for j in range(f.m):
        e = f.q**j  # the basis monomial x^j
        for msg in (RingElement(f, e, 0), RingElement(f, 0, e)):
            rows.append(gray_map(codeword(msg, D)))
    rank = _rank_mod_q(np.stack(rows), f.q) if len(D) else 0
    spec = lee_spectrum_bruteforce(D, budget=budget)
    return GrayReport(rank, spec.min_nonzero(), 2 * len(D), f.m)


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
