"""The closed route: the Gray image's CWE and Lee spectrum from one table.

One closed-form table (_closed_cwe_terms) is instantiated in exact integer
arithmetic.  On this route and on the count's (codes) the Lee spectrum is the
CWE collapsed to the weight 2n - n_0 (CweSpectrum.to_lee).  Any closed value
that fails integrality or nonnegativity raises instead of rounding.  Nothing
here reads the defining set or the count, so the two routes share no code.
"""

from __future__ import annotations

from collections import Counter

from ._record import Record
from .errors import NonIntegralExponentError, NonIntegralValueError, UnsupportedParametersError
from .gf import _check_odd_prime, _exact, quadratic_gauss_sum


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
# closed forms
# ----------------------------------------------------------------------

def _validate_closed_params(q: int, m: int) -> None:
    _check_odd_prime(q)  # raises for a non-int, even or composite q, building no field
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
