"""Arithmetic in F_{q^m} for an odd prime q.

Elements are plain ints in [0, q**m); the base-q digits of an element are its
polynomial-basis coordinates (digit i = coefficient of x^i).  The canonical
order on elements compares coefficient tuples low-degree-first, and the field
modulus is the canonically smallest monic irreducible polynomial of degree m,
so construction is deterministic across runs.

Multiplication and inversion run off discrete log/antilog tables whenever
q**m fits the table budget; above the budget the schoolbook polynomial path
is used instead (slower, never an error).  Dense q^m x q^m numpy tables for
bulk enumeration are built lazily and only for small fields.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import (
    BudgetExceededError,
    ContextMismatchError,
    DegreeError,
    EvenCharacteristicError,
    NonPrimeError,
    ZeroInverseError,
)

DEFAULT_TABLE_BUDGET = 1 << 20
_DENSE_TABLE_LIMIT = 2048


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ----------------------------------------------------------------------
# polynomial helpers over F_q (coefficient tuples, low degree first)
# ----------------------------------------------------------------------

def _poly_mod(num: list[int], den: tuple[int, ...], q: int) -> list[int]:
    """Remainder of num modulo the monic polynomial den."""
    num = list(num)
    d = len(den) - 1
    for k in range(len(num) - 1, d - 1, -1):
        c = num[k]
        if c:
            num[k] = 0
            for i in range(d):
                num[k - d + i] = (num[k - d + i] - c * den[i]) % q
    return num[:d] if d > 0 else []


def _poly_is_irreducible(f: tuple[int, ...], q: int) -> bool:
    """Exhaustive factor search: divide by every monic poly of degree <= deg(f)//2."""
    deg = len(f) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(q), repeat=d):
            g = tail + (1,)
            if not any(_poly_mod(list(f), g, q)):
                return False
    return True


def _smallest_irreducible(q: int, m: int) -> tuple[int, ...]:
    for tail in itertools.product(range(q), repeat=m):
        f = tail + (1,)
        if _poly_is_irreducible(f, q):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


class Field:
    """The finite field F_{q^m}, q an odd prime, with a fixed canonical model."""

    def __init__(self, q: int, m: int = 1, table_budget: int = DEFAULT_TABLE_BUDGET):
        if not isinstance(q, int) or not isinstance(m, int):
            raise DegreeError("q and m must be ints")
        if q >= 2 and q % 2 == 0:
            raise EvenCharacteristicError(f"q={q} is even; q must be an odd prime")
        if not _is_prime(q):
            raise NonPrimeError(f"q={q} is not prime")
        if m < 1:
            raise DegreeError(f"extension degree m={m} must be >= 1")
        self.q = q
        self.m = m
        self.order = q**m
        self.modulus = _smallest_irreducible(q, m)

        self._dense: dict[str, np.ndarray] = {}
        self._canonical: np.ndarray | None = None
        self._prime_subfield: Field | None = None

        self.generator = self._find_generator()
        self._has_tables = self.order <= table_budget
        if self._has_tables:
            self._build_tables()
        else:
            self._exp = self._log = None

    # -- construction helpers ------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        q, m = self.q, self.m
        ca = self.coeffs(a)
        cb = self.coeffs(b)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % q
        return self.element(_poly_mod(prod, self.modulus, q))

    def _pow_raw(self, a: int, e: int) -> int:
        r, b = 1, a
        while e:
            if e & 1:
                r = self._mul_raw(r, b)
            b = self._mul_raw(b, b)
            e >>= 1
        return r

    def _find_generator(self) -> int:
        n = self.order - 1
        checks = [n // p for p in _prime_factors(n)] if n > 1 else []
        for cand in self.canonical_elements():
            if cand == 0:
                continue
            if all(self._pow_raw(cand, e) != 1 for e in checks):
                return cand
        raise AssertionError("no generator found")  # unreachable

    def _build_tables(self) -> None:
        n = self.order - 1
        exp = [0] * n
        log = [-1] * self.order
        v = 1
        for k in range(n):
            exp[k] = v
            log[v] = k
            v = self._mul_raw(v, self.generator)
        assert v == 1, "generator order is wrong"
        self._exp = exp
        self._log = log

    # -- element plumbing ----------------------------------------------

    def coeffs(self, x: int) -> tuple[int, ...]:
        """Polynomial-basis coordinates of x (low degree first)."""
        self.check_element(x)
        out = []
        for _ in range(self.m):
            out.append(x % self.q)
            x //= self.q
        return tuple(out)

    def element(self, coeffs) -> int:
        v = 0
        for i, c in enumerate(coeffs):
            v += (c % self.q) * self.q**i
        return v

    def check_element(self, x: int) -> None:
        if not isinstance(x, (int, np.integer)) or not 0 <= x < self.order:
            raise ContextMismatchError(f"{x!r} is not an element of F_{self.q}^{self.m}")

    def elements(self) -> range:
        return range(self.order)

    def canonical_elements(self) -> list[int]:
        """All elements sorted by coefficient tuple, low degree compared first."""
        if self._canonical is None:
            order = sorted(range(self.order), key=self._coeffs_unchecked)
            self._canonical = np.array(order, dtype=np.int64)
        return [int(v) for v in self._canonical]

    def _coeffs_unchecked(self, x: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(x % self.q)
            x //= self.q
        return tuple(out)

    def prime_subfield(self) -> "Field":
        if self.m == 1:
            return self
        if self._prime_subfield is None:
            self._prime_subfield = make_field(self.q, 1)
        return self._prime_subfield

    # -- arithmetic ------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        self.check_element(x)
        self.check_element(y)
        if self.m == 1:
            return (x + y) % self.q
        return self.element(
            (a + b) % self.q for a, b in zip(self._coeffs_unchecked(x), self._coeffs_unchecked(y))
        )

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def neg(self, x: int) -> int:
        self.check_element(x)
        if self.m == 1:
            return (-x) % self.q
        return self.element((-a) % self.q for a in self._coeffs_unchecked(x))

    def mul(self, x: int, y: int) -> int:
        self.check_element(x)
        self.check_element(y)
        if x == 0 or y == 0:
            return 0
        if self._has_tables:
            return self._exp[(self._log[x] + self._log[y]) % (self.order - 1)]
        return self._mul_raw(x, y)

    def inv(self, x: int) -> int:
        self.check_element(x)
        if x == 0:
            raise ZeroInverseError("0 has no multiplicative inverse")
        if self._has_tables:
            return self._exp[(-self._log[x]) % (self.order - 1)]
        return self._pow_raw(x, self.order - 2)

    def pow(self, x: int, e: int) -> int:
        self.check_element(x)
        if e < 0:
            return self.pow(self.inv(x), -e)
        if x == 0:
            return 0 if e else 1
        if self._has_tables:
            return self._exp[(self._log[x] * e) % (self.order - 1)]
        return self._pow_raw(x, e)

    def frobenius(self, x: int) -> int:
        return self.pow(x, self.q)

    # -- trace and characters -------------------------------------------

    def trace(self, x: int) -> int:
        """Absolute trace to F_q: sum of the m Frobenius conjugates, as a residue."""
        self.check_element(x)
        t = x
        acc = x
        for _ in range(self.m - 1):
            t = self.frobenius(t)
            acc = self.add(acc, t)
        c = self._coeffs_unchecked(acc)
        assert all(v == 0 for v in c[1:]), "trace landed outside the prime subfield"
        return c[0]

    def quad_char(self, x: int) -> int:
        """Quadratic character: 0 at 0, +1 on nonzero squares, -1 otherwise."""
        self.check_element(x)
        if x == 0:
            return 0
        if self._has_tables:
            return -1 if self._log[x] % 2 else 1
        return 1 if self._pow_raw(x, (self.order - 1) // 2) == 1 else -1

    def add_char_index(self, a: int, x: int) -> int:
        """Index k in [0, q) with chi_a(x) = zeta_q^k, i.e. k = Tr(a*x)."""
        return self.trace(self.mul(a, x))

    # -- dense numpy tables for bulk enumeration -------------------------

    def _dense_guard(self) -> None:
        if self.order > _DENSE_TABLE_LIMIT:
            raise BudgetExceededError(
                f"dense q^m x q^m tables disabled for q^m={self.order} > {_DENSE_TABLE_LIMIT}"
            )

    @property
    def digit_matrix(self) -> np.ndarray:
        """(q^m, m) array of polynomial coordinates."""
        if "digits" not in self._dense:
            v = np.arange(self.order, dtype=np.int64)
            cols = []
            for _ in range(self.m):
                cols.append(v % self.q)
                v = v // self.q
            self._dense["digits"] = np.stack(cols, axis=1).astype(np.int16)
        return self._dense["digits"]

    @property
    def add_array(self) -> np.ndarray:
        if "add" not in self._dense:
            self._dense_guard()
            d = self.digit_matrix.astype(np.int32)
            s = (d[:, None, :] + d[None, :, :]) % self.q
            weights = self.q ** np.arange(self.m, dtype=np.int64)
            self._dense["add"] = (s.astype(np.int64) @ weights).astype(np.int32)
        return self._dense["add"]

    @property
    def mul_array(self) -> np.ndarray:
        if "mul" not in self._dense:
            self._dense_guard()
            n = self.order - 1
            logv = np.array([self._log[v] for v in range(1, self.order)], dtype=np.int64)
            expv = np.array(self._exp, dtype=np.int64)
            table = np.zeros((self.order, self.order), dtype=np.int32)
            table[1:, 1:] = expv[(logv[:, None] + logv[None, :]) % n].astype(np.int32)
            self._dense["mul"] = table
        return self._dense["mul"]

    @property
    def neg_array(self) -> np.ndarray:
        if "neg" not in self._dense:
            self._dense["neg"] = np.array(
                [self.neg(v) for v in range(self.order)], dtype=np.int32
            )
        return self._dense["neg"]

    @property
    def trace_array(self) -> np.ndarray:
        """(q^m,) table of Tr(x), in the narrowest signed dtype that holds -(q-1)
        (int8 for every q <= 127)."""
        if "trace" not in self._dense:
            self._dense["trace"] = np.array(
                [self.trace(v) for v in range(self.order)],
                dtype=np.min_scalar_type(1 - self.q),
            )
        return self._dense["trace"]

    @property
    def trace_add_array(self) -> np.ndarray:
        """(q^m, q^m) table of Tr(x + y), in the dtype of trace_array."""
        if "trace_add" not in self._dense:
            self._dense["trace_add"] = self.trace_array[self.add_array]
        return self._dense["trace_add"]

    @property
    def trace_sq_array(self) -> np.ndarray:
        """(q^m,) table of Tr(x^2), in the dtype of trace_array."""
        if "trace_sq" not in self._dense:
            sq = np.array([self.mul(v, v) for v in range(self.order)], dtype=np.int64)
            self._dense["trace_sq"] = self.trace_array[sq]
        return self._dense["trace_sq"]

    @property
    def quad_char_array(self) -> np.ndarray:
        if "quad_char" not in self._dense:
            self._dense["quad_char"] = np.array(
                [self.quad_char(v) for v in range(self.order)], dtype=np.int8
            )
        return self._dense["quad_char"]

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.q == other.q
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.q, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"Field(q={self.q}, m={self.m})"


@lru_cache(maxsize=None)
def make_field(q: int, m: int = 1) -> Field:
    """Deterministic cached field constructor."""
    return Field(q, m)


def root_of_unity(q: int, k: int) -> complex:
    """zeta_q^k as a complex double."""
    return np.exp(2j * np.pi * (k % q) / q)
