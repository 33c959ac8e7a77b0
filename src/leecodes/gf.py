"""Arithmetic in F_{q^m} for an odd prime q.

Elements are plain ints in [0, q**m); the base-q digits of an element are its
polynomial-basis coordinates (digit i = coefficient of x^i).  The canonical
order on elements compares coefficient tuples low-degree-first, and the field
modulus is the canonically smallest monic irreducible polynomial of degree m,
so construction is deterministic across runs.

Every trace the count, the defining set and the rank test read comes from the
Gram matrix Tm[i, j] = Tr(x^(i+j)) of the trace form (Field.Tm): Tr is
F_q-linear, so Tr(y z) = d(y) . Tm . d(z) over the coordinate vectors d
(Lidl-Niederreiter, Finite Fields, S6.2).  Tr(x), Tr(c x) and Q(x) = Tr(x^2)
are tables built from Tm one digit axis at a time, with no loop over the
elements.  Multiplication, inversion, powers and the quadratic character read
discrete log/antilog tables and a generator, which are built on first use, so
a spectrum, CWE or minimality run builds none of them.  The one size limit,
_DENSE_TABLE_LIMIT, applies only to the dense q^m x q^m tables, which are
built lazily.  No CLI command and no library route reads them (RingVector
adds base-q digits): they serve only as an independent route in the test
oracles and the benchmark's set-up.

The quadratic Gauss sum of F_{q^m} (GaussValue, exact) and the cyclic
convolution of length-q histograms live here too: codes reads both for the
closed forms and the count, and charsums imports them, so the Gauss-sum
formula has one source and a count never loads charsums.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

import numpy as np

from ._record import Record
from .errors import (
    BudgetExceededError,
    ContextMismatchError,
    DegreeError,
    EvenCharacteristicError,
    NonIntegralValueError,
    NonPrimeError,
    ZeroInverseError,
)

_DENSE_TABLE_LIMIT = 2048
_PRODUCT_ROWS = 1 << 16  # coordinate rows per widened product in the log/exp build


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


def _poly_mulmod(a: list[int], b: list[int], mod: tuple[int, ...], q: int) -> list[int]:
    """a * b modulo the monic polynomial mod."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _poly_mod([c % q for c in prod], mod, q)


def _poly_coprime(a: list[int], b: list[int], q: int) -> bool:
    """True iff gcd(a, b) = 1 over F_q, by Euclid's algorithm."""
    while any(b):
        while not b[-1]:
            b = b[:-1]
        inv = pow(b[-1], q - 2, q)
        a, b = b, _poly_mod(a, tuple(c * inv % q for c in b), q)
    return len(a) == 1


def _poly_is_irreducible(f: tuple[int, ...], q: int) -> bool:
    """Rabin's test for monic f of degree m: x^(q^m) = x mod f, and
    gcd(f, x^(q^(m/p)) - x) = 1 for every prime p dividing m.  A root in F_q
    rejects most reducible candidates before any polynomial arithmetic."""
    m = len(f) - 1
    if m == 1:
        return True
    if any(sum(c * pow(a, i, q) for i, c in enumerate(f)) % q == 0 for a in range(q)):
        return False
    x = [0, 1] + [0] * (m - 2)
    frob = [x]  # frob[k] = x^(q^k) mod f, as m coefficients
    for _ in range(m):
        h, e, r = frob[-1], q, [1]
        while e:
            if e & 1:
                r = _poly_mulmod(r, h, f, q)
            h = _poly_mulmod(h, h, f, q)
            e >>= 1
        frob.append(r + [0] * (m - len(r)))
    if frob[m] != x:
        return False
    return all(
        _poly_coprime(list(f), [(c - d) % q for c, d in zip(frob[m // p], x)], q)
        for p in _prime_factors(m)
    )


def _smallest_irreducible(q: int, m: int) -> tuple[int, ...]:
    # candidates in canonical order, less those with a zero constant term when
    # m > 1: x divides them
    for tail in itertools.product(range(1 if m > 1 else 0, q), *[range(q)] * (m - 1)):
        f = tail + (1,)
        if _poly_is_irreducible(f, q):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


class Field:
    """The finite field F_{q^m}, q an odd prime, with a fixed canonical model."""

    def __init__(self, q: int, m: int = 1):
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
        self._prime_subfield: Field | None = None
        self._place = q ** np.arange(m, dtype=np.int64)  # element = coords @ _place

        # sorting coefficient tuples low degree first sorts the elements by their
        # digit-reversed value; digit reversal is an involution, so the reversed
        # values of 0, 1, ... are the elements in canonical order.  Read as a
        # (q,)*m array, 0, 1, ... has digit i on axis m-1-i; transposing reverses
        # the axes, hence the digits
        self._canonical = np.arange(self.order, dtype=np.int64).reshape((q,) * m).T.ravel()
        self._canonical.flags.writeable = False  # canonical_elements() hands it out

    # -- construction helpers ------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        return self.element(_poly_mulmod(self.coeffs(a), self.coeffs(b), self.modulus, self.q))

    def _pow_raw(self, a: int, e: int) -> int:
        r, b = 1, a
        while e:
            if e & 1:
                r = self._mul_raw(r, b)
            b = self._mul_raw(b, b)
            e >>= 1
        return r

    @cached_property
    def generator(self) -> int:
        """The canonically smallest generator of the multiplicative group."""
        n = self.order - 1
        checks = [n // p for p in _prime_factors(n)] if n > 1 else []
        for cand in map(int, self._canonical[1:]):
            if all(self._pow_raw(cand, e) != 1 for e in checks):
                return cand
        raise AssertionError("no generator found")  # unreachable

    @cached_property
    def _exp(self) -> np.ndarray:
        """exp[k] = g^k by doubling, exp[k + 2^j] = g^(2^j) exp[k]: each block is
        one product of coordinate rows with the matrix of multiplication by g^(2^j)."""
        q, m, n = self.q, self.m, self.order - 1
        # row i holds the coordinates of x^i * g, so (coords of v) @ M % q are those of v * g
        M = np.array(
            [self._coeffs_unchecked(self._mul_raw(q**i, self.generator)) for i in range(m)],
            dtype=np.int64,
        )
        # coordinates are below q, so they are stored narrow; only the product is
        # widened (a narrow matmul could overflow), a chunk of rows at a time
        coords = np.zeros((n, m), dtype=np.min_scalar_type(q - 1))
        coords[0, 0] = 1
        k = 1
        while k < n:
            step = min(k, n - k)
            for lo in range(0, step, _PRODUCT_ROWS):
                hi = min(lo + _PRODUCT_ROWS, step)
                coords[k + lo:k + hi] = coords[lo:hi] @ M % q
            M = M @ M % q
            k += step
        exp = np.zeros(n, dtype=np.int64)
        for i in reversed(range(m)):
            exp = exp * q + coords[:, i]
        return exp

    @cached_property
    def _log(self) -> np.ndarray:
        log = np.full(self.order, -1, dtype=np.int64)
        log[self._exp] = np.arange(self.order - 1)
        assert (log[1:] >= 0).all(), "generator order is wrong"
        return log

    @cached_property
    def Tm(self) -> np.ndarray:
        """Tm[i, j] = Tr(x^(i+j)) mod q, the Gram matrix of the trace form
        (module docstring).

        Multiplication by x has the modulus's companion matrix C, so
        Tr(x^k) = trace(C^k): the k-th power sum p_k of the modulus's roots
        x, x^q, ..., x^(q^(m-1)).  Newton's identities give the 2m - 1 of them
        from the coefficients a_i of x^(m-i) (a_0 = 1, a_i = 0 for i > m):
        p_k = -(a_1 p_(k-1) + ... + a_(k-1) p_1 + k a_k), with p_0 = m.
        """
        q, m = self.q, self.m
        a = self.modulus[::-1]
        p = [m % q]
        for k in range(1, 2 * m - 1):
            s = sum(a[i] * p[k - i] for i in range(1, min(k, m + 1)))
            p.append(-(s + (k * a[k] if k <= m else 0)) % q)
        Tm = np.array([p[i:i + m] for i in range(m)], dtype=np.int64)
        Tm.flags.writeable = False
        return Tm

    # -- element plumbing ----------------------------------------------

    def coeffs(self, x: int) -> tuple[int, ...]:
        """Polynomial-basis coordinates of x (low degree first)."""
        self.check_element(x)
        return self._coeffs_unchecked(x)

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

    def canonical_elements(self) -> np.ndarray:
        """All elements sorted by coefficient tuple, low degree compared first."""
        return self._canonical

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
        return int(self._exp[(self._log[x] + self._log[y]) % (self.order - 1)])

    def mul_row(self, c: int) -> np.ndarray:
        """(q^m,) array of c * x for every x: one log/antilog gather, at any size."""
        self.check_element(c)
        row = np.zeros(self.order, dtype=np.int64)
        if c:
            row[1:] = self._exp[(self._log[c] + self._log[1:]) % (self.order - 1)]
        return row

    def power_row(self, e: int) -> np.ndarray:
        """(q^m,) array of x^e for every x (e >= 1): one gather exp[e log x mod (q^m - 1)],
        built on each call (callers keep what they need)."""
        row = np.zeros(self.order, dtype=np.int64)
        row[1:] = self._exp[e * self._log[1:] % (self.order - 1)]
        return row

    def inv(self, x: int) -> int:
        self.check_element(x)
        if x == 0:
            raise ZeroInverseError("0 has no multiplicative inverse")
        return int(self._exp[-self._log[x] % (self.order - 1)])

    def pow(self, x: int, e: int) -> int:
        self.check_element(x)
        if e < 0:
            return self.pow(self.inv(x), -e)
        if x == 0:
            return 0 if e else 1
        return int(self._exp[int(self._log[x]) * e % (self.order - 1)])

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
        return -1 if self._log[x] % 2 else 1

    def add_char_index(self, a: int, x: int) -> int:
        """Index k in [0, q) with chi_a(x) = zeta_q^k, i.e. k = Tr(a*x)."""
        return self.trace(self.mul(a, x))

    # -- per-element tables, and the dense q^m x q^m tables ---------------

    def _dense_guard(self) -> None:
        if self.order > _DENSE_TABLE_LIMIT:
            raise BudgetExceededError(
                f"dense q^m x q^m tables disabled for q^m={self.order} > {_DENSE_TABLE_LIMIT}"
            )

    @property
    def digit_matrix(self) -> np.ndarray:
        """(q^m, m) array of polynomial coordinates, in the dtype of trace_array."""
        if "digits" not in self._dense:
            digits = np.empty((self.order, self.m), dtype=np.min_scalar_type(1 - self.q))
            rest = np.arange(self.order, dtype=np.int64)
            for i in range(self.m):
                rest, digits[:, i] = np.divmod(rest, self.q)
            self._dense["digits"] = digits
        return self._dense["digits"]

    @property
    def add_array(self) -> np.ndarray:
        if "add" not in self._dense:
            self._dense_guard()
            d = self.digit_matrix.astype(np.int32)
            s = (d[:, None, :] + d[None, :, :]) % self.q
            self._dense["add"] = (s.astype(np.int64) @ self._place).astype(np.int32)
        return self._dense["add"]

    @property
    def mul_array(self) -> np.ndarray:
        if "mul" not in self._dense:
            self._dense_guard()
            logv = self._log[1:]
            table = np.zeros((self.order, self.order), dtype=np.int32)
            table[1:, 1:] = self._exp[(logv[:, None] + logv[None, :]) % (self.order - 1)]
            self._dense["mul"] = table
        return self._dense["mul"]

    @property
    def trace_array(self) -> np.ndarray:
        """(q^m,) table of Tr(x), in the narrowest signed dtype that holds -(q-1)
        (int8 for every q <= 127)."""
        if "trace" not in self._dense:
            # Tr is F_q-linear: Tr(x) = sum_i x_i Tr(x^i) over the coordinates x_i of x
            self._dense["trace"] = self.linear_form_array(self.Tm[0].tolist())
        return self._dense["trace"]

    def trace_mul_row(self, c: int) -> np.ndarray:
        """(q^m,) table of Tr(c x) = d(x) . Tm . d(c) over every x, in the dtype
        of trace_array; built on each call (callers keep what they need)."""
        return self.linear_form_array((self.Tm @ self.coeffs(c) % self.q).tolist())

    def linear_form_array(self, coeffs) -> np.ndarray:
        """(q^m,) table of sum_i coeffs[i] x_i mod q over the coordinates x_i of
        every x, in the dtype of trace_array; built on each call.  Pass the
        coefficients as Python ints, so the build stays in int32."""
        out = np.zeros(1, dtype=np.int32)
        digit = np.arange(self.q, dtype=np.int32)
        for i in reversed(range(self.m)):  # appends digit i below the higher ones
            out = (out[:, None] + coeffs[i] * digit).ravel() % self.q
        return out.astype(np.min_scalar_type(1 - self.q))

    @property
    def trace_add_array(self) -> np.ndarray:
        """(q^m, q^m) table of Tr(x + y), in the dtype of trace_array."""
        if "trace_add" not in self._dense:
            self._dense["trace_add"] = self.trace_array[self.add_array]
        return self._dense["trace_add"]

    @property
    def trace_sq_array(self) -> np.ndarray:
        """(q^m,) table of Q(x) = Tr(x^2) = d(x) . Tm . d(x), in the dtype of
        trace_array.

        Built one digit axis at a time, as linear_form_array builds a linear
        form: appending digit k below the digits i > k already placed gives
        Q + x_k (2 L_k + Tm[k, k] x_k), where L_j = sum_i Tm[i, j] x_i over the
        placed digits, and each L_j is carried only until digit j is placed.
        About m q^m steps, and no log/antilog table.
        """
        if "trace_sq" not in self._dense:
            q, Tm = self.q, self.Tm.tolist()
            x = np.arange(q, dtype=np.int32)
            Q = np.zeros(1, dtype=np.int32)
            L = [Q] * self.m
            for k in reversed(range(self.m)):
                Q = (Q[:, None] + x * (2 * L[k][:, None] + Tm[k][k] * x)).ravel() % q
                L = [(L[j][:, None] + Tm[k][j] * x).ravel() % q for j in range(k)]
            self._dense["trace_sq"] = Q.astype(np.min_scalar_type(1 - q))
        return self._dense["trace_sq"]

    @property
    def quad_char_array(self) -> np.ndarray:
        if "quad_char" not in self._dense:
            qc = np.zeros(self.order, dtype=np.int8)
            qc[1:] = 1 - 2 * (self._log[1:] % 2)
            self._dense["quad_char"] = qc
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


# ----------------------------------------------------------------------
# the quadratic Gauss sum, and cyclic convolution of F_q-histograms
# ----------------------------------------------------------------------

_I_POWERS = (1, 1j, -1, -1j)


class GaussValue(Record):
    """Exact value sign * i^i_power * q^(half_exp/2), from (q, sign, i_power, half_exp)."""

    __slots__ = ("q", "sign", "i_power", "half_exp")

    def _validate(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +-1")
        object.__setattr__(self, "i_power", self.i_power % 4)
        if self.half_exp < 0:
            raise ValueError("half_exp must be >= 0")

    def __mul__(self, other: "GaussValue") -> "GaussValue":
        if not isinstance(other, GaussValue):
            return NotImplemented
        if other.q != self.q:
            raise ValueError("GaussValues over different primes")
        return GaussValue(
            self.q,
            self.sign * other.sign,
            self.i_power + other.i_power,
            self.half_exp + other.half_exp,
        )

    @property
    def embedding(self) -> complex:
        return self.sign * _I_POWERS[self.i_power] * self.q ** (self.half_exp / 2)

    @property
    def magnitude_squared(self) -> int:
        return self.q**self.half_exp

    @property
    def is_real_integer(self) -> bool:
        return self.i_power in (0, 2) and self.half_exp % 2 == 0

    def as_int(self) -> int:
        if not self.is_real_integer:
            raise NonIntegralValueError(f"{self} is not a rational integer")
        v = self.sign * self.q ** (self.half_exp // 2)
        return -v if self.i_power == 2 else v


def quadratic_gauss_sum(q: int, m: int) -> GaussValue:
    """The quadratic Gauss sum of F_{q^m}: (-1)^(m-1) i^((q-1)^2 m / 4) q^(m/2)."""
    sign = -1 if (m - 1) % 2 else 1
    return GaussValue(q, sign, ((q - 1) ** 2 * m // 4) % 4, m)


def _cyclic_convolve(ha: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """out[..., k] = sum_i ha[..., i] * hb[..., (k - i) % q] over the last axis."""
    q = ha.shape[-1]
    shift = (np.arange(q) - np.arange(q)[:, None]) % q  # shift[i, k] = k - i
    return (ha[..., :, None] * hb[..., shift]).sum(axis=-2)
