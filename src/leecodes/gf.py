"""Arithmetic in F_{q^m} for an odd prime q.

Elements are plain ints in [0, q**m); the base-q digits of an element are its
polynomial-basis coordinates (digit i = coefficient of x^i).  No module but
this one decodes an element: Field.digits is the one array decoder, one row
per digit, from_digits its inverse, and coeffs and element the scalar pair the
polynomial product reads.  The field modulus is the smallest monic irreducible
polynomial of degree m, coefficient tuples compared low degree first.

Every trace the count, the defining set and the rank test read comes from the
Gram matrix Tm[i, j] = Tr(x^(i+j)) of the trace form (Field.Tm): Tr is
F_q-linear, so Tr(y z) = d(y) . Tm . d(z) over the coordinate vectors d
(Lidl-Niederreiter, Finite Fields, S6.2).  Field.trace_columns, W[i, j] =
Tr(x^i z_j) over an array of z, is the one builder of Tm . d(z).  Tr(x),
Tr(c x) and Q(x) = Tr(x^2) are tables built from Tm one digit axis at a time.
Scalar products, inverses (x^(q^m-2)) and powers are polynomial products
modulo the modulus, the quadratic character is Euler's criterion, and the
table of c x over every x is the digits times the m x m matrix of
multiplication by c.  The one size limit, _DENSE_TABLE_LIMIT, applies only to
the dense q^m x q^m tables, which are built lazily, each from a linear
structure with no loop over the elements: add_array adds base-q digits mod q;
mul_array is d(c x) = sum_i c_i d(x^i x), whose rows d(x^i x) are polynomial
products; and trace_add_array is Tr(x + y) = Tr(x) + Tr(y), the outer sum of
trace_array.  No CLI command and no library route reads them: only the test
oracles and the benchmark's set-up build them.

The quadratic Gauss sum of F_{q^m} (GaussValue, exact), the exact division
_exact that ends every closed form, and the cyclic convolution of length-q
histograms live here too: spectra reads them for the closed forms, codes
for the count, and charsums imports them, so the Gauss-sum formula has one
source and a count never loads charsums.

Importing this module does not import numpy (np comes from _numpy, lazily):
make_field does, before it builds a field, so every module a run needs is
compiled before numpy loads, and a run that builds no field (the closed
route, which checks q by _check_odd_prime, or a refused or invalid run)
never loads it.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from ._numpy import load as load_numpy, np
from ._record import Record
from .errors import (
    BudgetExceededError,
    ContextMismatchError,
    DegreeError,
    EvenCharacteristicError,
    NonIntegralExponentError,
    NonIntegralValueError,
    NonPrimeError,
    ZeroInverseError,
)

_DENSE_TABLE_LIMIT = 2048
_CHUNK = 1 << 16  # elements per chunk of an array pass


def _signed_below(bound: int) -> np.dtype:
    """The narrowest signed integer dtype that holds every value in (-bound, bound)."""
    return np.min_scalar_type(-bound)


def _is_prime(n: int) -> bool:
    return n > 1 and _prime_factors(n) == [n]


def _check_odd_prime(q: int) -> None:
    """Raise unless q is an int and an odd prime: the check of every field's q,
    which the closed route makes without building a field."""
    if not isinstance(q, int):
        raise DegreeError("q and m must be ints")
    if q >= 2 and q % 2 == 0:
        raise EvenCharacteristicError(f"q={q} is even; q must be an odd prime")
    if not _is_prime(q):
        raise NonPrimeError(f"q={q} is not prime")


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, increasing: the one trial division, which
    _is_prime reads too."""
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
    # candidates by coefficient tuple, low degree compared first, less those
    # with a zero constant term when m > 1: x divides them
    for tail in itertools.product(range(1 if m > 1 else 0, q), *[range(q)] * (m - 1)):
        f = tail + (1,)
        if _poly_is_irreducible(f, q):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


class Field:
    """The finite field F_{q^m}, q an odd prime, with a fixed canonical model."""

    def __init__(self, q: int, m: int = 1):
        if not isinstance(m, int):
            raise DegreeError("q and m must be ints")
        _check_odd_prime(q)
        if m < 1:
            raise DegreeError(f"extension degree m={m} must be >= 1")
        self.q = q
        self.m = m
        self.order = q**m
        self.modulus = _smallest_irreducible(q, m)

        self._dense: dict[str, np.ndarray] = {}
        self._place = q ** np.arange(m, dtype=np.int64)  # element = coords @ _place

    # -- the polynomial product -----------------------------------------

    def _pow_raw(self, a: int, e: int) -> int:
        r, b = 1, a
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

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

    def _coeffs_unchecked(self, x: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(x % self.q)
            x //= self.q
        return tuple(out)

    def digits(self, x) -> np.ndarray:
        """(m, len(x)) array of the coordinates of each element of the int array
        x, row i holding digit i of every element, in the dtype of trace_array:
        the one array decoder (coeffs is the scalar one), so every decoder
        rejects a non-element here."""
        rest = np.array(x, dtype=np.int64)  # a copy, divided in place
        if rest.size and not (rest.min() >= 0 and rest.max() < self.order):
            raise ContextMismatchError(
                f"values in [{rest.min()}, {rest.max()}] are not all elements of "
                f"F_{self.q}^{self.m}")
        out = np.empty((self.m, rest.size), dtype=np.min_scalar_type(1 - self.q))
        for i in range(self.m):
            np.divmod(rest, self.q, out=(rest, out[i]))
        return out

    def from_digits(self, d) -> np.ndarray:
        """The int64 elements whose coordinates d holds along its first axis, as
        digits lays them out: the inverse of digits."""
        return np.tensordot(self._place, d, axes=1)

    def prime_subfield(self) -> "Field":
        return self if self.m == 1 else make_field(self.q, 1)

    # -- arithmetic ------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        self.check_element(x)
        self.check_element(y)
        return self.element(
            (a + b) % self.q for a, b in zip(self._coeffs_unchecked(x), self._coeffs_unchecked(y))
        )

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def neg(self, x: int) -> int:
        self.check_element(x)
        return self.element((-a) % self.q for a in self._coeffs_unchecked(x))

    def mul(self, x: int, y: int) -> int:
        return self.element(_poly_mulmod(self.coeffs(x), self.coeffs(y), self.modulus, self.q))

    def mul_matrix(self, c: int) -> np.ndarray:
        """(m, m) matrix of multiplication by c: row i holds the coordinates of
        c x^i, so d(c y) = d(y) @ mul_matrix(c) mod q."""
        return np.array(
            [self._coeffs_unchecked(self.mul(c, self.q**i)) for i in range(self.m)],
            dtype=np.int64,
        )

    def mul_row(self, c: int) -> np.ndarray:
        """(q^m,) array of c * x for every x: the digits of every x times
        mul_matrix(c), built on each call."""
        return self.from_digits(self.mul_matrix(c).T @ self.digits(np.arange(self.order)) % self.q)

    def inv(self, x: int) -> int:
        self.check_element(x)
        if x == 0:
            raise ZeroInverseError("0 has no multiplicative inverse")
        return self._pow_raw(x, self.order - 2)

    def pow(self, x: int, e: int) -> int:
        self.check_element(x)
        if e < 0:
            return self.pow(self.inv(x), -e)
        if x == 0:
            return 0 if e else 1
        return self._pow_raw(x, e % (self.order - 1))

    def frobenius(self, x: int) -> int:
        return self.pow(x, self.q)

    # -- trace and characters -------------------------------------------

    def trace(self, x: int) -> int:
        """Absolute trace to F_q, as a residue: sum_i x_i Tr(x^i) over the
        coordinates x_i of x, with Tr(x^i) = Tm[0, i]."""
        return sum(a * t for a, t in zip(self.coeffs(x), self.Tm[0].tolist())) % self.q

    def quad_char(self, x: int) -> int:
        """Quadratic character: 0 at 0, +1 on nonzero squares, -1 otherwise.
        Euler's criterion: x^((q^m - 1)/2) = 1 exactly on the nonzero squares."""
        self.check_element(x)
        if x == 0:
            return 0
        return 1 if self._pow_raw(x, (self.order - 1) // 2) == 1 else -1

    # -- per-element tables, and the dense q^m x q^m tables ---------------

    def _dense_guard(self) -> None:
        if self.order > _DENSE_TABLE_LIMIT:
            raise BudgetExceededError(
                f"dense q^m x q^m tables disabled for q^m={self.order} > {_DENSE_TABLE_LIMIT}"
            )

    @property
    def add_array(self) -> np.ndarray:
        if "add" not in self._dense:
            self._dense_guard()
            d = self.digits(np.arange(self.order)).astype(np.int32)
            s = (d[:, :, None] + d[:, None, :]) % self.q
            self._dense["add"] = self.from_digits(s).astype(np.int32)
        return self._dense["add"]

    @property
    def mul_array(self) -> np.ndarray:
        """(q^m, q^m) int32 table of c x.

        d(c x) = sum_i c_i d(x^i x): the rows d(x^i x) over every x are the
        digits times mul_matrix(x^i), the polynomial product.  The m
        digit products sum below m (q - 1)^2 + 1, in the narrowest signed dtype
        that holds that, and the element index is built one digit at a time,
        from the highest, in int32."""
        if "mul" not in self._dense:
            self._dense_guard()
            q, m = self.q, self.m
            acc = _signed_below(m * (q - 1) ** 2 + 1)
            d = self.digits(np.arange(self.order)).astype(acc)
            # rows[i][k] holds digit k of x^i x for every x
            rows = [(self.mul_matrix(q**i).T @ d % q).astype(acc) for i in range(m)]
            out = np.zeros((self.order, self.order), dtype=np.int32)
            for k in reversed(range(m)):
                s = np.multiply.outer(d[0], rows[0][k])
                for i in range(1, m):
                    s += np.multiply.outer(d[i], rows[i][k])
                out *= q
                out += s % q
            self._dense["mul"] = out
        return self._dense["mul"]

    @property
    def trace_array(self) -> np.ndarray:
        """(q^m,) table of Tr(x), in the narrowest signed dtype that holds -(q-1)
        (int8 for every q <= 127)."""
        if "trace" not in self._dense:
            # Tr is F_q-linear: Tr(x) = sum_i x_i Tr(x^i) over the coordinates x_i of x
            self._dense["trace"] = self.linear_form_array(self.Tm[0].tolist())
        return self._dense["trace"]

    def trace_columns(self, x) -> np.ndarray:
        """(m, len(x)) table W[i, j] = Tr(x^i x_j) = (Tm . d(x_j))_i mod q over
        the elements x, in the dtype of trace_array, built on each call, a
        _CHUNK of x at a time: the m products Tm[:, k] d_k(x_j) are summed in
        the narrowest signed dtype that holds m (q - 1)^2."""
        acc = _signed_below(self.m * (self.q - 1) ** 2 + 1)
        Tm = self.Tm.astype(acc)[:, :, None]
        W = np.empty((self.m, len(x)), dtype=np.min_scalar_type(1 - self.q))
        for lo in range(0, len(x), _CHUNK):
            d = self.digits(x[lo:lo + _CHUNK])
            total = np.zeros(d.shape, dtype=acc)
            for k in range(self.m):
                total += Tm[:, k] * d[k]
            W[:, lo:lo + _CHUNK] = total % self.q
        return W

    def trace_mul_row(self, c: int) -> np.ndarray:
        """(q^m,) table of Tr(c x) = d(x) . Tm . d(c) over every x, in the dtype
        of trace_array; built on each call (callers keep what they need)."""
        self.check_element(c)
        return self.linear_form_array(self.trace_columns([c])[:, 0].tolist())

    def linear_form_array(self, coeffs) -> np.ndarray:
        """(q^m,) table of sum_i coeffs[i] x_i mod q over the coordinates x_i of
        every x, in the dtype of trace_array; built on each call.  The
        coefficients are reduced to Python ints in [0, q), so every intermediate
        is below q^2, and the build runs, reduced in place, in the narrowest
        signed dtype that holds it: that of trace_array, uncopied, up to q = 11."""
        coeffs = [int(c) % self.q for c in coeffs]
        out = np.zeros(1, dtype=_signed_below(self.q**2))
        digit = np.arange(self.q, dtype=out.dtype)
        for i in reversed(range(self.m)):  # appends digit i below the higher ones
            out = (out[:, None] + coeffs[i] * digit).ravel()
            out %= self.q
        return out.astype(np.min_scalar_type(1 - self.q), copy=False)

    @property
    def trace_add_array(self) -> np.ndarray:
        """(q^m, q^m) table of Tr(x + y) = Tr(x) + Tr(y) mod q, in the dtype of
        trace_array: the outer sum of trace_array, which stays below 2q."""
        if "trace_add" not in self._dense:
            self._dense_guard()
            t = self.trace_array.astype(_signed_below(2 * self.q))
            self._dense["trace_add"] = (np.add.outer(t, t) % self.q).astype(self.trace_array.dtype)
        return self._dense["trace_add"]

    @property
    def trace_sq_array(self) -> np.ndarray:
        """(q^m,) table of Q(x) = Tr(x^2) = d(x) . Tm . d(x), in the dtype of
        trace_array."""
        if "trace_sq" not in self._dense:
            self._dense["trace_sq"] = self.quadratic_form_array(self.Tm)
        return self._dense["trace_sq"]

    def quadratic_form_array(self, T) -> np.ndarray:
        """(q^m,) table of d(x) . T . d(x) mod q over every x, for a symmetric
        m x m integer matrix T, in the dtype of trace_array; built on each
        call.  T is reduced mod q first.

        Built one digit axis at a time, as linear_form_array builds a linear
        form: appending digit k below the digits i > k already placed gives
        Q + x_k (2 L_k + T[k, k] x_k), where L_j = sum_i T[i, j] x_i over the
        placed digits, and each L_j is carried only until digit j is placed.
        About m q^m steps, in the narrowest signed dtype that holds every
        intermediate: Q + x_k (2 L_k + T[k, k] x_k) is at most (q - 1) +
        (q - 1)(q^2 - 1), below q^3.
        """
        q, T = self.q, (np.asarray(T) % self.q).tolist()
        x = np.arange(q, dtype=_signed_below(q**3))
        Q = np.zeros(1, dtype=x.dtype)
        L = [Q] * self.m
        for k in reversed(range(self.m)):
            Q = (Q[:, None] + x * (2 * L[k][:, None] + T[k][k] * x)).ravel() % q
            L = [(L[j][:, None] + T[k][j] * x).ravel() % q for j in range(k)]
        return Q.astype(np.min_scalar_type(1 - q))

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


@lru_cache(maxsize=None, typed=True)
def make_field(q: int, m: int = 1) -> Field:
    """Deterministic cached field constructor: the one point where a run imports
    numpy (module docstring), before Field.__init__ runs.  The cache is keyed by
    type too, so a float q or m, equal as a key to an int, reaches Field's check."""
    load_numpy()
    return Field(q, m)


def root_of_unity(q: int, k: int) -> complex:
    """zeta_q^k as a complex double."""
    return np.exp(2j * np.pi * (k % q) / q)


# ----------------------------------------------------------------------
# the quadratic Gauss sum, exact division, and cyclic convolution of F_q-histograms
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


def _exact(num: int, den: int, exponent: bool = False) -> int:
    """num / den for a closed value that must be an integer: a remainder raises
    NonIntegralExponentError for an enumerator exponent, NonIntegralValueError
    for a weight, a multiplicity or a count."""
    quot, rem = divmod(num, den)
    if rem:
        error = NonIntegralExponentError if exponent else NonIntegralValueError
        raise error(f"closed value {num}/{den} is not integral")
    return quot


def quadratic_gauss_sum(q: int, m: int) -> GaussValue:
    """The quadratic Gauss sum of F_{q^m}: (-1)^(m-1) i^((q-1)^2 m / 4) q^(m/2)."""
    sign = -1 if (m - 1) % 2 else 1
    return GaussValue(q, sign, ((q - 1) ** 2 * m // 4) % 4, m)


def _cyclic_convolve(ha: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """out[..., k] = sum_i ha[..., i] * hb[..., (k - i) % q] over the last axis,
    one shift i at a time in the inputs' dtype: no temporary outgrows the output."""
    q = ha.shape[-1]
    return sum(ha[..., i, None] * hb[..., (np.arange(q) - i) % q] for i in range(q))
