"""The ring F_{q^m} + u F_{q^m} with u^2 = 1, the Gray map, and Lee weights.

An element is a pair (a, b) meaning a + u*b over one shared field.  Since q
is odd, e1 = (1+u)/2 and e2 = (1-u)/2 are orthogonal idempotents and the ring
splits as two field copies; the split is used internally for unit/ideal tests
while the public representation stays in the (1, u) basis.  RingVector adds
base-q digits (Field.digits), so it reads no q^m x q^m table at any size.
"""

from __future__ import annotations

from ._numpy import np
from ._record import Record
from .errors import ContextMismatchError, ExtensionContextError, LengthMismatchError
from .gf import Field


class RingElement(Record):
    """a + u*b with both coordinates in one field: (field, a, b)."""

    __slots__ = ("field", "a", "b")

    def _validate(self):
        self.field.check_element(self.a)
        self.field.check_element(self.b)

    def _check(self, other: "RingElement") -> None:
        if not isinstance(other, RingElement):
            raise TypeError(f"expected RingElement, got {type(other).__name__}")
        if other.field != self.field:
            raise ContextMismatchError("ring elements belong to different contexts")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        f = self.field
        return RingElement(f, f.add(self.a, other.a), f.add(self.b, other.b))

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        f = self.field
        return RingElement(f, f.sub(self.a, other.a), f.sub(self.b, other.b))

    def __neg__(self) -> "RingElement":
        f = self.field
        return RingElement(f, f.neg(self.a), f.neg(self.b))

    def __mul__(self, other: "RingElement") -> "RingElement":
        # (a+ub)(c+ud) = (ac+bd) + u(ad+bc) because u^2 = 1
        self._check(other)
        f = self.field
        a, b, c, d = self.a, self.b, other.a, other.b
        return RingElement(f, f.add(f.mul(a, c), f.mul(b, d)), f.add(f.mul(a, d), f.mul(b, c)))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def to_crt(self) -> tuple[int, int]:
        """Images in the two residue fields: (value at u=1, value at u=-1)."""
        f = self.field
        return f.add(self.a, self.b), f.sub(self.a, self.b)

    def is_unit(self) -> bool:
        c1, c2 = self.to_crt()
        return c1 != 0 and c2 != 0

    def in_ideal(self, which: int) -> bool:
        """Membership in the maximal ideal <u-1> (which=1) or <u+1> (which=2)."""
        c1, c2 = self.to_crt()
        if which == 1:
            return c1 == 0
        if which == 2:
            return c2 == 0
        raise ValueError("which must be 1 or 2")

    def trace(self) -> "RingElement":
        """Componentwise trace down to the base ring F_q + u F_q."""
        f = self.field
        return RingElement(f.prime_subfield(), f.trace(self.a), f.trace(self.b))


def from_crt(field: Field, c1: int, c2: int) -> RingElement:
    """Inverse of RingElement.to_crt: a = (c1+c2)/2, b = (c1-c2)/2."""
    inv2 = field.inv(2 % field.q)
    a = field.mul(field.add(c1, c2), inv2)
    b = field.mul(field.sub(c1, c2), inv2)
    return RingElement(field, a, b)


def ring_trace_frobenius(x: RingElement) -> RingElement:
    """Trace as the sum of Frobenius iterates (r+us -> r^q + u s^q).

    Same map as RingElement.trace; kept as an independent route for
    cross-checking.
    """
    f = x.field
    a, b = x.a, x.b
    acc_a, acc_b = a, b
    for _ in range(f.m - 1):
        a, b = f.frobenius(a), f.frobenius(b)
        acc_a, acc_b = f.add(acc_a, a), f.add(acc_b, b)
    base = f.prime_subfield()
    ca = f.coeffs(acc_a)
    cb = f.coeffs(acc_b)
    assert all(v == 0 for v in ca[1:]) and all(v == 0 for v in cb[1:])
    return RingElement(base, ca[0], cb[0])


class RingVector:
    """Fixed-length vector over one ring context, stored as two int arrays."""

    def __init__(self, field: Field, a, b):
        self.field = field
        self.a = np.asarray(a, dtype=np.int64)
        self.b = np.asarray(b, dtype=np.int64)
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise LengthMismatchError("coordinate arrays must be 1-D and equally long")
        if self.a.size and (
            self.a.min() < 0 or self.a.max() >= field.order or self.b.min() < 0 or self.b.max() >= field.order
        ):
            raise ContextMismatchError("vector entries out of range for the context")

    def __len__(self) -> int:
        return self.a.size

    def __getitem__(self, i: int) -> RingElement:
        return RingElement(self.field, int(self.a[i]), int(self.b[i]))

    def _check(self, other: "RingVector") -> None:
        if other.field != self.field:
            raise ContextMismatchError("vectors belong to different contexts")
        if len(other) != len(self):
            raise LengthMismatchError(f"lengths differ: {len(self)} vs {len(other)}")

    def _digitwise(self, other: "RingVector", sign: int) -> "RingVector":
        self._check(other)
        f = self.field
        # widened: a sum of two digits can pass their narrow dtype
        a, b = (f.from_digits((f.digits(x) + sign * f.digits(y).astype(np.int64)) % f.q)
                for x, y in ((self.a, other.a), (self.b, other.b)))
        return RingVector(f, a, b)

    def __add__(self, other: "RingVector") -> "RingVector":
        return self._digitwise(other, 1)

    def __sub__(self, other: "RingVector") -> "RingVector":
        return self._digitwise(other, -1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingVector)
            and self.field == other.field
            and np.array_equal(self.a, other.a)
            and np.array_equal(self.b, other.b)
        )

    def scalar_mul(self, c: int) -> "RingVector":
        """Multiply every coordinate by the field scalar c: its digits times mul_matrix(c)."""
        f = self.field
        M = f.mul_matrix(c).T
        a, b = (f.from_digits(M @ f.digits(x) % f.q) for x in (self.a, self.b))
        return RingVector(f, a, b)

    def __repr__(self) -> str:
        return f"RingVector(n={len(self)}, q={self.field.q}, m={self.field.m})"


def _require_base(vec: RingVector) -> None:
    if vec.field.m != 1:
        raise ExtensionContextError("operation is defined on the base ring only")


def gray_map(vec: RingVector) -> np.ndarray:
    """Interleaved image in F_q^{2n}: each a + u*b contributes the pair (a, b)."""
    _require_base(vec)
    out = np.empty(2 * len(vec), dtype=np.int64)
    out[0::2] = vec.a
    out[1::2] = vec.b
    return out


def lee_weight(vec: RingVector) -> int:
    """Hamming weight of the Gray image."""
    _require_base(vec)
    return int(np.count_nonzero(vec.a) + np.count_nonzero(vec.b))


def lee_distance(x: RingVector, y: RingVector) -> int:
    return lee_weight(x - y)
