"""Exact scalar arithmetic over Q or a prime field F_p (p not 2 or 3).

Every scalar carries its field so that cross-field arithmetic is an
error instead of a silent coercion.  Characteristic 0 scalars wrap
``fractions.Fraction``; characteristic p scalars are residues in
``range(p)``.

A ``Scalar`` is the type of a single coefficient at the API edge.  Every
container of coefficients in the engine holds these raw values instead.
The sparse containers are dicts without zero values: element terms,
``Rref`` rows, extension coordinates and quotient table entries.  The
dense ones are lists: quotient coordinate vectors and matrices.
"""

from __future__ import annotations

from fractions import Fraction


class FieldMismatchError(ValueError):
    """Raised when scalars from different fields are combined."""


class BadCharacteristicError(ValueError):
    """Raised for a characteristic other than 0 or a prime 5 <= p < 2^64."""


# Miller-Rabin with these bases is exact for n < 3.18e23 (Sorenson and
# Webster 2017), well above the largest characteristic a Field accepts.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _WITNESSES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _WITNESSES:
        x = pow(b, d, n)
        if x != 1 and all(pow(x, 2 ** k, n) != n - 1 for k in range(s)):
            return False  # b witnesses that n is composite
    return True


class Field:
    """The rationals (characteristic 0) or F_p for a prime p >= 5."""

    __slots__ = ("characteristic", "zero", "one")

    _cache: dict[int, "Field"] = {}

    def __new__(cls, characteristic: int):
        if type(characteristic) is not int:  # 13.0 would hash like 13
            raise BadCharacteristicError(
                f"characteristic must be an int, got {characteristic!r}")
        if characteristic in cls._cache:
            return cls._cache[characteristic]
        if characteristic in (2, 3):
            raise BadCharacteristicError(
                "characteristic 2 and 3 are not supported")
        if characteristic >= 2 ** 64:
            raise BadCharacteristicError(
                f"characteristic must be below 2^64, got {characteristic}")
        if characteristic != 0 and not _is_prime(characteristic):
            raise BadCharacteristicError(
                f"characteristic must be 0 or prime, got {characteristic}")
        self = object.__new__(cls)
        object.__setattr__(self, "characteristic", characteristic)
        # built once: hot loops start sums and vectors from these
        object.__setattr__(self, "zero", self.from_fraction(0))
        object.__setattr__(self, "one", self.from_fraction(1))
        cls._cache[characteristic] = self
        return self

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Field is immutable")

    def __repr__(self):
        p = self.characteristic
        return "Q" if p == 0 else f"GF({p})"

    def __hash__(self):
        return hash(("Field", self.characteristic))

    def __eq__(self, other):
        return isinstance(other, Field) and \
            other.characteristic == self.characteristic

    # -- constructors ---------------------------------------------------

    def scalar(self, numerator, denominator: int = 1) -> "Scalar":
        """Build a scalar from an integer or rational n/d."""
        return self.from_fraction(Fraction(numerator, denominator))

    def from_fraction(self, q: Fraction | int) -> "Scalar":
        return Scalar(self, self._value(q))

    def _value(self, q: Fraction | int):
        """The raw value of a rational: itself over Q, a residue mod p."""
        p = self.characteristic
        if type(q) is int:
            return q % p if p else Fraction(q)
        if isinstance(q, (float, Scalar)):  # floats are not exact
            raise TypeError(f"pass an int or Fraction, not {type(q).__name__}")
        q = q if type(q) is Fraction else Fraction(q)  # copy other rationals
        if p == 0:
            return q
        den = q.denominator % p
        if den == 0:
            raise ZeroDivisionError(
                f"denominator {q.denominator} is 0 mod {p}")
        return q.numerator * pow(den, -1, p) % p


class Scalar:
    """An immutable field element supporting exact arithmetic."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Scalar is immutable")

    def _check(self, other: "Scalar"):
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.field is not self.field:
            raise FieldMismatchError(
                f"cannot combine scalars over {self.field} and {other.field}")

    def _wrap(self, v) -> "Scalar":
        """The scalar of this field with the raw value v, reduced mod p."""
        p = self.field.characteristic
        return Scalar(self.field, v % p if p else v)

    def __add__(self, other):
        self._check(other)
        return self._wrap(self.value + other.value)

    def __sub__(self, other):
        self._check(other)
        return self._wrap(self.value - other.value)

    def __mul__(self, other):
        if not isinstance(other, Scalar):  # an Element scales by __rmul__
            return NotImplemented
        self._check(other)
        return self._wrap(self.value * other.value)

    def __neg__(self):
        return self._wrap(-self.value)

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        p = self.field.characteristic
        if p == 0:
            return Scalar(self.field, 1 / self.value)
        return Scalar(self.field, pow(self.value, -1, p))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        return (isinstance(other, Scalar)
                and other.field is self.field
                and other.value == self.value)

    def __hash__(self):
        return hash((self.field.characteristic, self.value))

    def as_fraction(self) -> Fraction:
        """Canonical rational lift (residue in [0, p) for F_p)."""
        return Fraction(self.value)

    def __repr__(self):
        return f"{self.value}"


QQ = Field(0)


def GF(p: int) -> Field:
    """Prime field of characteristic p (p >= 5)."""
    if p == 0:
        raise BadCharacteristicError("use QQ for characteristic 0")
    return Field(p)
