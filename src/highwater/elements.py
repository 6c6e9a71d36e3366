"""Elements of the infinite-dimensional cover of the Highwater algebra.

The algebra has basis

    a(i)   for i in Z          (the axes)
    s(j)   for j >= 1
    p(r,k) for r in {1, 2} and k a positive multiple of 3

over any field of characteristic other than 2 and 3.  One normaliser,
``_normal``, maps a raw key to the stored keys it stands for, for every
constructor and the product table: s(-j) = s(j), s(0) = 0, p(r,-k) =
p(r,k), p(r,k) = 0 unless 3 | k != 0, p(0,k) = -p(1,k) - p(2,k), and the
raw key ("z", r, k) is the difference symbol

    zed(r,k) = p(r+1,k) - p(r-1,k)    (residues mod 3),

so stored P keys carry residue 1 or 2.  Other kinds raise ``ValueError``.

Elements are sparse dicts mapping basis keys to nonzero raw field
values: ints in ``range(p)`` over F_p, ``Fraction``s over Q.  A ``Scalar``
is built only for a single coefficient that a caller passes in (the
constructor, ``scale``) or reads out (``coeff``, ``items``, ``weight``).
Elements are treated as immutable: all operations return fresh elements.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterator

from .fields import Field, FieldMismatchError, Scalar

# Basis keys are plain tuples: ("a", i), ("s", j), ("p", r, k) with
# r in {1, 2}, k a positive multiple of 3.
Key = tuple

# ordering rank for printing / canonical term order
_KIND_RANK = {"a": 0, "s": 1, "p": 2}

# the coefficients of p(1,k) and p(2,k) in p(r,k) and zed(r,k), by r mod 3
_RESIDUES = {"p": ((-1, -1), (1, 0), (0, 1)),
             "z": ((1, -1), (1, 2), (-2, -1))}


def key_sort(key: Key):
    if key[0] == "p":
        return (2, key[2], key[1])
    return (_KIND_RANK[key[0]], key[1])


class Element:
    """A finitely supported linear combination of basis keys."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict[Key, Scalar] | None = None):
        terms = terms or {}
        for c in terms.values():
            field.zero._check(c)  # a Scalar of this field, or raise
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", _sum(
            field.characteristic, ((k, c.value) for k, c in terms.items())))

    @classmethod
    def _of(cls, field: Field, terms: dict) -> "Element":
        """The element owning ``terms``: nonzero raw values, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Element is immutable; use arithmetic methods")

    # -- basics ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coeff(self, key: Key) -> Scalar:
        c = self.terms.get(key)
        return self.field.zero if c is None else Scalar(self.field, c)

    def support(self) -> list[Key]:
        return sorted(self.terms, key=key_sort)

    def items(self) -> Iterator[tuple[Key, Scalar]]:
        return iter([(k, self.coeff(k)) for k in self.support()])

    def _check(self, other: "Element"):
        if not isinstance(other, Element):
            raise TypeError(f"expected Element, got {type(other).__name__}")
        if other.field is not self.field:
            raise FieldMismatchError(
                f"cannot combine elements over {self.field} and {other.field}")

    def __eq__(self, other):
        return (isinstance(other, Element)
                and other.field is self.field
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.field.characteristic,
                     frozenset(self.terms.items())))

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        _add_scaled(out, 1, other.terms.items(), self.field.characteristic)
        return Element._of(self.field, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._scaled(-1)

    def scale(self, c: Scalar) -> "Element":
        self.field.zero._check(c)  # a Scalar of this field, or raise
        if not c:
            return Element._of(self.field, {})
        return self._scaled(c.value)

    def _scaled(self, c) -> "Element":
        """c * self for a nonzero raw multiplier c."""
        out = {}
        _add_scaled(out, c, self.terms.items(), self.field.characteristic)
        return Element._of(self.field, out)

    # -- multiplication ----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(self.field.from_fraction(other))
        if isinstance(other, Scalar):
            return self.scale(other)
        self._check(other)
        field = self.field
        p = field.characteristic
        # over Q, clear denominators: self = X/dx and other = Y/dy with X
        # and Y integral; over F_p the values are ints already
        dx, left = _integral(self.terms, p)
        dy, right = _integral(other.terms, p)
        if p:  # divide by 8 before multiplying
            inv = pow(8, -1, p)
            left = {k: n * inv % p for k, n in left.items()}
            return Element._of(field, _products(left, right, p))
        den = 8 * dx * dy
        return Element._of(field, {k: Fraction(n, den) for k, n
                                   in _products(left, right, 0).items()})

    __rmul__ = __mul__  # c * x for an int, Fraction or Scalar c

    # -- structural queries --------------------------------------------------

    def part(self, kind: str) -> "Element":
        """The pure a-, s- or p-part of the element."""
        return Element._of(self.field, {k: c for k, c in self.terms.items()
                                        if k[0] == kind})

    def in_radical(self) -> bool:
        return not self.weight()

    def in_p_span(self) -> bool:
        """True when supported entirely on P keys (the ideal J)."""
        return all(k[0] == "p" for k in self.terms)

    def is_pure_a(self) -> bool:
        return all(k[0] == "a" for k in self.terms)

    def weight(self) -> Scalar:
        """The weight homomorphism: the sum of the a-coefficients."""
        field = self.field
        p = field.characteristic
        w = sum((c for k, c in self.terms.items() if k[0] == "a"),
                field.zero.value)
        return Scalar(field, w % p if p else w)

    def __repr__(self):
        from .textio import format_element
        return format_element(self)


def _integral(terms: dict, p: int) -> tuple[int, dict]:
    """``(den, {key: den * value})`` with integer values: over Q, den is
    the lcm of the denominators; over F_p, ``(1, terms)``."""
    if p:
        return 1, terms
    den = lcm(*(c.denominator for c in terms.values()))
    return den, {k: c.numerator * (den // c.denominator)
                 for k, c in terms.items()}


def _add_scaled(acc: dict, c, terms, p: int) -> None:
    """acc += c * terms in place, dropping zeros; values reduce mod p.

    ``terms`` yields (key, value) pairs of nonzero raw values (plain ints
    when p is 0 outside a field); ``c`` is an int or ``Fraction``, nonzero
    mod p.  Scaling by 1 or -1 multiplies nothing, and a key new to
    ``acc`` takes its value without an addition.
    """
    get = acc.get
    one, neg = c == 1, c == -1
    for k, b in terms:
        if not one:
            b = (p - b if p else -b) if neg else c * b
        v = get(k)
        if v is not None:
            b += v
        if p:
            b %= p
        if b:
            acc[k] = b
        else:
            acc.pop(k, None)


def _normal(key: Key) -> tuple[tuple[Key, int], ...]:
    """The stored keys that a raw key stands for, as (key, n) pairs: the
    raw key is the sum of n * key over them."""
    kind = key[0]
    if kind == "a":
        return ((key, 1),)
    if kind == "s":
        j = key[1]
        return ((key, 1),) if j > 0 else ((("s", -j), 1),) if j else ()
    row = _RESIDUES.get(kind)
    if row is None:
        raise ValueError(f"unknown basis key {key!r}")
    k = key[2]
    if not k or k % 3:
        return ()
    k, (n1, n2) = abs(k), row[key[1] % 3]
    if not n2:
        return ((("p", 1, k), n1),)
    if not n1:
        return ((("p", 2, k), n2),)
    return ((("p", 1, k), n1), (("p", 2, k), n2))


def _sum(p: int, pairs) -> dict:
    """The stored terms of a sum of (raw key, raw value) pairs, as
    ``_add_scaled`` leaves them."""
    acc = {}
    for key, c in pairs:
        terms = _normal(key)  # an unknown kind raises, whatever c is
        if c:
            for k, n in terms:
                _add_scaled(acc, n, ((k, c),), p)
    return acc


# -- constructors -----------------------------------------------------------

def zero(field: Field) -> Element:
    return Element._of(field, {})


def axis(field: Field, i: int) -> Element:
    """The axis a(i)."""
    return Element._of(field, {("a", i): field.one.value})


def sigma(field: Field, j: int) -> Element:
    """The symbol s(j); s(0) = 0 and s(-j) = s(j)."""
    return from_terms(field, ((("s", j), 1),))


def pi(field: Field, r: int, k: int) -> Element:
    """The symbol p(r,k), with residue and subscript normalisation."""
    return from_terms(field, ((("p", r, k), 1),))


def zed(field: Field, r: int, k: int) -> Element:
    """The difference symbol zed(r,k) = p(r+1,k) - p(r-1,k)."""
    return from_terms(field, ((("z", r, k), 1),))


def from_terms(field: Field, terms) -> Element:
    """Sum of (raw key, rational) pairs."""
    return Element._of(field, _sum(field.characteristic, [
        (key, field._value(q)) for key, q in terms]))


# -- the product ------------------------------------------------------------
#
# Every structure constant is a multiple of 1/8, so _key_product returns
# the product of two basis keys as (key, n) pairs meaning the sum of
# n/8 * key.  These integers are the same in every field: _products
# accumulates them as plain ints, and its callers make field values.
# The cache is keyed on key pairs alone and shared by all fields.
#
# The translation theta(t) by a multiple t of 3 is an automorphism that
# shifts axis subscripts by t and fixes every s and p key, because it
# fixes the residues mod 3 that decide the p-terms.  So a(i) * k is
# a(i mod 3) * k' with every axis of the result shifted by t = i - i mod 3,
# where k' is k shifted by -t.  _products looks pairs up in that reduced
# form, so a pair and its shift by a multiple of 3 share one entry.  The
# cache still grows with the subscripts a pair holds: s and p subscripts
# are keyed as they are, and so is an axis pair's spread i - j.


def _products(left: dict, right: dict, p: int) -> dict:
    """8 * left * right for integer term dicts, reduced mod p, no zeros."""
    acc: dict[Key, int] = {}
    get = acc.get
    for k1, n1 in left.items():
        for k2, n2 in right.items():
            # translate the pair by the multiple of 3 in an axis subscript
            if k1[0] == "a":
                t = k1[1] - k1[1] % 3
            elif k2[0] == "a":
                t = k2[1] - k2[1] % 3
            else:
                t = 0
            c = n1 * n2
            for k3, n in _key_product(
                    ("a", k1[1] - t) if k1[0] == "a" else k1,
                    ("a", k2[1] - t) if k2[0] == "a" else k2):
                if k3[0] == "a":
                    k3 = ("a", k3[1] + t)
                acc[k3] = get(k3, 0) + c * n
    if p:
        return {k: m for k, n in acc.items() if (m := n % p)}
    # terms cancel rarely, and never in the product of two keys
    return {k: n for k, n in acc.items() if n} if 0 in acc.values() else acc


@lru_cache(maxsize=None)
def _key_product(k1: Key, k2: Key) -> tuple[tuple[Key, int], ...]:
    """k1 * k2 as (key, n) pairs: the sum of n/8 * key."""
    if key_sort(k1) > key_sort(k2):
        k1, k2 = k2, k1
    kinds, i, j = k1[0] + k2[0], k1[1], k2[1]  # first subscripts: r of a p-key
    if kinds == "aa":
        terms = ((k1, 4), (k2, 4), (("s", i - j), 8), (("z", i, i - j), 8))
    elif kinds == "as":
        terms = ((k1, -6), (("a", i - j), 3), (("a", i + j), 3), (k2, 12),
                 (("z", i, j), -8))
    elif kinds == "ap":
        terms = ((k2, 12), (("p", -(i + j), k2[2]), -8))
    elif kinds == "ss":
        terms = ((k1, 6), (k2, 6), (("s", i - j), -3), (("s", i + j), -3))
    elif kinds == "sp":
        terms = ((("p", j, i), 6), (k2, 6), (("p", j, i - k2[2]), -3),
                 (("p", j, i + k2[2]), -3))
    else:  # p * p
        h, k, u = k1[2], k2[2], -(i + j)
        terms = ((("z", u, h), 2), (("z", u, k), 2), (("z", u, h - k), -1),
                 (("z", u, h + k), -1))
    return tuple(_sum(0, terms).items())


# -- automorphisms ------------------------------------------------------------
#
# The relevant symmetries act on axis subscripts by i -> sign*i + shift.
# Reflection centres may be half-integers, so the shift of a reflection
# stores the *doubled* centre; translations store the plain offset.


class Automorphism:
    """An index map i -> sign*i + shift together with its action on keys."""

    __slots__ = ("sign", "shift")

    def __init__(self, sign: int, shift: int):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "shift", int(shift))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Automorphism is immutable")

    def index(self, i: int) -> int:
        return self.sign * i + self.shift

    def __eq__(self, other):
        return (isinstance(other, Automorphism)
                and other.sign == self.sign and other.shift == self.shift)

    def __hash__(self):
        return hash((self.sign, self.shift))

    def __repr__(self):
        if self.sign == 1:
            return f"theta({self.shift})"
        return f"tau({self.shift}/2)" if self.shift % 2 else \
            f"tau({self.shift // 2})"


def identity_aut() -> Automorphism:
    return Automorphism(1, 0)


def theta(j: int) -> Automorphism:
    """Translation by j: a(i) -> a(i+j)."""
    return Automorphism(1, j)


def tau(two_k: int) -> Automorphism:
    """Reflection about the (half-)integer centre two_k/2.

    The argument is the doubled centre, so ``tau(3)`` reflects about 3/2.
    """
    return Automorphism(-1, two_k)


def miyamoto(i: int) -> Automorphism:
    """The involution attached to axis a(i): reflection about i."""
    return tau(2 * i)


def compose(first: Automorphism, second: Automorphism) -> Automorphism:
    """Apply ``first``, then ``second`` (right action on elements)."""
    return Automorphism(first.sign * second.sign,
                        second.sign * first.shift + second.shift)


def apply(aut: Automorphism, x: Element) -> Element:
    """Image of x under the automorphism."""
    p = x.field.characteristic
    sign, shift = aut.sign, aut.shift
    out: dict[Key, object] = {}
    for key, c in x.terms.items():
        if key[0] == "a":
            # reflections store the doubled centre, so i -> shift - i
            out[("a", sign * key[1] + shift)] = c
        elif key[0] == "s":
            out[key] = c
        else:
            # a reflection negates; only images of residue 0 can collide
            for pk, q in _normal(("p", sign * key[1] + shift, key[2])):
                _add_scaled(out, sign * q, ((pk, c),), p)  # q is +1 or -1
    return Element._of(x.field, out)


# -- derived elements (relative to axis a(0)) ---------------------------------

def c_elem(field: Field, i: int) -> Element:
    """c(i) = 2 a(0) - a(-i) - a(i); c(0) = 0."""
    return from_terms(field, [(("a", 0), 2), (("a", -i), -1), (("a", i), -1)])


def _c_shape(field: Field, i: int, m: int, n: int) -> Element:
    """m c(i) + n s(i) + n zed(0,i), zero for i = 0."""
    return from_terms(field, [(("a", 0), 2 * m), (("a", -i), -m),
                              (("a", i), -m), (("s", i), n),
                              (("p", 1, i), n), (("p", 2, i), -n)])


def u_elem(field: Field, i: int) -> Element:
    """0-eigenvector u(i) = 3 c(i) + 4 s(i) + 4 zed(0,i)."""
    return _c_shape(field, i, 3, 4)


def v_elem(field: Field, i: int) -> Element:
    """2-eigenvector v(i) = c(i) - 4 s(i) - 4 zed(0,i)."""
    return _c_shape(field, i, 1, -4)


def w_elem(field: Field, i: int) -> Element:
    """1/2-eigenvector w(i) = a(-i) - a(i); w(0) = 0."""
    return axis(field, -i) - axis(field, i)


def z_elem(field: Field, i: int) -> Element:
    """5/2-eigenvector z(i) = p(1,i) - p(2,i) = zed(0,i)."""
    return zed(field, 0, i)


def w_tilde(field: Field, i: int) -> Element:
    """1/2-eigenvector wt(i) = p(1,i) + p(2,i) = -p(0,i)."""
    return -pi(field, 0, i)


def _pair(make, field: Field, i: int, j: int) -> Element:
    return (make(field, i) * (-2) + make(field, j) * (-2)
            + make(field, abs(i - j)) + make(field, i + j))


def c_pair(field: Field, i: int, j: int) -> Element:
    """c(i,j) = -2(c(i)+c(j)) + c(|i-j|) + c(i+j)."""
    return _pair(c_elem, field, i, j)


def t_pair(field: Field, i: int, j: int) -> Element:
    """t(i,j) = -2(s(i)+s(j)) + s(|i-j|) + s(i+j)."""
    return _pair(sigma, field, i, j)


def u_pair(field: Field, i: int, j: int) -> Element:
    return _pair(u_elem, field, i, j)


def v_pair(field: Field, i: int, j: int) -> Element:
    return _pair(v_elem, field, i, j)


def z_pair(field: Field, i: int, j: int) -> Element:
    return _pair(z_elem, field, i, j)


def first_def_s(field: Field, r: int, j: int) -> Element:
    """The residue-decorated symbol s(r,j) = s(j) + zed(r,j).

    This realises the alternative presentation whose s-symbols carry a
    residue; its arithmetic is recovered through this conversion rather
    than implemented separately.
    """
    return sigma(field, j) + zed(field, r, j)


def frobenius(x: Element, y: Element) -> Scalar:
    """The invariant bilinear form (x, y) = weight(x) * weight(y)."""
    x._check(y)
    return x.weight() * y.weight()
