"""Tiny exact linear algebra over a Field (dense, list-of-lists).

Vectors and matrices hold raw field values, as every container of
coefficients does: ints in ``range(p)`` over F_p, ``Fraction``s over Q
(``p == 0``).  Results come back in the same canonical form.
"""

from __future__ import annotations

from .fields import Field

Vec = list
Mat = list


def vec_scale(u: Vec, c, p: int) -> Vec:
    """c * u for a raw value c."""
    return _canonical([a * c for a in u], p)


def mat_vec(m: Mat, v: Vec, field: Field) -> Vec:
    zero = field.zero.value
    return _canonical([sum((a * b for a, b in zip(row, v)), zero)
                       for row in m], field.characteristic)


def mat_mul(a: Mat, b: Mat, field: Field) -> Mat:
    cols = list(zip(*b)) if b else []
    return [mat_vec(cols, row, field) for row in a]


class Rref:
    """A row-reduced spanning set with incremental insertion.

    Rows hold raw field values: ints in ``range(p)`` over F_p, or
    ``Fraction``s over Q (``p == 0``).  They are kept in reduced row
    echelon form, sorted by pivot column; the pivot of a row is its
    first nonzero entry.
    """

    def __init__(self, p: int):
        self.p = p
        self.rows: list[Vec] = []
        self.pivots: list[int] = []

    def residue(self, v: Vec) -> Vec:
        """v reduced against the rows; zero exactly when v is in the span."""
        v = list(v)
        # a pivot column is zero in every other row, so v[piv] is read
        # before any row changes it; the other entries are reduced mod p
        # once, at the end
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                for i, b in enumerate(row):
                    if b:
                        v[i] -= c * b
        return _canonical(v, self.p)

    def insert(self, v: Vec) -> bool:
        """Insert v into the span; returns True if the rank grew."""
        v = self.residue(v)
        piv = next((i for i, a in enumerate(v) if a), None)
        if piv is None:
            return False
        p = self.p
        inv = pow(v[piv], -1, p) if p else 1 / v[piv]
        v = _canonical([a * inv for a in v], p)
        nonzero = [(i, b) for i, b in enumerate(v) if b]
        # back-substitute into existing rows
        for idx, row in enumerate(self.rows):
            c = row[piv]
            if c:
                row = list(row)
                for i, b in nonzero:
                    row[i] -= c * b
                self.rows[idx] = _canonical(row, p)
        pos = next((i for i, q in enumerate(self.pivots) if q > piv),
                   len(self.pivots))
        self.rows.insert(pos, v)
        self.pivots.insert(pos, piv)
        return True


def _canonical(v: Vec, p: int) -> Vec:
    """Entries of v as field values: residues mod p, or unchanged over Q."""
    return [a % p for a in v] if p else v


def kernel_basis(m: Mat, field: Field) -> list[Vec]:
    """Basis of the right kernel of the n x n (or m x n) matrix."""
    if not m:
        return []
    ncols = len(m[0])
    p = field.characteristic
    rr = Rref(p)
    for row in m:
        rr.insert(row)
    pivset = set(rr.pivots)
    basis = []
    for j in range(ncols):
        if j in pivset:
            continue
        v = [field.zero.value] * ncols
        v[j] = field.one.value
        for row, piv in zip(rr.rows, rr.pivots):
            if row[j]:
                v[piv] = p - row[j] if p else -row[j]
        basis.append(v)
    return basis
