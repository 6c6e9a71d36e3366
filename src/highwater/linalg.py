"""Tiny exact linear algebra over a Field (dense, list-of-lists)."""

from __future__ import annotations

from .fields import Field, Scalar

Vec = list
Mat = list


def zeros(field: Field, n: int) -> Vec:
    return [field.zero] * n


def vec_sub(u: Vec, v: Vec) -> Vec:
    return [a - b for a, b in zip(u, v)]

def vec_scale(u: Vec, c: Scalar) -> Vec:
    return [a * c for a in u]

def is_zero_vec(u: Vec) -> bool:
    return not any(u)


def mat_vec(m: Mat, v: Vec, field: Field) -> Vec:
    out = []
    for row in m:
        acc = field.zero
        for a, b in zip(row, v):
            acc = acc + a * b
        out.append(acc)
    return out


def mat_mul(a: Mat, b: Mat, field: Field) -> Mat:
    cols = list(zip(*b)) if b else []
    out = []
    for row in a:
        out.append([sum((x * y for x, y in zip(row, col)),
                        start=field.zero) for col in cols])
    return out


class Rref:
    """A row-reduced spanning set with incremental insertion.

    Rows are kept in reduced row echelon form.  Each row may carry an
    arbitrary ``tag`` payload that is combined linearly alongside it
    (used to track ideal-member lifts through row operations).
    """

    def __init__(self, field: Field, width: int,
                 tag_add=None, tag_scale=None):
        self.field = field
        self.width = width
        self.rows: list[Vec] = []
        self.pivots: list[int] = []
        self.tags: list = []
        self._tag_add = tag_add
        self._tag_scale = tag_scale

    def _combine(self, tag, other, c: Scalar):
        if self._tag_add is None:
            return None
        return self._tag_add(tag, self._tag_scale(other, c))

    def residue(self, v: Vec, tag=None):
        """Reduce v against the rows; returns (residue, combined tag)."""
        v = list(v)
        for row, piv, rtag in zip(self.rows, self.pivots, self.tags):
            c = v[piv]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
                tag = self._combine(tag, rtag, -c)
        return v, tag

    def contains(self, v: Vec) -> bool:
        r, _ = self.residue(v)
        return is_zero_vec(r)

    def insert(self, v: Vec, tag=None) -> bool:
        """Insert v into the span; returns True if the rank grew."""
        v, tag = self.residue(v, tag)
        piv = next((i for i, a in enumerate(v) if a), None)
        if piv is None:
            return False
        inv = v[piv].inverse()
        v = [a * inv for a in v]
        if self._tag_scale is not None:
            tag = self._tag_scale(tag, inv)
        # back-substitute into existing rows
        for idx, row in enumerate(self.rows):
            c = row[piv]
            if c:
                self.rows[idx] = [a - c * b for a, b in zip(row, v)]
                self.tags[idx] = self._combine(self.tags[idx], tag, -c)
        pos = next((i for i, p in enumerate(self.pivots) if p > piv),
                   len(self.pivots))
        self.rows.insert(pos, v)
        self.pivots.insert(pos, piv)
        self.tags.insert(pos, tag)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def kernel_basis(m: Mat, field: Field) -> list[Vec]:
    """Basis of the right kernel of the n x n (or m x n) matrix."""
    if not m:
        return []
    ncols = len(m[0])
    rr = Rref(field, ncols)
    for row in m:
        rr.insert(row)
    pivset = set(rr.pivots)
    basis = []
    for j in range(ncols):
        if j in pivset:
            continue
        v = zeros(field, ncols)
        v[j] = field.one
        for row, piv in zip(rr.rows, rr.pivots):
            if row[j]:
                v[piv] = -row[j]
        basis.append(v)
    return basis
