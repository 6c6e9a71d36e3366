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

    Rows are kept in reduced row echelon form, sorted by pivot column;
    the pivot of a row is its first nonzero entry.
    """

    def __init__(self):
        self.rows: list[Vec] = []
        self.pivots: list[int] = []

    def residue(self, v: Vec) -> Vec:
        """v reduced against the rows; zero exactly when v is in the span."""
        v = list(v)
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def insert(self, v: Vec) -> bool:
        """Insert v into the span; returns True if the rank grew."""
        v = self.residue(v)
        piv = next((i for i, a in enumerate(v) if a), None)
        if piv is None:
            return False
        inv = v[piv].inverse()
        v = [a * inv for a in v]
        # back-substitute into existing rows
        for idx, row in enumerate(self.rows):
            c = row[piv]
            if c:
                self.rows[idx] = [a - c * b for a, b in zip(row, v)]
        pos = next((i for i, p in enumerate(self.pivots) if p > piv),
                   len(self.pivots))
        self.rows.insert(pos, v)
        self.pivots.insert(pos, piv)
        return True


def kernel_basis(m: Mat, field: Field) -> list[Vec]:
    """Basis of the right kernel of the n x n (or m x n) matrix."""
    if not m:
        return []
    ncols = len(m[0])
    rr = Rref()
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
