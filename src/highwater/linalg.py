"""Tiny exact linear algebra over a Field.

Values are raw field values, as in every container of coefficients:
ints in ``range(p)`` over F_p, ``Fraction``s over Q (``p == 0``).
``Rref`` rows are sparse ``{column: value}`` dicts without zero values;
the vectors and matrices of ``vec_scale``, ``mat_vec`` and ``kernel_basis``
are dense lists and list-of-lists.
"""

from __future__ import annotations

from .elements import _add_scaled
from .fields import Field

Vec = list
Mat = list


def vec_scale(u: Vec, c, p: int) -> Vec:
    """c * u for a raw value c."""
    return [a * c % p for a in u] if p else [a * c for a in u]


def mat_vec(m: Mat, v: Vec, field: Field) -> Vec:
    p, zero = field.characteristic, field.zero.value
    out = [sum((a * b for a, b in zip(row, v)), zero) for row in m]
    return [a % p for a in out] if p else out


class Rref:
    """A row-reduced spanning set of sparse rows with incremental insertion.

    ``rows`` maps each pivot column to its row, a ``{column: value}`` dict
    of nonzero raw values, in the order the rows were inserted.  The rows
    are in reduced row echelon form: the pivot of a row is its lowest
    column and holds 1, and no other row holds that column.
    """

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, dict] = {}

    def residue(self, v: dict) -> dict:
        """v reduced against the rows, as a new dict; empty exactly when v
        is in the span."""
        out, rows = dict(v), self.rows
        # a row is zero at every other pivot, so v's value at a pivot is
        # the multiple of that row to subtract, whatever the order
        for piv, c in v.items():
            row = rows.get(piv)
            if row is not None:
                _add_scaled(out, -c, row.items(), self.p)
        return out

    def insert(self, v: dict) -> bool:
        """Insert v into the span; returns True if the rank grew."""
        v = self.residue(v)
        if not v:
            return False
        p, piv = self.p, min(v)
        inv = pow(v[piv], -1, p) if p else 1 / v[piv]
        v = {i: a * inv % p if p else a * inv for i, a in v.items()}
        # back-substitute into the rows that hold the new pivot column
        for row in self.rows.values():
            c = row.get(piv)
            if c is not None:
                _add_scaled(row, -c, v.items(), p)
        self.rows[piv] = v
        return True


def kernel_basis(m: Mat, field: Field) -> list[Vec]:
    """Basis of the right kernel of the n x n (or m x n) matrix."""
    if not m:
        return []
    ncols = len(m[0])
    p = field.characteristic
    rr = Rref(p)
    for row in m:
        rr.insert({j: a for j, a in enumerate(row) if a})
    basis = []
    for j in range(ncols):
        if j in rr.rows:
            continue
        v = [field.zero.value] * ncols
        v[j] = field.one.value
        for piv, row in rr.rows.items():
            c = row.get(j)
            if c is not None:
                v[piv] = p - c if p else -c
        basis.append(v)
    return basis
