"""Exact row reduction of sparse rows: ``Rref``.

Values are raw field values, as in every container of coefficients:
ints in ``range(p)`` over F_p, ``Fraction``s over Q (``p == 0``), except
in an integral ``Rref`` over Q, whose rows are integer numerators.
Rows are sparse ``{column: value}`` dicts without zero values.
"""

from __future__ import annotations

from math import gcd

from .elements import _add_scaled


def _eliminate(u: dict, row: dict, piv: int, p: int, integral: bool) -> dict:
    """u with column piv cleared by a multiple of row, which has the value
    top at piv: u - u[piv] / top * row, or for integral rows that times an
    integer, divided by the gcd of its entries.  May consume u."""
    c, top = u[piv], row[piv]
    if top != 1:  # integral: scale u so that the multiple is whole
        g = gcd(c, top)
        c, u = c // g, {i: a * (top // g) for i, a in u.items()}
    _add_scaled(u, -c, row.items(), p)
    if integral and u:
        g = gcd(*u.values())
        u = {i: a // g for i, a in u.items()}
    return u


class Rref:
    """A row-reduced spanning set of sparse rows with incremental insertion.

    ``rows`` maps each pivot column to its row, a ``{column: value}`` dict
    of nonzero raw values, in the order the rows were inserted.  The rows
    are in reduced row echelon form: the pivot of a row is its lowest
    column and holds 1, and no other row holds that column.

    An ``integral`` one over Q takes integer vectors and keeps each row as
    its unit row scaled to coprime integers, which is as unique for a span;
    its ``residue`` is a nonzero integer multiple of the residue.
    """

    def __init__(self, p: int, integral: bool = False):
        self.p = p
        self.integral = integral and not p
        self.rows: dict[int, dict] = {}

    def residue(self, v: dict) -> dict:
        """v reduced against the rows, as a new dict; empty exactly when v
        is in the span."""
        out = dict(v)
        # a row is zero at every other pivot, so one pass over them suffices
        for piv in [i for i in v if i in self.rows]:
            out = _eliminate(out, self.rows[piv], piv, self.p, self.integral)
        return out

    def insert(self, v: dict) -> bool:
        """Insert v into the span; returns True if the rank grew."""
        v = self.residue(v)
        if not v:
            return False
        p, piv = self.p, min(v)
        if self.integral:
            g = gcd(*v.values()) if v[piv] > 0 else -gcd(*v.values())
            v = {i: a // g for i, a in v.items()}
        else:
            inv = pow(v[piv], -1, p) if p else 1 / v[piv]
            v = {i: a * inv % p if p else a * inv for i, a in v.items()}
        # back-substitute into the rows that hold the new pivot column
        for key, row in self.rows.items():
            if piv in row:
                self.rows[key] = _eliminate(row, v, piv, p, self.integral)
        self.rows[piv] = v
        return True

