"""Rref, and the test oracle's kernel_basis, on seeded random rows over Q
and GF(7).

Both take and return raw values: ``Fraction``s over Q, ints in
``range(7)`` over GF(7).  The random rows are dense lists; ``Rref``
takes them as sparse ``{column: value}`` dicts, and ``kernel_basis`` as
they are.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import random_scalar
from highwater import GF, QQ
from highwater.linalg import Rref
from oracle import kernel_basis, mat_vec


@pytest.fixture(params=[QQ, GF(7)], ids=lambda f: f"char{f.characteristic}")
def field(request):
    return request.param


def zeros(field, n):
    return [field.zero.value] * n


def _add_multiple(field, rng, row, other, c=None):
    """row + c * other, for a random c unless one is given, reduced into
    the field."""
    if c is None:
        c = random_scalar(field, rng).value
    p = field.characteristic
    return [(a + c * b) % p if p else a + c * b for a, b in zip(row, other)]


def _random_rows(field, rng, nrows, width):
    """Random rows, about a third of them combinations of earlier ones."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.35:
            row = zeros(field, width)
            for other in rng.sample(rows, rng.randint(1, len(rows))):
                row = _add_multiple(field, rng, row, other)
        else:
            row = [random_scalar(field, rng).value if rng.random() < 0.6
                   else field.zero.value for _ in range(width)]
        rows.append(row)
    return rows


def _combination(field, rng, rows, width):
    out = zeros(field, width)
    for row in rows:
        out = _add_multiple(field, rng, out, row)
    return out


def _cases(field, seed):
    rng = random.Random(seed + field.characteristic)
    for _ in range(25):
        width = rng.randint(1, 9)
        yield rng, width, _random_rows(field, rng, rng.randint(0, 8), width)


def _sparse(row):
    return {j: a for j, a in enumerate(row) if a}


def _rref(field, rows):
    rr = Rref(field.characteristic)
    for row in rows:
        rr.insert(_sparse(row))
    return rr


def _reference_rref(field, rows):
    """``{pivot: dense row}`` by Gauss-Jordan elimination of all rows."""
    p = field.characteristic
    done = {}
    for row in rows:
        for piv, other in done.items():
            row = _add_multiple(field, None, row, other, -row[piv])
        piv = next((j for j, a in enumerate(row) if a), None)
        if piv is None:
            continue
        row = _add_multiple(field, None, zeros(field, len(row)), row,
                            pow(row[piv], -1, p) if p else 1 / row[piv])
        for q in done:
            done[q] = _add_multiple(field, None, done[q], row, -done[q][piv])
        done[piv] = row
    return done


def test_rows_are_reduced_and_sorted_by_pivot(field):
    for _, width, rows in _cases(field, 11):
        rr = _rref(field, rows)
        assert {piv: _sparse(row) for piv, row in
                _reference_rref(field, rows).items()} == rr.rows
        for piv, row in rr.rows.items():
            assert min(row) == piv and row[piv] == 1
            assert all(row.values())
            assert all(0 <= j < width for j in row)
            assert [q for q, other in rr.rows.items() if piv in other] \
                == [piv]


def test_rows_hold_raw_field_values(field):
    p = field.characteristic
    for _, _, rows in _cases(field, 17):
        for row in _rref(field, rows).rows.values():
            assert all(row.values())
            if p:
                assert all(type(a) is int and 0 <= a < p
                           for a in row.values())
            else:
                assert all(isinstance(a, Fraction) for a in row.values())


def test_insert_rejects_span_members_and_keeps_rows(field):
    for rng, width, rows in _cases(field, 23):
        rr = _rref(field, rows)
        before = {piv: dict(row) for piv, row in rr.rows.items()}
        assert not rr.insert(_sparse(_combination(field, rng, rows, width)))
        assert not rr.insert({})
        assert rr.rows == before


def test_residue_of_span_member_is_zero(field):
    for rng, width, rows in _cases(field, 37):
        rr = Rref(field.characteristic)
        grew = [rr.insert(_sparse(row)) for row in rows]
        member = _sparse(_combination(field, rng, rows, width))
        kept = dict(member)
        assert rr.residue(member) == {}
        assert member == kept
        # any residue is zero at the pivots, and its argument is kept
        v = _sparse([random_scalar(field, rng).value for _ in range(width)])
        kept = dict(v)
        assert not set(rr.residue(v)) & set(rr.rows)
        assert v == kept
        # the rows that grew the rank are independent of the earlier ones
        assert sum(grew) == len(rr.rows)


def test_kernel_basis_solves_and_has_full_size(field):
    for _, width, rows in _cases(field, 53):
        basis = kernel_basis(rows, field)
        if not rows:
            assert basis == []
            continue
        rr = _rref(field, rows)
        assert len(basis) == width - len(rr.rows)
        for v in basis:
            assert mat_vec(rows, v, field) == zeros(field, len(rows))
        independent = Rref(field.characteristic)
        assert all(independent.insert(_sparse(v)) for v in basis)


def test_kernel_basis_takes_and_returns_raw_values(field):
    p = field.characteristic
    for _, _, rows in _cases(field, 61):
        for v in kernel_basis(rows, field):
            if p:
                assert all(type(c) is int and 0 <= c < p for c in v)
            else:
                assert all(type(c) is Fraction for c in v)
    # x - 2y = 0 has the kernel spanned by (2, 1)
    one, two = field.one.value, field.scalar(2).value
    minus_two = (-field.scalar(2)).value
    assert kernel_basis([[one, minus_two]], field) == [[two, one]]


def test_integral_rows_are_scaled_unit_rows():
    # over Q an integral Rref takes integer rows and keeps each as its unit
    # row times a positive integer, with coprime entries, making no Fraction
    for rng, width, rows in _cases(QQ, 71):
        ints = [[int(a * 12) for a in row] for row in rows]
        unit, rr = Rref(0), Rref(0, integral=True)
        for row in ints:
            assert (unit.insert(_sparse([Fraction(a) for a in row]))
                    == rr.insert(_sparse(row)))
        assert rr.rows.keys() == unit.rows.keys()
        for piv, row in rr.rows.items():
            assert all(type(a) is int for a in row.values())
            assert row[piv] > 0 and gcd(*row.values()) == 1
            assert {j: Fraction(a, row[piv]) for j, a in row.items()} \
                == unit.rows[piv]
        member = [0] * width
        for row in ints:
            c = rng.randint(-5, 5)
            member = [a + c * b for a, b in zip(member, row)]
        assert rr.residue(_sparse(member)) == {}
        # a residue is an integer multiple of the unit one
        v = _sparse([rng.randint(-9, 9) for _ in range(width)])
        res, want = rr.residue(v), unit.residue(
            {j: Fraction(a) for j, a in v.items()})
        assert res.keys() == want.keys()
        assert all(type(a) is int for a in res.values())
        if res:
            j = min(res)
            assert all(a * want[j] == want[i] * res[j] for i, a in res.items())
