"""Every container of coefficients holds raw field values.

Over F_p a stored value is an int in ``range(p)``, never a ``bool``; over
Q it is a ``Fraction``.  Element terms and the sparse entries of a
quotient's structure table never store a zero; dense vectors and
matrices hold zeros of the same type.
"""

from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings, strategies as st

import highwater.elements as el
from highwater import GF, QQ
from highwater.eigen import eigendecompose, miyamoto_map
import highwater.ideals as ideals
from highwater.ideals import ideal_of, laurent_gcd
from highwater.quotients import FiniteAlgebra, eigenspace_split
from highwater.textio import format_element, parse_element
from oracle import adjoint, kernel_basis

FIELDS = [QQ, GF(5), GF(7), GF(10 ** 9 + 7)]

# degenerate subscripts (s(0), p(0,k), p(r,4), ...) are included on purpose
_KEYS = st.one_of(
    st.tuples(st.just("a"), st.integers(-8, 8)),
    st.tuples(st.just("s"), st.integers(-8, 8)),
    st.tuples(st.just("p"), st.integers(0, 2), st.integers(0, 9)))
_COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=4)
_TERMS = st.lists(st.tuples(_KEYS, _COEFFS), max_size=6)


def _is_raw(field, c) -> bool:
    p = field.characteristic
    if p:
        return type(c) is int and 0 <= c < p
    return type(c) is Fraction


def assert_element(x):
    assert all(_is_raw(x.field, c) and c for c in x.terms.values()), x.terms


def assert_vectors(field, vecs):
    for v in vecs:
        assert all(_is_raw(field, c) for c in v), v


@lru_cache(maxsize=None)
def _quotients(field):
    """(ideal, quotient) pairs of every kind with a finite quotient."""
    a = lambda i: el.axis(field, i)
    out = []
    for gens, j_relative in (([a(0) - a(4)], False),
                             ([el.v_elem(field, 1)], False),
                             ([a(0) - a(6) + el.pi(field, 1, 3)], False),
                             ([el.pi(field, 1, 6) - el.pi(field, 1, 9)], True),
                             ([a(0)], False)):
        ideal = ideal_of(gens)
        out.append((ideal, FiniteAlgebra(ideal, j_relative=j_relative)))
    return out


def _draw(data):
    field = data.draw(st.sampled_from(FIELDS))
    x, y = (el.from_terms(field, data.draw(_TERMS)) for _ in range(2))
    return field, x, y


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_element_operations_store_raw_values(data):
    field, x, y = _draw(data)
    c = field.from_fraction(data.draw(_COEFFS))
    shift = data.draw(st.integers(-7, 7))
    parsed = parse_element(field, format_element(x))
    assert parsed == x
    dec = eigendecompose(x, shift)
    for z in (x, y, x + y, x - y, -x, x - x, x.scale(c), x * c, x * 3,
              x * y, el.apply(el.theta(shift), x), el.apply(el.tau(shift), x),
              x.part("a"), x.part("s"), x.part("p"), parsed,
              *dec.components.values(), dec.residual, miyamoto_map(x, shift),
              el.u_elem(field, shift), el.v_elem(field, shift),
              el.c_elem(field, shift)):
        assert_element(z)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_reduction_and_quotients_store_raw_values(data):
    field, x, y = _draw(data)
    for ideal, q in _quotients(field):
        assert_element(ideal.reduce(x))
        # the quotient inside the radical takes elements of J only
        u, v = (q.to_vector(z.part("p") if q.j_relative else z)
                for z in (x, y))
        ad = adjoint(q, u)
        assert_vectors(field, [u, v, q.mult(u, v)] + ad)
        assert_vectors(field, kernel_basis(ad, field))


def test_quotient_structure_tables_store_raw_values():
    for field in FIELDS:
        for _, q in _quotients(field):
            entries = [e.values() for e in q.structure.values()]
            assert_vectors(field, entries)
            assert all(all(e) for e in entries)
            assert all(_is_raw(field, c) and c
                       for b in q.basis_labels for c in b.terms.values())


def test_quotient_eigenspaces_store_raw_values():
    for field in FIELDS:
        for _, q in _quotients(field):
            for basis in eigenspace_split(q, 1).values():
                assert_vectors(field, basis)


def _assert_fractions(values):
    values = list(values)
    assert all(type(c) is Fraction for c in values), values


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_q_ideal_engine_leaves_only_fractions(data):
    # the Q path works on integers inside; what leaves it is a Fraction,
    # never an int or a float (1 / v on an int pivot would be a float)
    terms = data.draw(_TERMS)
    g = el.from_terms(QQ, terms + [(("a", 5), 1)])
    g = g - el.axis(QQ, 9).scale(g.weight())
    x = el.from_terms(QQ, data.draw(_TERMS))
    a = lambda i: el.axis(QQ, i)
    for gens in ([g], [g, g * a(1)], [a(0) - a(6) + el.pi(QQ, 1, 3)],
                 [el.v_elem(QQ, 1)]):
        ideal = ideal_of(gens)
        assert_element(ideal.reduce(x))
        if ideal.kind == "pattern":
            pat = ideal.pattern
            _assert_fractions(c.value for c in pat.alpha)
            for row in pat.extension_rows:
                _assert_fractions(row.values())
            assert_element(pat.reduce(x))
        elif ideal.kind == "in_j":
            _assert_fractions(c.value for c in ideal.j_ideal.coeffs)


def test_q_gcd_returns_fractions():
    pats = [(2, -1, 0, 1), (-6, 3, 0, -3), (Fraction(1, 2), 0, 0, 0, 1),
            (0, 4, -4)]
    for k in range(1, len(pats) + 1):
        poly, comb = ideals._gcd(0, [ideals._primitive(pat, 0)
                                     for pat in pats[:k]])
        assert comb is None
        _assert_fractions(poly)
        coeffs, combo = laurent_gcd(QQ, pats[:k])
        _assert_fractions(c.value for c in coeffs)
        _assert_fractions(c.value for _, _, c in combo)
