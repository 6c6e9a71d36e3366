import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import highwater.eigen as eigen
import highwater.elements as el
from highwater import GF, QQ, FieldMismatchError, parse_element
from highwater.fields import Scalar
from highwater.eigen import (FAMILIES, eigendecompose, fusion_check,
                             fusion_law, miyamoto_consistency, miyamoto_map,
                             product_identity_suite, twisted_identity_suite)

from conftest import FIELDS, random_element
from oracle import eigendecompose_by_families, fusion_check_by_elements


# -- eigenvectors of the distinguished axis ----------------------------------------

def test_spanning_eigenvectors(field):
    a0 = el.axis(field, 0)
    cases = [(el.u_elem(field, 2), field.scalar(0)),
             (el.v_elem(field, 2), field.scalar(2)),
             (el.w_elem(field, 2), field.scalar(1, 2)),
             (el.z_elem(field, 3), field.scalar(5, 2)),
             (el.w_tilde(field, 3), field.scalar(1, 2)),
             (a0, field.one)]
    for vec, lam in cases:
        assert a0 * vec == vec.scale(lam)


def test_eigendecomposition_total_and_exact(field):
    rng = random.Random(3)
    for _ in range(25):
        x = random_element(field, rng, support=8, index_bound=9)
        dec = eigendecompose(x, 0)
        assert dec.is_total
        total = el.zero(field)
        a0 = el.axis(field, 0)
        for q, comp in dec.components.items():
            assert q in fusion_law(field).values
            assert not comp.is_zero()
            total = total + comp
            assert a0 * comp == comp.scale(q)
        assert total == x


def test_eigendecomposition_translated_axis(field):
    rng = random.Random(4)
    for axis_index in (-2, 1, 5):
        x = random_element(field, rng, support=6)
        dec = eigendecompose(x, axis_index)
        assert dec.is_total
        a = el.axis(field, axis_index)
        for q, comp in dec.components.items():
            if q != field.one:
                assert a * comp == comp.scale(q)


def test_component_keys():
    F = GF(7)
    dec = eigendecompose(el.axis(F, 1), 0)
    two = dec.component(2)
    assert two == parse_element(F, "a(-1) + 5*a(0) + a(1) + 4*s(1)")
    assert dec.component(F.scalar(2)) == two
    assert dec.component(Fraction(1, 2)) == dec.component(F.scalar(1, 2))
    with pytest.raises(FieldMismatchError):
        dec.component(GF(11).scalar(2))
    with pytest.raises(FieldMismatchError):
        dec.component(QQ.scalar(2))
    with pytest.raises(TypeError):
        dec.component(2.0)


_raw_key_st = st.one_of(
    st.tuples(st.sampled_from("as"), st.integers(-40, 40)),
    st.tuples(st.sampled_from("pz"), st.integers(-3, 3),
              st.integers(-40, 40)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_eigendecompose_matches_family_oracle(data):
    F = data.draw(st.sampled_from([QQ, GF(5), GF(7), GF(11), GF(13)]))
    x = el.from_terms(F, data.draw(st.lists(st.tuples(_raw_key_st, st.builds(
        Fraction, st.integers(-99, 99), st.sampled_from([1, 2, 3, 16]))),
        max_size=10)))
    axis_index = data.draw(st.integers(-5, 5))
    got = eigendecompose(x, axis_index)
    want = eigendecompose_by_families(x, axis_index)
    assert got == want
    assert list(got.components) == list(want.components)
    for part in (*got.components.values(), got.residual):
        for c in part.terms.values():
            assert (type(c) is Fraction if not F.characteristic
                    else type(c) is int and 0 <= c < F.characteristic)


@pytest.mark.parametrize("name, make", [row[:2] for row in FAMILIES[1:]],
                         ids=[row[0] for row in FAMILIES[1:]])
def test_slot_shapes_rebuild_the_families(field, name, make):
    shape = eigen._SHAPES[name]
    for i in range(1, 31):  # the p-slots drop out unless 3 | i
        assert el.from_terms(field, zip(eigen._slots(i), shape)) == \
            make(field, i), i


@pytest.mark.parametrize("slot", range(6))
@pytest.mark.parametrize("name", [name for name, _, _ in FAMILIES[1:]])
def test_corrupt_shape_leaves_a_residual(monkeypatch, name, slot):
    shape = list(eigen._SHAPES[name])
    shape[slot] += 1
    monkeypatch.setitem(eigen._SHAPES, name, tuple(shape))
    for F in FIELDS:
        # every family has coefficient 1, so every slot is written
        x = sum((make(F, 3) for _, make, _ in FAMILIES[1:]), el.zero(F))
        assert not eigendecompose(x).is_total


def test_fusion_check_reports_an_emptied_rule(monkeypatch):
    law = fusion_law(QQ)
    monkeypatch.setitem(law.table, (QQ.one, QQ.one), frozenset())
    rep = fusion_check(QQ, 2)
    assert not rep["ok"]
    assert {"pair": ("a(0)", "a(0)"), "eigenvalue": "1",
            "reason": "component outside fusion law"} in rep["violations"]


def test_axis_decomposes_as_itself(field):
    dec = eigendecompose(el.axis(field, 0), 0)
    assert dec.component(field.one) == el.axis(field, 0)
    for q, comp in dec.components.items():
        if q != field.one:
            assert comp.is_zero()


# -- the fusion law -----------------------------------------------------------------

def test_fusion_law_merge_char5():
    law0 = fusion_law(QQ)
    law5 = fusion_law(GF(5))
    # in characteristic 5 the eigenvalues 5/2 and 0 coincide
    assert GF(5).scalar(5, 2) == GF(5).zero
    z = GF(5).zero
    # merged rule: 0*0 must land back in {5/2, 0} = {0}
    assert law5.allowed(z, z) == frozenset({z})
    half0 = QQ.scalar(1, 2)
    assert law0.allowed(half0, half0) == frozenset(
        {QQ.scalar(5, 2), QQ.zero, QQ.scalar(2)})


def test_fusion_table_entries():
    law = fusion_law(QQ)
    one, two, half = QQ.one, QQ.scalar(2), QQ.scalar(1, 2)
    five2, zero = QQ.scalar(5, 2), QQ.zero
    assert law.allowed(one, zero) == frozenset()
    assert law.allowed(five2, two) == frozenset()
    assert law.allowed(one, one) == frozenset({one})
    assert law.allowed(two, half) == frozenset({half})
    assert law.allowed(zero, two) == frozenset({five2, two})


ORACLE_FIELDS = [QQ, GF(5), GF(7), GF(11), GF(13)]


@pytest.mark.parametrize("F", ORACLE_FIELDS, ids=repr)
def test_fusion_check_matches_element_oracle(monkeypatch, F):
    for i_max in range(1, 11):
        assert fusion_check(F, i_max) == fusion_check_by_elements(F, i_max)
    half = F.scalar(1, 2)
    monkeypatch.setitem(fusion_law(F).table, (half, half), frozenset())
    for i_max in range(1, 7):
        rep = fusion_check(F, i_max)
        assert rep == fusion_check_by_elements(F, i_max)
        assert rep["violations"] and not rep["ok"]


@pytest.mark.parametrize("name", [name for name, _, _ in FAMILIES[1:]])
def test_fusion_check_reports_an_untotal_split(monkeypatch, name):
    shape = list(eigen._SHAPES[name])
    shape[1] += 1  # the a(-i) slot, written by every family
    monkeypatch.setitem(eigen._SHAPES, name, tuple(shape))
    for F in FIELDS:
        rep = fusion_check(F, 3)
        assert not rep["ok"]
        assert "decomposition not total" in \
            {v["reason"] for v in rep["violations"]}
        assert rep == fusion_check_by_elements(F, 3)


_int_terms_st = st.lists(st.tuples(_raw_key_st, st.integers(-99, 99)),
                         max_size=10)


@settings(max_examples=100, deadline=None)
@given(F=st.sampled_from(ORACLE_FIELDS), raw=_int_terms_st,
       c=st.integers(-10 ** 6, 10 ** 6),
       corrupt=st.none() | st.tuples(
           st.sampled_from([name for name, _, _ in FAMILIES[1:]]),
           st.integers(0, 5)))
def test_split_of_a_multiple_keeps_components_and_verdict(F, raw, c,
                                                          corrupt):
    p = F.characteristic
    assume(c % p if p else c)
    x = el.from_terms(F, raw)
    xs = el._integral(x.terms, p)[1]
    cxs = {k: m for k, n in xs.items() if (m := c * n % p if p else c * n)}
    with pytest.MonkeyPatch.context() as mp:
        if corrupt:  # a wrong shape leaves a residual in both routes
            name, slot = corrupt
            shape = list(eigen._SHAPES[name])
            shape[slot] += 1
            mp.setitem(eigen._SHAPES, name, tuple(shape))
        comp, residual = eigen._split(cxs, p, fusion_law(F).raw)
        dec = eigendecompose(x)
    assert {Scalar(F, lam) for lam in comp} == set(dec.components)
    assert (not residual) == dec.is_total


@pytest.mark.parametrize("p", [0, 5, 7, 11])
def test_fusion_check_small(p):
    F = QQ if p == 0 else GF(p)
    rep = fusion_check(F, 6)
    assert rep["ok"], rep["violations"]
    assert rep["checked"] > 0


# -- Miyamoto maps -------------------------------------------------------------------

def test_miyamoto_map_matches_index_route(field):
    rng = random.Random(9)
    for axis_index in (-1, 0, 2):
        aut = el.miyamoto(axis_index)
        for _ in range(10):
            x = random_element(field, rng, support=5)
            assert miyamoto_map(x, axis_index) == el.apply(aut, x)


def test_miyamoto_consistency_report(field):
    rep = miyamoto_consistency(field, 1, 9)
    assert rep["ok"]
    assert not rep["failures"]


# -- closed-form identity suites -----------------------------------------------------

@pytest.mark.parametrize("p", [0, 7])
def test_product_identity_suite(p):
    F = QQ if p == 0 else GF(p)
    entries = product_identity_suite(F, 6)
    bad = [e for e in entries if not e["ok"]]
    assert not bad, bad


def test_twisted_identity_suite(field):
    entries = twisted_identity_suite(field, 6)
    bad = [e for e in entries if not e["ok"]]
    assert not bad, bad
