import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import highwater.elements as el
from highwater import GF, QQ
from highwater.fields import Field, FieldMismatchError
from highwater.ideals import ideal_of

from conftest import FIELDS, random_element


def A(F, i):
    return el.axis(F, i)


def S(F, j):
    return el.sigma(F, j)


def P(F, r, k):
    return el.pi(F, r, k)


# -- construction conventions ---------------------------------------------------

def test_degenerate_constructors(field):
    assert el.sigma(field, 0).is_zero()
    assert el.pi(field, 1, 4).is_zero()
    assert el.pi(field, 1, 0).is_zero()
    assert el.zed(field, 2, 5).is_zero()
    assert el.pi(field, 0, 3) == -P(field, 1, 3) - P(field, 2, 3)
    assert el.zed(field, 0, 3) == P(field, 1, 3) - P(field, 2, 3)
    assert el.zed(field, 1, 3) == P(field, 1, 3) + P(field, 2, 3).scale(
        field.scalar(2))


def test_negative_s_index_mirrors():
    assert el.sigma(QQ, -2) == el.sigma(QQ, 2)


@pytest.mark.parametrize("F", [QQ, GF(7)], ids=["char0", "char7"])
def test_constructor_normalises_keys(F):
    one = F.one
    assert el.Element(F, {("p", 0, 3): one}) == el.pi(F, 0, 3)
    assert el.Element(F, {("s", -2): one}) == el.sigma(F, 2)
    assert el.Element(F, {("s", 0): one}).is_zero()
    assert el.Element(F, {("p", 1, 4): one}).is_zero()
    with pytest.raises(ValueError):
        el.Element(F, {("q", 1): one})
    with pytest.raises(ValueError):
        el.Element(F, {("q", 1): F.zero})
    with pytest.raises(ValueError):
        el.from_terms(F, [(("q", 1), 1)])


@pytest.mark.parametrize("key", [("a", 1, 2), ("s", 1, 5), ("a",), ("p", 1),
                                 ("z", 1, 3, 0), ()],
                         ids=["a3", "s3", "a1", "p2", "z4", "empty"])
def test_key_of_wrong_length_raises(key):
    # a key of the wrong length is no basis key: ("a", 1, 2) is not a(1)
    with pytest.raises(ValueError):
        el.Element(QQ, {key: QQ.one})
    with pytest.raises(ValueError):
        el.from_terms(GF(7), [(key, 1)])


# -- frozen product values --------------------------------------------------------

def test_product_axis_axis():
    assert A(QQ, 0) * A(QQ, 1) == (A(QQ, 0) + A(QQ, 1)).scale(
        QQ.scalar(1, 2)) + S(QQ, 1)


def test_axis_idempotent(field):
    for i in (-2, 0, 5):
        assert A(field, i) * A(field, i) == A(field, i)


def test_product_axis_axis_distance_three():
    expect = (A(QQ, 0) + A(QQ, 3)).scale(QQ.scalar(1, 2)) + S(QQ, 3) \
        + P(QQ, 1, 3) - P(QQ, 2, 3)
    assert A(QQ, 0) * A(QQ, 3) == expect


def test_product_axis_p():
    expect = P(QQ, 1, 3).scale(QQ.scalar(3, 2)) - P(QQ, 2, 3)
    assert A(QQ, 0) * P(QQ, 1, 3) == expect


def test_product_s_p():
    expect = P(QQ, 1, 3).scale(QQ.scalar(3, 2)) \
        - P(QQ, 1, 6).scale(QQ.scalar(3, 8))
    assert S(QQ, 3) * P(QQ, 1, 3) == expect


def test_product_p_p():
    expect = (P(QQ, 1, 3) + P(QQ, 2, 3).scale(QQ.scalar(2))).scale(
        QQ.scalar(1, 2)) \
        - (P(QQ, 1, 6) + P(QQ, 2, 6).scale(QQ.scalar(2))).scale(
            QQ.scalar(1, 8))
    assert P(QQ, 1, 3) * P(QQ, 1, 3) == expect


# -- products far from the origin -------------------------------------------------
#
# For N = 10^6 + r, the residue N mod 3 is (1 + r) mod 3.  By residue:
# zed(N, 3) spelt out on (p(1,3), p(2,3)), and a(N) * p(1,3) likewise.
_FAR = {
    0: ((1, 2), (Fraction(1, 2), 0)),
    1: ((-2, -1), (Fraction(5, 2), 1)),
    2: ((1, -1), (Fraction(3, 2), -1)),
}


def _p3(F, c1, c2):
    return el.from_terms(F, [(("p", 1, 3), c1), (("p", 2, 3), c2)])


@pytest.mark.parametrize("r", [0, 1, 2])
def test_frozen_products_far_from_origin(field, r):
    N = 10 ** 6 + r
    zed3, ap = _FAR[r]
    half, q38, q34, q32 = (Fraction(1, 2), Fraction(3, 8), Fraction(3, 4),
                           Fraction(3, 2))
    assert A(field, N) * A(field, N + 3) == el.from_terms(field, [
        (("a", N), half), (("a", N + 3), half), (("s", 3), 1)]) \
        + _p3(field, *zed3)
    assert A(field, N) * S(field, 2) == el.from_terms(field, [
        (("a", N), -q34), (("a", N - 2), q38), (("a", N + 2), q38),
        (("s", 2), q32)])
    assert A(field, N) * S(field, 3) == el.from_terms(field, [
        (("a", N), -q34), (("a", N - 3), q38), (("a", N + 3), q38),
        (("s", 3), q32)]) - _p3(field, *zed3)
    assert A(field, N) * P(field, 1, 3) == _p3(field, *ap)


def test_key_product_cache_stays_bounded():
    terms = [(("a", i), c) for i, c in ((-4, 1), (-1, 2), (0, -3), (2, 1),
                                        (5, Fraction(1, 2)))]
    terms += [(("s", j), c) for j, c in ((1, 1), (2, -2), (4, 3))]
    terms += [(("p", r, k), c) for r, k, c in ((1, 3, 1), (2, 3, -1),
                                               (1, 6, 2), (2, 9, 4))]
    mirror = [(k if k[0] != "a" else ("a", 3 - k[1]), c) for k, c in terms]
    pairs = [(el.from_terms(F, terms), el.from_terms(F, mirror))
             for F in FIELDS]
    assert all(len(x.terms) == len(y.terms) == 12 for x, y in pairs)

    def multiply_at(shift):
        for x, y in pairs:
            aut = el.theta(shift)
            el.apply(aut, x) * el.apply(aut, y)

    el._key_product.cache_clear()
    for r in (0, 1, 2):
        multiply_at(r)
    size = el._key_product.cache_info().currsize
    for r in (0, 1, 2):
        multiply_at(3 * 10 ** 5 + r)
        multiply_at(-3 * 10 ** 9 + r)
    assert el._key_product.cache_info().currsize == size


# -- vector-space operations ------------------------------------------------------

def test_add_cancel(field):
    assert (A(field, 0) - A(field, 0)).is_zero()
    assert not (A(field, 0) - A(field, 0)).terms


def test_parts_split(field):
    x = A(field, 0) + S(field, 2) + P(field, 1, 3)
    assert x.part("a") == A(field, 0)
    assert x.part("s") == S(field, 2)
    assert x.part("p") == P(field, 1, 3)
    assert x.part("p").in_p_span()
    assert (x.part("s") + x.part("p")).in_radical()
    assert x.part("a").is_pure_a()


def test_scale_by_zero(field):
    assert A(field, 3).scale(field.zero).is_zero()


@pytest.mark.parametrize("F", [QQ, GF(7)], ids=str)
def test_scalar_multiples_commute(F):
    x = A(F, -2) + S(F, 4).scale(F.scalar(3)) + P(F, 2, 6)
    for c in (3, -5, Fraction(2, 3), F.scalar(3), F.scalar(-1, 4)):
        assert c * x == x * c
    assert F.scalar(3) * x == x.scale(F.scalar(3))
    other = GF(5).scalar(3)
    with pytest.raises(FieldMismatchError):
        other * x
    with pytest.raises(FieldMismatchError):
        x * other
    with pytest.raises(TypeError):
        1.5 * x
    with pytest.raises(TypeError):
        F.scalar(1) + x


def test_equal_elements_hash_alike(field):
    x = A(field, 1) + S(field, 2)
    y = S(field, 2) + A(field, 1)  # the other insertion order
    assert x == y and hash(x) == hash(y)
    assert len({x, y, A(field, 1), A(field, 1) + S(field, 2)}) == 2


def test_items_in_support_order(field):
    x = P(field, 1, 3) + S(field, 2).scale(field.scalar(2)) + A(field, -1)
    assert list(x.items()) == [(("a", -1), field.one),
                               (("s", 2), field.scalar(2)),
                               (("p", 1, 3), field.one)]
    assert list(el.zero(field).items()) == []


# -- the public constructor ----------------------------------------------------

def test_constructor_drops_zero_coefficients(field):
    x = el.Element(field, {("a", 0): field.zero, ("s", 1): field.one})
    assert x == S(field, 1) and list(x.terms) == [("s", 1)]
    z = el.Element(field, {("a", 0): field.zero})
    assert z.is_zero() and not z
    assert z == el.zero(field)
    assert repr(z) == "0"


def test_constructor_rejects_scalar_of_another_field():
    with pytest.raises(FieldMismatchError):
        el.Element(GF(5), {("a", 0): GF(7).scalar(6)})
    with pytest.raises(FieldMismatchError):
        el.Element(QQ, {("a", 0): GF(5).one})


@pytest.mark.parametrize("value", [1, Fraction(1, 2), 0.5, "1"],
                         ids=["int", "fraction", "float", "str"])
def test_constructor_rejects_non_scalar_values(field, value):
    with pytest.raises(TypeError):
        el.Element(field, {("a", 0): value})


# -- weight and Frobenius form ----------------------------------------------------

def test_weight_values(field):
    assert (A(field, 0) * A(field, 1)).weight() == field.one
    assert (S(field, 5) + P(field, 2, 6)).weight() == field.zero
    x = A(field, 2).scale(field.scalar(3)) - A(field, 7)
    assert x.weight() == field.scalar(2)


def test_frobenius_values(field):
    one = field.one
    assert el.frobenius(A(field, 0), A(field, 1)) == one
    assert el.frobenius(A(field, 0) - A(field, 1), A(field, 5)) == field.zero
    assert el.frobenius(A(field, 0).scale(field.scalar(2)),
                        A(field, 1).scale(field.scalar(3))) == field.scalar(6)


# -- exhaustive commutativity over basis pairs ------------------------------------

def _basis_keys(bound):
    keys = [("a", i) for i in range(-bound, bound + 1)]
    keys += [("s", j) for j in range(1, bound + 1)]
    keys += [("p", r, k) for k in range(3, bound + 1, 3) for r in (1, 2)]
    return keys


@pytest.mark.parametrize("F", [QQ, GF(5)], ids=["char0", "char5"])
def test_commutativity_basis_pairs(F):
    keys = _basis_keys(12)
    for k1, k2 in product(keys, repeat=2):
        x = el.Element(F, {k1: F.one})
        y = el.Element(F, {k2: F.one})
        assert x * y == y * x, (k1, k2)


def test_bilinearity(field):
    rng = random.Random(7)
    for _ in range(20):
        x = random_element(field, rng)
        y = random_element(field, rng)
        z = random_element(field, rng)
        c = field.scalar(rng.randint(-5, 5))
        assert (x + y) * z == x * z + y * z
        assert (x.scale(c)) * y == (x * y).scale(c)


# -- automorphisms ---------------------------------------------------------------

def test_automorphism_values():
    assert el.apply(el.tau(1), A(QQ, 0)) == A(QQ, 1)
    assert el.apply(el.tau(0), P(QQ, 1, 3)) == -P(QQ, 2, 3)
    assert el.apply(el.theta(1), P(QQ, 1, 3)) == P(QQ, 2, 3)
    assert el.apply(el.theta(4), A(QQ, -1)) == A(QQ, 3)
    assert el.apply(el.tau(3), A(QQ, 0)) == A(QQ, 3)
    for aut in (el.tau(0), el.tau(1), el.theta(2), el.miyamoto(1)):
        assert el.apply(aut, S(QQ, 4)) == S(QQ, 4)


def test_composition_law():
    t0, t1 = el.tau(0), el.tau(1)
    shift = el.compose(t0, t1)
    for i in range(-4, 5):
        assert el.apply(shift, A(QQ, i)) == A(QQ, i + 1)
    assert el.compose(el.theta(2), el.theta(3)) == el.theta(5)
    assert el.compose(t0, t0) == el.identity_aut()


def test_miyamoto_is_even_reflection():
    assert el.miyamoto(2) == el.tau(4)


def test_automorphism_index_hash_and_repr():
    assert el.tau(1).index(3) == -2 and el.theta(4).index(-1) == 3
    assert el.miyamoto(2).index(5) == -1
    assert hash(el.compose(el.tau(0), el.tau(1))) == hash(el.theta(1))
    assert len({el.miyamoto(2), el.tau(4), el.theta(4)}) == 2
    assert [repr(a) for a in (el.theta(-2), el.tau(4), el.tau(3),
                              el.tau(-1), el.identity_aut())] == [
        "theta(-2)", "tau(2)", "tau(3/2)", "tau(-1/2)", "theta(0)"]


def test_automorphisms_multiplicative(field):
    rng = random.Random(11)
    auts = [el.tau(0), el.tau(1), el.tau(3), el.theta(2), el.miyamoto(-1)]
    # far from the origin, at every residue mod 3
    for j in (3 * 10 ** 8, 3 * 10 ** 8 + 1, 3 * 10 ** 8 + 2,
              -10 ** 9, -10 ** 9 + 1, -10 ** 9 + 2):
        auts += [el.theta(j), el.tau(j)]
    for _ in range(10):
        x = random_element(field, rng, support=4)
        y = random_element(field, rng, support=4)
        for aut in auts:
            assert el.apply(aut, x * y) == el.apply(aut, x) * el.apply(aut, y)


# -- derived elements -------------------------------------------------------------

def test_first_def_s_conversion():
    assert el.first_def_s(QQ, 0, 1) == S(QQ, 1)
    assert el.first_def_s(QQ, 1, 3) == S(QQ, 3) + P(QQ, 1, 3) \
        + P(QQ, 2, 3).scale(QQ.scalar(2))
    total = sum((el.first_def_s(QQ, r, 3) for r in (1, 2)),
                start=el.first_def_s(QQ, 0, 3))
    assert total == S(QQ, 3).scale(QQ.scalar(3))


def test_derived_element_conventions(field):
    assert el.u_elem(field, 0).is_zero()
    assert el.v_elem(field, 0).is_zero()
    assert el.w_elem(field, 2) == A(field, -2) - A(field, 2)
    assert el.z_pair(field, 1, 2) == el.z_elem(field, 3)


# -- hypothesis property tests -----------------------------------------------------

_key_st = st.one_of(
    st.tuples(st.just("a"), st.integers(-10, 10)),
    st.tuples(st.just("s"), st.integers(1, 10)),
    st.tuples(st.just("p"), st.integers(1, 2),
              st.integers(1, 3).map(lambda k: 3 * k)))


def _elem_st(F):
    return st.dictionaries(_key_st, st.integers(-9, 9), max_size=5).map(
        lambda d: el.Element(F, {k: F.scalar(c) for k, c in d.items() if c}))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_commutativity_random(data):
    F = data.draw(st.sampled_from(FIELDS))
    x = data.draw(_elem_st(F))
    y = data.draw(_elem_st(F))
    assert x * y == y * x


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_weight_homomorphism_random(data):
    F = data.draw(st.sampled_from(FIELDS))
    x = data.draw(_elem_st(F))
    y = data.draw(_elem_st(F))
    assert (x * y).weight() == x.weight() * y.weight()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_frobenius_associative_random(data):
    F = data.draw(st.sampled_from(FIELDS))
    x = data.draw(_elem_st(F))
    y = data.draw(_elem_st(F))
    z = data.draw(_elem_st(F))
    assert el.frobenius(x * y, z) == el.frobenius(x, y * z)


# -- rejected input --------------------------------------------------------------

@pytest.mark.parametrize("make, error", [
    (lambda: el.apply(el.tau(1.5), A(QQ, 0)), TypeError),
    (lambda: el.theta("1"), TypeError),
    (lambda: el.Automorphism(1.0, 0), TypeError),
    (lambda: el.axis(QQ, 1.5) * A(QQ, 0), TypeError),
    (lambda: ideal_of([el.from_terms(QQ, [(("a", 0), 1), (("a", 2.5), -1)])]),
     TypeError),
    (lambda: el.Element(QQ, {("s", 2.0): QQ.one}), TypeError),
    (lambda: el.pi(QQ, 1, 3.0), TypeError),
    (lambda: el.zed(QQ, 1.0, 3), TypeError),
    (lambda: A(QQ, 0) + A(GF(5), 0), FieldMismatchError),
    (lambda: el.Automorphism(2, 0), ValueError),
], ids=["tau", "theta", "automorphism", "axis", "ideal_of", "constructor",
        "pi", "zed", "fields", "sign"])
def test_bad_input_raises(make, error):
    with pytest.raises(error):
        make()
