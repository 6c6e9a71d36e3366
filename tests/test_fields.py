import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from highwater.fields import (GF, QQ, BadCharacteristicError, Field,
                              FieldMismatchError)


def test_field_singletons():
    assert Field(0) is QQ
    assert Field(5) is GF(5)


@pytest.mark.parametrize("F", [QQ, GF(5), GF(10 ** 9 + 7)],
                         ids=["char0", "char5", "char1e9+7"])
def test_zero_and_one_built_once(F):
    assert F.zero is F.zero and F.one is F.one
    assert F.zero == F.scalar(0) and F.one == F.scalar(1)
    for c in (F.zero, F.one):
        assert type(c.value) is (Fraction if F is QQ else int)
    with pytest.raises(AttributeError):
        F.zero = F.one


@pytest.mark.parametrize("bad", [2, 3, 4, 6, 9, 15, -1, 13.0, Fraction(7)],
                         ids=repr)
def test_bad_characteristic_rejected(bad):
    with pytest.raises(BadCharacteristicError):
        Field(bad)
    # a rejected 13.0 is not cached under the key 13
    assert type(GF(13).characteristic) is int
    assert GF(13).characteristic == 13


# 3215031751 and 3825123056546413051 are strong pseudoprimes to the bases
# 2..7 and 2..23; 2^64 + 13, the first prime above 2^64, is too large
@pytest.mark.parametrize("p,prime", [
    (10**18 + 3, True),
    ((10**9 + 7) * (10**9 + 9), False),
    (3215031751, False),
    (3825123056546413051, False),
    (2**64 + 13, False),
])
def test_large_characteristic_decided_fast(p, prime):
    start = time.perf_counter()
    if prime:
        assert Field(p).characteristic == p
    else:
        with pytest.raises(BadCharacteristicError):
            Field(p)
    assert time.perf_counter() - start < 0.5


def test_small_characteristics_match_trial_division():
    for n in range(5, 5000):
        composite = any(n % d == 0 for d in range(2, int(n**0.5) + 1))
        if composite:
            with pytest.raises(BadCharacteristicError):
                Field(n)
        else:
            assert Field(n).characteristic == n


def test_rational_arithmetic():
    half = QQ.scalar(1, 2)
    third = QQ.scalar(1, 3)
    assert (half + third).value == Fraction(5, 6)
    assert (half * third).value == Fraction(1, 6)
    assert (half - half).value == 0
    assert (half / third).value == Fraction(3, 2)
    assert (-half).value == Fraction(-1, 2)


def test_prime_field_arithmetic():
    F = GF(7)
    a = F.scalar(3)
    b = F.scalar(5)
    assert (a + b).value == 1
    assert (a * b).value == 1
    assert (a - b).value == 5
    assert (a / b).value == (3 * 3) % 7  # 5^{-1} = 3 mod 7
    assert F.scalar(1, 2).value == 4  # 1/2 = 4 mod 7


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.one / QQ.zero
    with pytest.raises(ZeroDivisionError):
        GF(5).one / GF(5).zero


def test_cross_field_operations_rejected():
    with pytest.raises(FieldMismatchError):
        QQ.one + GF(5).one
    with pytest.raises(FieldMismatchError):
        GF(5).one * GF(7).one


def test_product_with_a_non_scalar_is_left_to_the_other_operand():
    # so that Scalar * Element reaches Element.__rmul__
    assert QQ.one.__mul__(2) is NotImplemented
    assert GF(5).one.__mul__(Fraction(1, 2)) is NotImplemented
    with pytest.raises(TypeError):
        QQ.one * 2
    with pytest.raises(TypeError):
        2 * GF(5).one


def test_field_equality():
    assert QQ == Field(0) and GF(7) == Field(7)
    assert QQ != GF(5) and GF(5) != GF(7)
    assert QQ != 0 and GF(5) != 5
    assert hash(GF(7)) == hash(Field(7))


def test_as_fraction():
    assert QQ.scalar(-3, 4).as_fraction() == Fraction(-3, 4)
    assert GF(7).scalar(-1).as_fraction() == 6
    assert GF(11).scalar(1, 2).as_fraction() == 6
    assert type(GF(7).one.as_fraction()) is Fraction


def test_from_fraction():
    assert GF(11).from_fraction(Fraction(1, 2)).value == 6
    assert QQ.from_fraction(Fraction(-3, 4)).value == Fraction(-3, 4)


@pytest.mark.parametrize("F", [QQ, GF(5), GF(7), GF(11), GF(10 ** 9 + 7)],
                         ids=str)
def test_floats_rejected(F):
    for q in (0.1, 0.5, 2.0):
        with pytest.raises(TypeError):
            F.from_fraction(q)
        with pytest.raises(TypeError):
            F.scalar(q)
    with pytest.raises(TypeError, match="int or Fraction, not Scalar"):
        F.from_fraction(F.one)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_field_axioms_sample(a, b, c):
    for F in (QQ, GF(5), GF(7)):
        x, y, z = F.scalar(a), F.scalar(b), F.scalar(c)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        if y:
            assert (x / y) * y == x
