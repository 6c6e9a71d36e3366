import random

import pytest

import highwater.elements as el
from highwater import GF, QQ
from highwater.textio import (ParseError, element_from_json, element_to_json,
                              format_element, parse_element)

from conftest import FIELDS, random_element


def test_parse_simple():
    assert parse_element(QQ, "a(0) - a(1)") == el.axis(QQ, 0) - el.axis(QQ, 1)
    assert parse_element(QQ, "1/2*s(2) + p(2,3)") == \
        el.sigma(QQ, 2).scale(QQ.scalar(1, 2)) + el.pi(QQ, 2, 3)
    assert parse_element(QQ, "0").is_zero()
    assert parse_element(QQ, "3*a(-2)") == el.axis(QQ, -2).scale(QQ.scalar(3))


def test_parse_derived_symbols():
    assert parse_element(QQ, "z(1,3)") == el.zed(QQ, 1, 3)
    assert parse_element(QQ, "u(2)") == el.u_elem(QQ, 2)
    assert parse_element(QQ, "v(1) + w(1)") == \
        el.v_elem(QQ, 1) + el.w_elem(QQ, 1)
    assert parse_element(QQ, "wt(3)") == el.w_tilde(QQ, 3)


def test_parse_degenerate_index_warns():
    warnings = []
    x = parse_element(QQ, "p(1,4)", warn=warnings.append)
    assert x.is_zero()
    assert warnings


def test_parse_errors_have_position():
    for bad in ("a(", "a(0) +", "q(1)", "1/0*a(0)", "a(0) a(1)", "",
                "a(1)#", "3a(1)", "3", "a(x)"):
        with pytest.raises(ParseError):
            parse_element(QQ, bad)


def test_format_canonical():
    x = el.axis(QQ, 0).scale(QQ.scalar(1, 2)) - el.sigma(QQ, 1)
    assert format_element(x) == "1/2*a(0) - s(1)"
    assert format_element(el.zero(QQ)) == "0"


def test_print_parse_round_trip_1000():
    rng = random.Random(20260826)
    for n in range(1000):
        F = FIELDS[n % len(FIELDS)]
        x = random_element(F, rng, support=8, index_bound=12)
        assert parse_element(F, format_element(x)) == x


def test_json_round_trip():
    rng = random.Random(5)
    for F in (QQ, GF(7)):
        for _ in range(50):
            x = random_element(F, rng)
            assert element_from_json(F, element_to_json(x)) == x


def test_json_characteristic_mismatch():
    data = element_to_json(el.axis(QQ, 0))
    with pytest.raises(ParseError):
        element_from_json(GF(5), data)


def test_json_malformed_raises_parse_error():
    def data(*terms):
        return {"characteristic": 0, "terms": [
            {"key": key, "coeff": coeff} for key, coeff in terms]}

    for bad in (data(({"kind": "q", "i": 0}, "1")),
                data(({"kind": "a"}, "1")),
                data(({"kind": "a", "i": 0}, "x")),
                data(({"kind": "p", "r": 1, "k": "y"}, "1")),
                {"characteristic": 0, "terms": [{"coeff": "1"}]},
                {"characteristic": 0},
                [],
                "x"):
        with pytest.raises(ParseError):
            element_from_json(QQ, bad)
    undefined = data(({"kind": "a", "i": 0}, "1/5"))  # 1/5 is not in GF(5)
    undefined["characteristic"] = 5
    with pytest.raises(ParseError):
        element_from_json(GF(5), undefined)


@pytest.mark.parametrize("text, want", [
    ("p(1 3)", "expected ','"),
    ("a(1) ", el.axis(QQ, 1)),
    ("s(2)\t\n", el.sigma(QQ, 2)),
], ids=["missing_comma", "trailing_space", "trailing_tab"])
def test_literal_edges(text, want):
    if isinstance(want, str):
        with pytest.raises(ParseError, match=want):
            parse_element(QQ, text)
    else:
        assert parse_element(QQ, text) == want
