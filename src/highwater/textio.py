"""Text round-tripping for elements: printing, parsing, JSON forms.

Grammar for element literals (whitespace-insensitive):

    element  := [sign] term { ('+' | '-') term }
    term     := [ coefficient '*' ] atom
    atom     := name '(' int [ ',' int ] ')'
    name     := 'a' | 's' | 'p' | 'z' | 'u' | 'v' | 'w' | 'c' | 'wt'
    coefficient := int [ '/' int ]

'0' parses to the zero element.  Degenerate subscripts (s(0), p(r,4),
...) normalise to zero and are reported through the optional ``warn``
callback.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import elements as el
from .fields import Field


class ParseError(ValueError):
    """Raised for malformed element literals."""


def _format_coeff(q) -> tuple[str, str]:
    """(sign, magnitude-with-star) for a raw coefficient of an element."""
    if isinstance(q, Fraction):
        sign = "-" if q < 0 else "+"
        mag = abs(q)
        return sign, "" if mag == 1 else f"{mag}*"
    # prime field residue: always printed as the canonical residue
    return "+", "" if q == 1 else f"{q}*"


def _format_key(key) -> str:
    if key[0] == "p":
        return f"p({key[1]},{key[2]})"
    return f"{key[0]}({key[1]})"


def format_element(x: el.Element) -> str:
    if x.is_zero():
        return "0"
    parts = []
    for key in x.support():
        sign, mag = _format_coeff(x.terms[key])
        if not parts:
            parts.append(f"-{mag}" if sign == "-" else mag)
        else:
            parts.append(f" {sign} {mag}")
        parts[-1] += _format_key(key)
    return "".join(parts)


_TOKEN = re.compile(r"\s*([a-z]+|\d+|[()+\-*/,])")

_ATOMS = {
    "a": (1, el.axis),
    "s": (1, el.sigma),
    "p": (2, el.pi),
    "z": (2, el.zed),
    "u": (1, el.u_elem),
    "v": (1, el.v_elem),
    "w": (1, el.w_elem),
    "wt": (1, el.w_tilde),
    "c": (1, el.c_elem),
}

# atoms whose subscripts can normalise silently to zero
_DEGENERATE_OK = {"u", "v", "w", "c"}


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at position {pos}: "
                                 f"{text[pos:pos + 10]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, field: Field, tokens: list[str], warn):
        self.field = field
        self.tokens = tokens
        self.pos = 0
        self.warn = warn or (lambda msg: None)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def parse_int(self) -> int:
        neg = False
        while self.peek() in ("+", "-"):
            neg ^= (self.take() == "-")
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"expected integer, got {tok!r}")
        return -int(tok) if neg else int(tok)

    def parse_coeff(self) -> Fraction:
        num = self.parse_int()
        if self.peek() == "/":
            self.take()
            den = self.parse_int()
            if den == 0:
                raise ParseError("zero denominator in coefficient")
            return Fraction(num, den)
        return Fraction(num)

    def parse_atom(self) -> el.Element:
        name = self.take()
        if name not in _ATOMS:
            raise ParseError(f"unknown symbol {name!r}")
        arity, make = _ATOMS[name]
        self.take("(")
        args = [self.parse_int()]
        for _ in range(arity - 1):
            self.take(",")
            args.append(self.parse_int())
        self.take(")")
        out = make(self.field, *args)
        if out.is_zero() and name not in _DEGENERATE_OK:
            self.warn(f"{name}({','.join(map(str, args))}) normalises to 0")
        return out

    def parse_term(self) -> el.Element:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        coeff = Fraction(sign)
        if self.peek() and self.peek().isdigit():
            coeff *= self.parse_coeff()
            if self.peek() == "*":
                self.take()
            elif self.peek() in _ATOMS:
                raise ParseError("missing '*' between coefficient and symbol")
            else:
                # bare scalar literal: only 0 denotes an element
                if coeff != 0:
                    raise ParseError(
                        "bare scalars other than 0 are not elements")
                return el.zero(self.field)
        atom = self.parse_atom()
        try:
            c = self.field.from_fraction(coeff)
        except ZeroDivisionError:
            raise ParseError(f"coefficient {coeff} is undefined in "
                             f"characteristic {self.field.characteristic}")
        return atom.scale(c)

    def parse_element(self) -> el.Element:
        out = self.parse_term()
        while self.peek() in ("+", "-"):
            out = out + self.parse_term()
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return out


def parse_element(field: Field, text: str, warn=None) -> el.Element:
    """Parse an element literal over the given field."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty element literal")
    return _Parser(field, tokens, warn).parse_element()


# -- JSON forms ---------------------------------------------------------------

# the subscript fields of each kind of JSON key
_JSON_KEYS = {"a": ("i",), "s": ("j",), "p": ("r", "k")}


def key_to_json(key) -> dict:
    return {"kind": key[0], **dict(zip(_JSON_KEYS[key[0]], key[1:]))}


def element_to_json(x: el.Element) -> dict:
    return {
        "characteristic": x.field.characteristic,
        "terms": [{"key": key_to_json(k), "coeff": str(x.terms[k])}
                  for k in x.support()],
    }


def element_from_json(field: Field, data: dict) -> el.Element:
    try:
        if data.get("characteristic") != field.characteristic:
            raise ParseError("characteristic mismatch in serialised element")
        terms = []
        for t in data["terms"]:
            k = t["key"]
            key = (k["kind"],) + tuple(int(k[n]) for n in _JSON_KEYS[k["kind"]])
            terms.append((key, Fraction(t["coeff"])))
        return el.from_terms(field, terms)
    except ParseError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as e:
        raise ParseError(f"malformed serialised element: {e!r}") from None
