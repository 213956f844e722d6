"""Parser for manifold and query expressions.

Grammar (tokens separated by optional whitespace):

    atom    := ("S" | "RP" | "CP" | "HP" | "R") "^" INT
    product := atom ("x" atom)*
    query   := "(" product "," INT ")" ("+" "(" product "," INT ")")*

The "x" may touch the next factor name: "S^2xRP^3" is "S^2 x RP^3".  Names
and INTs are runs of ASCII letters and digits.  The lexer is one
`re.findall` per text, into runs of letters, runs of digits and single
non-space characters (regex whitespace is exactly str.isspace).  The
parser walks that list.  After an atom, a token that starts with "x" gives
up its "x" as the separator, and the rest is the next name.  Token
positions are looked up again, with `finditer`, only to report an error;
end of input is at len(text).

A bare product parses to a manifold spec, a parenthesized list to a
RegularQuery (regime chosen by the caller, default real).  Errors carry the
character position, and syntax errors name the text found there; semantic
violations (closed families need m >= 2, point counts need k >= 2) are
reported at the offending token.  render() and render_query() produce
strings this parser accepts back.
"""

from __future__ import annotations

import re
from typing import Union

from .bounds import RegularQuery
from .manifolds import (ComplexProj, Euclid, ManifoldSpec, Product, QuatProj,
                        RealProj, Sphere, render)

_FAMILIES = {family.prefix: family
             for family in (Sphere, RealProj, ComplexProj, QuatProj, Euclid)}


class ParseError(ValueError):
    """Syntax or semantic error, with the 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_DIGITS = frozenset("0123456789")
_TOKEN = re.compile(r"[A-Za-z]+|[0-9]+|\S")


class _Tokens:
    """The text's tokens, walked by index `i`; '' past the end."""

    __slots__ = ("text", "items", "i")

    def __init__(self, text: str):
        if not isinstance(text, str):
            raise ParseError("expected a string expression", 0)
        self.text = text
        self.items = _TOKEN.findall(text)
        self.items.append("")
        self.i = 0

    def position(self, index: int) -> int:
        """Character position of token `index`, or len(text) past the end."""
        for at, match in enumerate(_TOKEN.finditer(self.text)):
            if at == index:
                # A name that gave up its leading "x" starts one later.
                return match.end() - len(self.items[index])
        return len(self.text)

    def error(self, expected: str) -> ParseError:
        """Syntax error naming the run of non-space text at the next token."""
        position = self.position(self.i)
        rest = self.text[position:].split(None, 1)
        got = repr(rest[0]) if rest else "end of input"
        return ParseError(f"expected {expected}, got {got}", position)

    def take_symbol(self, symbol: str) -> None:
        if self.items[self.i] != symbol:
            raise self.error(repr(symbol))
        self.i += 1

    def take_separator(self) -> bool:
        """Take a product's "x", which may be the head of the next name."""
        token = self.items[self.i]
        if token[:1] != "x":
            return False
        if token == "x":
            self.i += 1
        else:
            self.items[self.i] = token[1:]
        return True


def _take_int(tokens: _Tokens) -> tuple[int, int]:
    """An integer token's value and index."""
    index = tokens.i
    digits = tokens.items[index]
    if digits[:1] not in _DIGITS:
        raise tokens.error("an integer")
    tokens.i = index + 1
    try:
        return int(digits), index
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(f"integer too long ({len(digits)} digits)",
                         tokens.position(index)) from None


def _parse_atom(tokens: _Tokens) -> ManifoldSpec:
    index = tokens.i
    name = tokens.items[index]
    family = _FAMILIES.get(name)
    if family is None:
        if name[:1] not in _LETTERS:
            raise tokens.error("a name")
        *others, last = _FAMILIES
        raise ParseError(f"unknown space {name!r} (expected "
                         f"{', '.join(others)}, or {last})",
                         tokens.position(index))
    tokens.i = index + 1
    tokens.take_symbol("^")
    m, m_index = _take_int(tokens)
    try:
        return family(m)
    except ValueError as exc:
        raise ParseError(str(exc), tokens.position(m_index)) from None


def _parse_product(tokens: _Tokens) -> ManifoldSpec:
    factors = [_parse_atom(tokens)]
    while tokens.take_separator():
        factors.append(_parse_atom(tokens))
    return factors[0] if len(factors) == 1 else Product(tuple(factors))


def _parse_query(tokens: _Tokens, regime: str) -> RegularQuery:
    pieces = []
    while True:
        tokens.take_symbol("(")
        spec = _parse_product(tokens)
        tokens.take_symbol(",")
        points, points_index = _take_int(tokens)
        if points < 2:
            raise ParseError(f"point count must be >= 2, got {points}",
                             tokens.position(points_index))
        tokens.take_symbol(")")
        pieces.append((spec, points))
        if tokens.items[tokens.i] != "+":
            break
        tokens.i += 1
    return RegularQuery(tuple(pieces), regime)


def parse_expression(text: str,
                     regime: str = "real"
                     ) -> Union[ManifoldSpec, RegularQuery]:
    """Parse a product or a query; the whole string must be consumed."""
    tokens = _Tokens(text)
    first = tokens.items[0]
    if not first:
        raise ParseError("empty expression", len(text))
    if first == "(":
        result: Union[ManifoldSpec, RegularQuery] = _parse_query(tokens,
                                                                 regime)
    else:
        result = _parse_product(tokens)
    if tokens.items[tokens.i]:
        raise tokens.error("end of input")
    return result


def parse_manifold(text: str) -> ManifoldSpec:
    """Parse a bare product; rejects parenthesized queries."""
    result = parse_expression(text)
    if isinstance(result, RegularQuery):
        raise ParseError("expected a manifold, got a query", 0)
    return result


def render_query(query: RegularQuery) -> str:
    """Inverse of the query grammar: '(S^3, 2) + (R^2, 4)'."""
    return " + ".join(f"({render(spec)}, {points})"
                      for spec, points in query.pieces)
