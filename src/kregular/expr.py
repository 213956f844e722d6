"""Parser for manifold and query expressions.

Grammar (tokens separated by optional whitespace):

    atom    := ("S" | "RP" | "CP" | "HP" | "R") "^" INT
    product := atom ("x" atom)*
    query   := "(" product "," INT ")" ("+" "(" product "," INT ")")*

The "x" may touch the next factor name: "S^2xRP^3" is "S^2 x RP^3".  Names
and INTs are runs of ASCII letters and digits.  The lexer's invariant: after
each consumed token its position is past any whitespace (by str.isspace)
and it holds the character there, '' at the end, so nothing skips twice.

A bare product parses to a manifold spec, a parenthesized list to a
RegularQuery (regime chosen by the caller, default real).  Errors carry the
character position, and syntax errors name the text found there; semantic
violations (closed families need m >= 2, point counts need k >= 2) are
reported at the offending token.  render() and render_query() produce
strings this parser accepts back.
"""

from __future__ import annotations

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


class _Tokens:
    """Lexer: runs of letters or digits, and the symbols ^ ( ) , + x."""

    def __init__(self, text: str):
        if not isinstance(text, str):
            raise ParseError("expected a string expression", 0)
        self.text = text
        self._advance(0)

    def _advance(self, pos: int) -> None:
        while pos < len(self.text) and self.text[pos].isspace():
            pos += 1
        self.pos = pos
        self.next = self.text[pos:pos + 1]

    def error(self, expected: str) -> ParseError:
        """Syntax error naming the run of non-space text at the position."""
        rest = self.text[self.pos:].split(None, 1)
        got = repr(rest[0]) if rest else "end of input"
        return ParseError(f"expected {expected}, got {got}", self.pos)

    def take_symbol(self, symbol: str) -> None:
        if self.next != symbol:
            raise self.error(repr(symbol))
        self._advance(self.pos + 1)

    def take_run(self, chars: frozenset, expected: str) -> tuple[str, int]:
        """The longest run of `chars` at the next token, and its position."""
        text = self.text
        start = end = self.pos
        while end < len(text) and text[end] in chars:
            end += 1
        if end == start:
            raise self.error(expected)
        self._advance(end)
        return text[start:end], start


def _take_int(tokens: _Tokens) -> tuple[int, int]:
    digits, start = tokens.take_run(_DIGITS, "an integer")
    try:
        return int(digits), start
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(f"integer too long ({len(digits)} digits)",
                         start) from None


def _parse_atom(tokens: _Tokens) -> ManifoldSpec:
    name, name_pos = tokens.take_run(_LETTERS, "a name")
    family = _FAMILIES.get(name)
    if family is None:
        *others, last = _FAMILIES
        raise ParseError(f"unknown space {name!r} (expected "
                         f"{', '.join(others)}, or {last})", name_pos)
    tokens.take_symbol("^")
    m, m_pos = _take_int(tokens)
    try:
        return family(m)
    except ValueError as exc:
        raise ParseError(str(exc), m_pos) from None


def _parse_product(tokens: _Tokens) -> ManifoldSpec:
    factors = [_parse_atom(tokens)]
    while tokens.next == "x":
        tokens.take_symbol("x")
        factors.append(_parse_atom(tokens))
    return factors[0] if len(factors) == 1 else Product(tuple(factors))


def _parse_query(tokens: _Tokens, regime: str) -> RegularQuery:
    pieces = []
    while True:
        tokens.take_symbol("(")
        spec = _parse_product(tokens)
        tokens.take_symbol(",")
        points, points_pos = _take_int(tokens)
        if points < 2:
            raise ParseError(f"point count must be >= 2, got {points}",
                             points_pos)
        tokens.take_symbol(")")
        pieces.append((spec, points))
        if tokens.next != "+":
            break
        tokens.take_symbol("+")
    return RegularQuery(tuple(pieces), regime)


def parse_expression(text: str,
                     regime: str = "real"
                     ) -> Union[ManifoldSpec, RegularQuery]:
    """Parse a product or a query; the whole string must be consumed."""
    tokens = _Tokens(text)
    if not tokens.next:
        raise ParseError("empty expression", tokens.pos)
    if tokens.next == "(":
        result: Union[ManifoldSpec, RegularQuery] = _parse_query(tokens,
                                                                 regime)
    else:
        result = _parse_product(tokens)
    if tokens.next:
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
