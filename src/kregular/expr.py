"""Parser for manifold and query expressions.

Grammar (tokens separated by optional whitespace):

    atom    := ("S" | "RP" | "CP" | "HP" | "R") "^" INT
    product := atom ("x" atom)*
    query   := "(" product "," INT ")" ("+" "(" product "," INT ")")*

The "x" may touch the next factor name: "S^2xRP^3" is "S^2 x RP^3".

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


def _is_letter(ch: str) -> bool:
    # ASCII only: str.isalpha/isdigit accept characters int() rejects.
    return "a" <= ch <= "z" or "A" <= ch <= "Z"


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


class _Tokens:
    """Lexer: NAME, INT, and the one-character symbols ^ ( ) , + x."""

    def __init__(self, text: str):
        if not isinstance(text, str):
            raise ParseError("expected a string expression", 0)
        self.text = text
        self.pos = 0

    def skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def at_end(self) -> bool:
        return self.peek() == ""

    def error(self, expected: str) -> ParseError:
        """Syntax error at the next token, naming the text found there.

        The text is the run of non-space characters from the position.
        """
        self.skip_space()
        rest = self.text[self.pos:].split(None, 1)
        got = repr(rest[0]) if rest else "end of input"
        return ParseError(f"expected {expected}, got {got}", self.pos)

    def take_symbol(self, symbol: str) -> None:
        if self.peek() != symbol:
            raise self.error(repr(symbol))
        self.pos += 1

    def take_name(self) -> tuple[str, int]:
        ch = self.peek()
        if not _is_letter(ch):
            raise self.error("a name")
        start = self.pos
        while self.pos < len(self.text) and _is_letter(self.text[self.pos]):
            self.pos += 1
        return self.text[start:self.pos], start

    def take_int(self) -> tuple[int, int]:
        ch = self.peek()
        if not _is_digit(ch):
            raise self.error("an integer")
        start = self.pos
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        return int(self.text[start:self.pos]), start


def _parse_atom(tokens: _Tokens) -> ManifoldSpec:
    name, name_pos = tokens.take_name()
    family = _FAMILIES.get(name)
    if family is None:
        raise ParseError(f"unknown space {name!r} (expected S, RP, CP, HP, "
                         "or R)", name_pos)
    tokens.take_symbol("^")
    m, m_pos = tokens.take_int()
    try:
        return family(m)
    except ValueError as exc:
        raise ParseError(str(exc), m_pos) from None


def _parse_product(tokens: _Tokens) -> ManifoldSpec:
    factors = [_parse_atom(tokens)]
    while tokens.peek() == "x":
        tokens.take_symbol("x")
        factors.append(_parse_atom(tokens))
    return factors[0] if len(factors) == 1 else Product(tuple(factors))


def _parse_query(tokens: _Tokens, regime: str) -> RegularQuery:
    pieces = []
    while True:
        tokens.take_symbol("(")
        spec = _parse_product(tokens)
        tokens.take_symbol(",")
        points, points_pos = tokens.take_int()
        if points < 2:
            raise ParseError(f"point count must be >= 2, got {points}",
                             points_pos)
        tokens.take_symbol(")")
        pieces.append((spec, points))
        if tokens.peek() != "+":
            break
        tokens.take_symbol("+")
    return RegularQuery(tuple(pieces), regime)


def parse_expression(text: str,
                     regime: str = "real"
                     ) -> Union[ManifoldSpec, RegularQuery]:
    """Parse a product or a query; the whole string must be consumed."""
    tokens = _Tokens(text)
    if tokens.at_end():
        raise ParseError("empty expression", tokens.pos)
    if tokens.peek() == "(":
        result: Union[ManifoldSpec, RegularQuery] = _parse_query(tokens,
                                                                 regime)
    else:
        result = _parse_product(tokens)
    if not tokens.at_end():
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
