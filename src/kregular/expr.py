"""Parser for manifold and query expressions.

Grammar (tokens separated by optional whitespace):

    atom    := ("S" | "RP" | "CP" | "HP" | "R") "^" INT
    product := atom ("x" atom)*
    query   := "(" product "," INT ")" ("+" "(" product "," INT ")")*

The "x" may touch the next factor name: "S^2xRP^3" is "S^2 x RP^3".  Names
and INTs are runs of ASCII letters and digits.  The lexer is one
`re.findall` per text, into runs of letters, runs of digits and single
non-space characters (regex whitespace is exactly str.isspace), with ""
appended as the end of input.  The parser is a walk of plain functions over
that list: each takes the text, the list and a token index, and returns
what it parsed with the index after it.  After an atom, a token that
starts with "x" gives up its "x" as the separator, and the rest is the
next name.  Token positions are looked up again, with `finditer`, only to
report an error (`_position`, `_error`); end of input is at len(text).

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


def _position(text: str, items: list, index: int) -> int:
    """Character position of token `index`, or len(text) past the end."""
    for at, match in enumerate(_TOKEN.finditer(text)):
        if at == index:
            # A name that gave up its leading "x" starts one later.
            return match.end() - len(items[index])
    return len(text)


def _error(text: str, items: list, index: int, expected: str) -> ParseError:
    """Syntax error naming the run of non-space text at token `index`."""
    position = _position(text, items, index)
    rest = text[position:].split(None, 1)
    got = repr(rest[0]) if rest else "end of input"
    return ParseError(f"expected {expected}, got {got}", position)


def _int(text: str, items: list, index: int) -> int:
    """The value of the integer token at `index`."""
    digits = items[index]
    if digits[:1] not in _DIGITS:
        raise _error(text, items, index, "an integer")
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(f"integer too long ({len(digits)} digits)",
                         _position(text, items, index)) from None


def _parse_product(text: str, items: list, i: int) -> tuple:
    """(spec, index after it) for the product that starts at token `i`."""
    factors = []
    while True:
        name = items[i]
        family = _FAMILIES.get(name)
        if family is None:
            if name[:1] not in _LETTERS:
                raise _error(text, items, i, "a name")
            *others, last = _FAMILIES
            raise ParseError(f"unknown space {name!r} (expected "
                             f"{', '.join(others)}, or {last})",
                             _position(text, items, i))
        if items[i + 1] != "^":
            raise _error(text, items, i + 1, "'^'")
        m = _int(text, items, i + 2)
        try:
            factors.append(family(m))
        except ValueError as exc:
            raise ParseError(str(exc), _position(text, items, i + 2)) from None
        i += 3
        # The "x" between factors may be the head of the next name.
        token = items[i]
        if token[:1] != "x":
            break
        if token == "x":
            i += 1
        else:
            items[i] = token[1:]
    return factors[0] if len(factors) == 1 else Product(tuple(factors)), i


def _parse_query(text: str, items: list, i: int, regime: str) -> tuple:
    """(query, index after it) for the pieces that start at token `i`."""
    pieces = []
    while True:
        if items[i] != "(":
            raise _error(text, items, i, "'('")
        spec, i = _parse_product(text, items, i + 1)
        if items[i] != ",":
            raise _error(text, items, i, "','")
        points = _int(text, items, i + 1)
        if points < 2:
            raise ParseError(f"point count must be >= 2, got {points}",
                             _position(text, items, i + 1))
        if items[i + 2] != ")":
            raise _error(text, items, i + 2, "')'")
        pieces.append((spec, points))
        i += 3
        if items[i] != "+":
            return RegularQuery(tuple(pieces), regime), i
        i += 1


def parse_expression(text: str,
                     regime: str = "real"
                     ) -> Union[ManifoldSpec, RegularQuery]:
    """Parse a product or a query; the whole string must be consumed."""
    if not isinstance(text, str):
        raise ParseError("expected a string expression", 0)
    items = _TOKEN.findall(text)
    if not items:
        raise ParseError("empty expression", len(text))
    items.append("")
    if items[0] == "(":
        result, i = _parse_query(text, items, 0, regime)
    else:
        result, i = _parse_product(text, items, 0)
    if items[i]:
        raise _error(text, items, i, "end of input")
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
