"""Expression grammar: round trips, error positions, crash-freedom."""

import random
import re
import string

import pytest

from kregular import (ComplexProj, Euclid, ParseError, Product, QuatProj,
                      RealProj, RegularQuery, Sphere, parse_expression,
                      parse_manifold, render, render_query)


def test_parse_atoms():
    assert parse_expression("S^3") == Sphere(3)
    assert parse_expression("RP^5") == RealProj(5)
    assert parse_expression("CP^2") == ComplexProj(2)
    assert parse_expression("HP^2") == QuatProj(2)
    assert parse_expression("R^1") == Euclid(1)


def test_parse_product():
    spec = parse_expression("S^3 x RP^5")
    assert spec == Product((Sphere(3), RealProj(5)))
    assert parse_expression("S^2 x S^2 x CP^3") == Product(
        (Sphere(2), Sphere(2), ComplexProj(3)))
    # The 'x' may touch the next factor name.
    for text in ("S^2xRP^3", "S^2 xRP^3"):
        spec = parse_manifold(text)
        assert spec == Product((Sphere(2), RealProj(3))), text
        assert render(spec) == "S^2 x RP^3"
        assert parse_manifold(render(spec)) == spec
    with pytest.raises(ParseError) as err:
        parse_expression("S^2xTP^3")
    assert err.value.position == 4


def test_parse_query():
    query = parse_expression("(S^4,2)+(R^2,8)")
    assert query == RegularQuery(((Sphere(4), 2), (Euclid(2), 8)), "real")
    spaced = parse_expression("( S^4 , 2 ) + ( R^2 , 8 )")
    assert spaced == query
    complex_q = parse_expression("(CP^4, 2)", regime="complex")
    assert complex_q.regime == "complex"


ROUND_TRIPS = ("S^3 x RP^5", "HP^2", "R^2")
QUERY_ROUND_TRIPS = ("(S^3, 2) + (R^2, 4)",)


def test_round_trips():
    for text in ROUND_TRIPS:
        spec = parse_manifold(text)
        assert render(spec) == text
        assert parse_manifold(render(spec)) == spec
    for text in QUERY_ROUND_TRIPS:
        query = parse_expression(text)
        assert parse_expression(render_query(query)) == query


# Whitespace by str.isspace, ASCII and not: no-break, em and ideographic.
SPACES = " \t\n\xa0\u2003\u3000"


def _respaced(text, rng, keep=(0, 0)):
    """(text with a whitespace run at every token boundary, offset map).

    A boundary strictly inside the span `keep` gets none.  The map sends
    each offset of `text` to the offset of the same character, or the end.
    """
    bounds = {0, len(text)}
    for match in re.finditer(r"[A-Za-z]+|[0-9]+|\S", text):
        bounds.update(match.span())
    pieces, moved = [], []
    for i in range(len(text) + 1):
        if i in bounds and not keep[0] < i < keep[1]:
            pieces.append("".join(rng.choice(SPACES)
                                  for _ in range(rng.randint(1, 3))))
        moved.append(sum(map(len, pieces)))
        pieces.append(text[i:i + 1])
    return "".join(pieces), moved


def test_any_whitespace_between_tokens_parses_the_same():
    rng = random.Random(25)
    for text in ROUND_TRIPS + QUERY_ROUND_TRIPS + ("S^2xRP^3",):
        for _ in range(20):
            spaced, _ = _respaced(text, rng)
            assert parse_expression(spaced) == parse_expression(text), \
                repr(spaced)


def test_semantic_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expression("RP^1")
    assert err.value.position == 3
    with pytest.raises(ParseError) as err:
        parse_expression("S^3 x RP^1")
    assert err.value.position == 9
    with pytest.raises(ParseError) as err:
        parse_expression("(S^3, 1)")
    assert err.value.position == 6


def test_syntax_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expression("TP^3")
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse_expression("RP^")
    assert err.value.position == 3
    with pytest.raises(ParseError):
        parse_expression("")
    with pytest.raises(ParseError):
        parse_expression("S^3 RP^2")       # missing 'x'
    with pytest.raises(ParseError):
        parse_expression("(S^3, 2")        # unclosed
    with pytest.raises(ParseError):
        parse_expression("S^3 x")


SYNTAX_ERRORS = [
    ("-5x", "expected a name, got '-5x' (at position 0)"),
    ("RP5 x S^2", "expected '^', got '5' (at position 2)"),
    ("RP^", "expected an integer, got end of input (at position 3)"),
    ("(S^3;  2)", "expected ',', got ';' (at position 4)"),
    ("S^3 x  ", "expected a name, got end of input (at position 7)"),
    ("RP^5 y", "expected end of input, got 'y' (at position 5)"),
    ("(S^3, 2) S^2", "expected end of input, got 'S^2' (at position 9)"),
    # Names and integers are ASCII runs: other scripts stop them.
    ("\uff33^2", "expected a name, got '\uff33^2' (at position 0)"),
    ("S^\xb2", "expected an integer, got '\xb2' (at position 2)"),
    ("S^\u0663", "expected an integer, got '\u0663' (at position 2)"),
    # Each symbol a query needs, missing at its own place.
    ("(S^3, 2) + S^2", "expected '(', got 'S^2' (at position 11)"),
    ("(S^3, 2", "expected ')', got end of input (at position 7)"),
    ("(S^3, 2) +", "expected '(', got end of input (at position 10)"),
    ("(S^3 2)", "expected ',', got '2)' (at position 5)"),
    ("S^2 x (R^2, 4)", "expected a name, got '(R^2,' (at position 6)"),
]


@pytest.mark.parametrize("text, message", SYNTAX_ERRORS)
def test_syntax_errors_name_the_text(text, message):
    # The text shown is the run of non-space characters at the position.
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", SYNTAX_ERRORS)
def test_syntax_errors_through_any_whitespace(text, message):
    # Whitespace at every token boundary, except inside the text the error
    # names, moves the position with its token and changes nothing else.
    head, position = re.fullmatch(r"(.*) \(at position (\d+)\)",
                                  message).groups()
    position = int(position)
    got = text[position:].split(None, 1)
    keep = (position, position + len(got[0]) if got else position)
    rng = random.Random(text)
    for _ in range(20):
        spaced, moved = _respaced(text, rng, keep)
        with pytest.raises(ParseError) as err:
            parse_expression(spaced)
        assert str(err.value) == f"{head} (at position {moved[position]})"
        assert err.value.position == moved[position]


_UNKNOWN = "(expected S, RP, CP, HP, or R)"
# Where a token lexer could differ from a character scan: an "x" glued to
# the next name, a name that starts with "x", and a long integer.
TOKEN_EDGES = [
    ("S^2xx^3", f"unknown space 'x' {_UNKNOWN} (at position 4)"),
    ("S^2 x xRP^3", f"unknown space 'xRP' {_UNKNOWN} (at position 6)"),
    ("(S^2, 3xRP)", "expected ')', got 'xRP)' (at position 7)"),
    ("xS^2", f"unknown space 'xS' {_UNKNOWN} (at position 0)"),
    ("S^2xRP^1",
     "RP^m needs an integer dimension >= 2, got 1 (at position 7)"),
    ("(S^2 x RP^3, 2) + (R^2, " + "9" * 5000 + ")",
     "integer too long (5000 digits) (at position 24)"),
]


@pytest.mark.parametrize("text, message", TOKEN_EDGES,
                         ids=[text[:24] for text, _ in TOKEN_EDGES])
def test_token_edge_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert str(err.value) == message


def test_parse_manifold_rejects_queries():
    with pytest.raises(ParseError):
        parse_manifold("(S^3, 2)")


def test_non_string_input():
    with pytest.raises(ParseError):
        parse_expression(None)


@pytest.mark.parametrize("text, message", [
    ("", "empty expression (at position 0)"),
    (5, "expected a string expression (at position 0)"),
])
def test_messages_before_any_token(text, message):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert str(err.value) == message
    assert err.value.position == 0


def test_fuzz_never_crashes():
    rng = random.Random(4242)
    alphabet = string.ascii_letters + string.digits + "^(),+x ^\t"
    for _ in range(3000):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 24)))
        try:
            result = parse_expression(text)
        except ParseError:
            continue
        # Anything accepted must render back to an equal structure.
        if isinstance(result, RegularQuery):
            assert parse_expression(render_query(result)) == result
        else:
            assert parse_manifold(render(result)) == result


def test_fuzz_binary_garbage():
    rng = random.Random(7)
    for _ in range(500):
        text = bytes(rng.randrange(256)
                     for _ in range(rng.randint(1, 12))).decode("latin-1")
        try:
            parse_expression(text)
        except ParseError:
            pass
