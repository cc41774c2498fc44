"""The notation parsers, pinned input by input.

``data/notation_golden.json`` holds inputs to every public parser, each
with its canonical output or its exact error (type, message, line and
column): the examples of docs/notation.md, every ring, code and matrix
string of seeds 1-3 of the benchmark mixes, towers, subtraction and
nested powers in moduli, and malformed variants (truncations, stray
symbols, wrong variable order, non-monic and over-wide moduli, 4,301-digit
literals).
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcodes import (
    NotationError,
    RingCodesError,
    enumeration_budget,
    format_code,
    format_vector,
    parse_code,
    parse_element,
    parse_generators,
    parse_matrix,
    parse_ring,
    parse_vector,
)

CASES = json.loads((Path(__file__).parent / "data" / "notation_golden.json").read_text())
PARSERS = ("parse_ring", "parse_element", "parse_vector", "parse_matrix",
           "parse_generators", "parse_code")


def _replay(case: dict) -> dict:
    """The case's parse, as the golden records it, inside the case's
    budget, if it has one."""
    parser, text = case["parser"], case["text"]
    try:
        with enumeration_budget(case.get("budget")):
            return _parse(parser, text, case)
    except RingCodesError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NotationError):
            error["line"], error["column"] = exc.line, exc.column
        return {"error": error}


def _parse(parser: str, text: str, case: dict) -> dict:
    if parser == "parse_ring":
        return {"result": parse_ring(text).description()}
    if parser == "parse_code":
        return {"result": format_code(parse_code(text))}
    ring = parse_ring(case["ring"])
    if parser == "parse_element":
        return {"result": str(parse_element(text, ring))}
    if parser == "parse_vector":
        return {"result": format_vector(parse_vector(text, ring))}
    if parser == "parse_matrix":
        return {"result": str(parse_matrix(text, ring))}
    return {"result": format_code(parse_generators(text, ring, case.get("length")))}


@pytest.mark.parametrize("parser", PARSERS)
def test_parser_matches_golden(parser):
    cases = [case for case in CASES if case["parser"] == parser]
    assert cases
    for case in cases:
        inputs = {k: v for k, v in case.items() if k not in ("result", "error")}
        expected = {k: v for k, v in case.items() if k in ("result", "error")}
        assert _replay(case) == expected, inputs


def test_golden_reaches_every_error_kind():
    errors = {case["error"]["type"] for case in CASES if "error" in case}
    assert errors == {"NotationError", "ShapeError", "InvalidParameterError"}
    messages = " ".join(case["error"]["message"] for case in CASES if "error" in case)
    for fragment in ("unexpected character", "unknown variable", "must be monic",
                     "coordinates over Z/2 are unsupported", "at most 4300 digits",
                     "must use variable", "end of input"):
        assert fragment in messages


_RING = "Z/9[x]/(x^2+x+2)[y]/(y^2-3)"
_ALPHABET = "+-*^()[]/{}, \nZxyzspanle0123456789"
#: Starts that lead random text into a modulus, a vector or a code.
_PREFIXES = ("", "Z/9[x]/(", "Z/4[x]/(x^2+x+1)[y]/(", "span Z/4 len 2 { (", "{ (", "[[")


def _parse_all_ways(text: str) -> None:
    ring = parse_ring(_RING)
    for parse in (
        parse_ring,
        lambda t: parse_element(t, ring),
        lambda t: parse_vector(t, ring),
        lambda t: parse_matrix(t, ring),
        lambda t: parse_generators(t, ring),
        parse_code,
    ):
        try:
            parse(text)
        except RingCodesError:
            pass


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(_PREFIXES), st.text(
    st.characters() | st.characters(categories=("Nd", "No")) | st.sampled_from(_ALPHABET)))
def test_parsers_return_or_refuse_on_any_text(prefix, text):
    # Other scripts' digits and the superscripts lie on either side of int().
    _parse_all_ways(prefix + text)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(_PREFIXES), st.text(alphabet=_ALPHABET, max_size=40))
def test_parsers_return_or_refuse_on_notation_text(prefix, text):
    _parse_all_ways(prefix + text)

