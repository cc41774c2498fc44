"""Parsers of rings, elements, vectors, matrices and codes, and the text
and JSON forms of codes.

The grammar (documented in docs/notation.md):

* rings:     ``Z/20``, ``Z/9[x]/(x^2+x+2)``, towers nesting left to right
             with variables x, y, z, ... in that order;
* elements:  integer literals and polynomial expressions in the tower
             variables, e.g. ``7``, ``2*x+1``, ``(2*x+1)*y+x``;
* matrices:  ``[[1,2],[0,0]]``;
* vectors:   ``(1,7)``;
* codes:     ``span Z/20 len 1 { (10), (4) }``.

``Ring.description()``, ``str()`` of an element or a matrix,
:func:`format_vector` and :func:`format_code` round-trip through the
parsers; parse errors carry a 1-based line and column.
"""

from __future__ import annotations

import re
from itertools import zip_longest
from typing import Optional, Sequence

from .code import LinearCode
from .errors import InvalidParameterError, NotationError, RingMismatchError
from .matrix import Matrix
from .ring import (
    MAX_DIGITS,
    MAX_WIDTH,
    IntegerResidueRing,
    QuotientExtensionRing,
    Ring,
    RingElement,
    VARIABLE_NAMES,
    check_width,
    make_integer_residue_ring,
    make_quotient_extension,
    square_and_multiply,
)

#: One token per match, by group: whitespace runs, integer literals
#: (``\d`` is exactly ``str.isdecimal``, the digits ``int()`` accepts),
#: word runs (``\w`` is ``str.isalnum`` or ``_``; a name must also start
#: with a letter, ``str.isalpha``, which ``_``, ``²`` or ``½`` are not),
#: symbols, and any other character, which is refused.
_TOKEN = re.compile(r"(\s+)|(\d+)|(\w+)|([-+*^()\[\]/{},])|(.)", re.DOTALL)
_SPACE, _INT, _NAME, _SYMBOL = 1, 2, 3, 4

#: Exponents are below 2^64, so a power costs at most 127 products.
_MAX_EXPONENT_BITS = 64

#: Cap on nested parentheses in an expression, each level four frames of
#: the recursive descent, well within Python's recursion limit.
_MAX_NESTING = 100


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0  # line_start: index of the line's first character
    for match in _TOKEN.finditer(text):
        kind, word, start = match.lastindex, match.group(), match.start()
        if kind == _SPACE:
            if "\n" in word:
                line += word.count("\n")
                line_start = start + word.rindex("\n") + 1
            continue
        column = start - line_start + 1
        if kind == _INT:
            if len(word) > MAX_DIGITS:
                raise NotationError(
                    f"integer literals may have at most {MAX_DIGITS} digits", line, column
                )
            tokens.append(_Token("int", word, line, column))
        elif kind == _SYMBOL:
            tokens.append(_Token(word, word, line, column))
        elif kind == _NAME and word[0].isalpha():
            tokens.append(_Token("name", word, line, column))
        else:
            raise NotationError(f"unexpected character {word[0]!r}", line, column)
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
    return tokens


class _Stream:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses of the expression being parsed

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text if tok.kind != "end" else "end of input"
            raise NotationError(
                f"expected {what or kind!r}, found {shown!r}", tok.line, tok.column
            )
        return self.next()

    def error(self, message: str):
        tok = self.peek()
        raise NotationError(message, tok.line, tok.column)

    def comma_list(self, item) -> list:
        """``item ("," item)*``, each item parsed by calling ``item()``."""
        items = [item()]
        while self.peek().kind == ",":
            self.next()
            items.append(item())
        return items


class _Poly:
    """Polynomial in one fresh variable with coefficients in a base ring.

    Only used while parsing extension moduli.  A product or power whose
    degree would give the extension more than ``MAX_WIDTH`` coordinates is
    refused where it occurs, so no modulus expands past what the ring
    constructor accepts.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs):
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.ring = ring
        self.coeffs = list(coeffs)

    def __add__(self, other: "_Poly") -> "_Poly":
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=self.ring.zero)
        return _Poly(self.ring, [x + y for x, y in pairs])

    def __neg__(self) -> "_Poly":
        return _Poly(self.ring, [-c for c in self.coeffs])

    def __mul__(self, other: "_Poly") -> "_Poly":
        # Both factors are within the cap, so the product is small.
        zero = self.ring.zero
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        product = _Poly(self.ring, out)
        check_width(self.ring, len(product.coeffs) - 1)
        return product

    def __pow__(self, exponent: int) -> "_Poly":
        # A unit leading coefficient makes degree * exponent exact: refuse
        # before expanding.
        degree = (len(self.coeffs) - 1) * exponent
        if self.ring.width * degree > MAX_WIDTH and self.coeffs[-1].is_unit():
            check_width(self.ring, degree)
        return square_and_multiply(self, exponent, _Poly(self.ring, [self.ring.one]))


def _variable_environment(ring: Ring) -> dict:
    """Tower variables mapped to their images inside ``ring``."""
    if isinstance(ring, IntegerResidueRing):
        return {}
    assert isinstance(ring, QuotientExtensionRing)
    env = {
        name: ring.element(value)
        for name, value in _variable_environment(ring.base).items()
    }
    env[ring.variable] = ring.generator()
    return env


def _element_scope(ring: Ring) -> tuple:
    """(integer literal constructor, variable environment) for expressions
    evaluated as elements of ``ring``."""
    return ring.from_int, _variable_environment(ring)


def _modulus_scope(base: Ring, variable: str) -> tuple:
    """The scope of a modulus: polynomials in ``variable`` over ``base``."""
    env = {name: _Poly(base, [value]) for name, value in _variable_environment(base).items()}
    env[variable] = _Poly(base, [base.zero, base.one])
    return (lambda k: _Poly(base, [base.from_int(k)])), env


def _parse_expression(stream: _Stream, scope):
    value = _parse_term(stream, scope)
    while stream.peek().kind in ("+", "-"):
        op = stream.next().kind
        rhs = _parse_term(stream, scope)
        value = value + (rhs if op == "+" else -rhs)
    return value


def _parse_term(stream: _Stream, scope):
    value = _parse_factor(stream, scope)
    while stream.peek().kind == "*":
        stream.next()
        value = value * _parse_factor(stream, scope)
    return value


def _parse_factor(stream: _Stream, scope):
    negations = 0
    while stream.peek().kind == "-":
        stream.next()
        negations += 1
    value = _parse_atom(stream, scope)
    if stream.peek().kind == "^":
        stream.next()
        tok = stream.expect("int", "a nonnegative integer exponent")
        exponent = int(tok.text)
        if exponent.bit_length() > _MAX_EXPONENT_BITS:
            raise NotationError(
                f"exponents must be below 2^{_MAX_EXPONENT_BITS}", tok.line, tok.column
            )
        value = value**exponent
    return -value if negations % 2 else value


def _parse_atom(stream: _Stream, scope):
    literal, env = scope
    tok = stream.peek()
    if tok.kind == "int":
        stream.next()
        return literal(int(tok.text))
    if tok.kind == "name":
        value = env.get(tok.text)
        if value is None:
            raise NotationError(f"unknown variable {tok.text!r}", tok.line, tok.column)
        stream.next()
        return value
    if tok.kind == "(":
        if stream.depth == _MAX_NESTING:
            raise NotationError(
                f"parentheses may nest at most {_MAX_NESTING} deep", tok.line, tok.column
            )
        stream.next()
        stream.depth += 1
        value = _parse_expression(stream, scope)
        stream.expect(")")
        stream.depth -= 1
        return value
    stream.error(f"expected a number, variable, or parenthesized expression, found {tok.text!r}")


# -- rings ---------------------------------------------------------------------


def _parse_ring_tokens(stream: _Stream) -> Ring:
    tok = stream.expect("name", "'Z'")
    if tok.text != "Z":
        raise NotationError("ring descriptions start with 'Z/'", tok.line, tok.column)
    stream.expect("/")
    n = int(stream.expect("int", "a modulus").text)
    try:
        ring: Ring = make_integer_residue_ring(n)
    except Exception as exc:
        raise NotationError(str(exc), tok.line, tok.column) from exc
    while stream.peek().kind == "[":
        stream.next()
        var = stream.expect("name", "a variable name")
        expected = (
            VARIABLE_NAMES[ring.depth] if ring.depth < len(VARIABLE_NAMES) else None
        )
        if var.text != expected:
            raise NotationError(
                f"extension level {ring.depth + 1} must use variable "
                f"{expected!r}, found {var.text!r}",
                var.line,
                var.column,
            )
        stream.expect("]")
        stream.expect("/")
        anchor = stream.expect("(")
        try:
            poly = _parse_expression(stream, _modulus_scope(ring, var.text))
            stream.expect(")")
            ring = make_quotient_extension(ring, poly.coeffs)
        except (InvalidParameterError, RingMismatchError) as exc:
            raise NotationError(str(exc), anchor.line, anchor.column) from exc
    return ring


def _parse_all(text: str, rule):
    """``rule(stream)`` over the tokens of ``text``, which it must use up."""
    stream = _Stream(_tokenize(text))
    value = rule(stream)
    stream.expect("end", "end of input")
    return value


def parse_ring(text: str) -> Ring:
    """Parse a ring description such as ``Z/9[x]/(x^2+x+2)``."""
    return _parse_all(text, _parse_ring_tokens)


# -- elements and vectors --------------------------------------------------------


def parse_element(text: str, ring: Ring) -> RingElement:
    """Parse an element expression in the ring's tower variables."""
    scope = _element_scope(ring)
    return _parse_all(text, lambda stream: _parse_expression(stream, scope))


def _parse_vector_tokens(stream: _Stream, scope) -> tuple[RingElement, ...]:
    stream.expect("(")
    coords = stream.comma_list(lambda: _parse_expression(stream, scope))
    stream.expect(")")
    return tuple(coords)


def parse_vector(text: str, ring: Ring) -> tuple[RingElement, ...]:
    """Parse ``(1,7)`` into a coordinate tuple."""
    scope = _element_scope(ring)
    return _parse_all(text, lambda stream: _parse_vector_tokens(stream, scope))


def format_vector(coords: Sequence[RingElement]) -> str:
    return "(" + ",".join(str(c) for c in coords) + ")"


# -- matrices ----------------------------------------------------------------------


def parse_matrix(text: str, ring: Ring) -> Matrix:
    """Parse a matrix literal such as ``[[1,2],[0,0]]``."""
    scope = _element_scope(ring)

    def bracketed(stream: _Stream, item) -> list:
        stream.expect("[")
        items = stream.comma_list(item)
        stream.expect("]")
        return items

    def rows(stream: _Stream) -> list:
        return bracketed(
            stream, lambda: bracketed(stream, lambda: _parse_expression(stream, scope)))

    return Matrix(ring, _parse_all(text, rows))


# -- codes -------------------------------------------------------------------------


def parse_code(text: str, budget: Optional[int] = None) -> LinearCode:
    """Parse a full code description: ``span Z/20 len 1 { (10) }``;
    ``budget`` is the code's budget (default 10^7)."""
    stream = _Stream(_tokenize(text))
    tok = stream.expect("name", "'span'")
    if tok.text != "span":
        raise NotationError("code descriptions start with 'span'", tok.line, tok.column)
    ring = _parse_ring_tokens(stream)
    tok = stream.expect("name", "'len'")
    if tok.text != "len":
        raise NotationError("expected 'len' after the ring", tok.line, tok.column)
    length = int(stream.expect("int", "the code length").text)
    generators = _parse_generator_set(stream, _element_scope(ring))
    stream.expect("end", "end of input")
    return LinearCode(ring, length, generators, budget)


def parse_generators(
    text: str, ring: Ring, length: Optional[int] = None, budget: Optional[int] = None
) -> LinearCode:
    """Parse a bare generator set ``{ (10), (4) }`` against a known ring.

    The length comes from the first generator unless given explicitly;
    ``budget`` is the code's budget, as in :func:`parse_code`.
    """
    scope = _element_scope(ring)
    generators = _parse_all(text, lambda stream: _parse_generator_set(stream, scope))
    if length is None:
        if not generators:
            raise NotationError("a generator-free code needs an explicit length")
        length = len(generators[0])
    return LinearCode(ring, length, generators, budget)


def _parse_generator_set(stream: _Stream, scope) -> list:
    stream.expect("{")
    generators = [] if stream.peek().kind == "}" else stream.comma_list(
        lambda: list(_parse_vector_tokens(stream, scope)))
    stream.expect("}")
    return generators


def format_code(code: LinearCode) -> str:
    gens = ", ".join(format_vector(g) for g in code.generators)
    return f"span {code.ring.description()} len {code.length} {{ {gens} }}".replace(
        "{  }", "{ }"
    )


#: Codes of at most this many words are described by their sorted words.
WORD_LIMIT = 64


def describe_code(code: LinearCode) -> str:
    """Sorted codeword list when small, generator list plus cardinality
    otherwise."""
    if code.cardinality <= WORD_LIMIT:
        words = ", ".join(format_vector(w) for w in code.sorted_codewords())
        return f"{{ {words} }}"
    ring = code.ring
    gens = ", ".join(
        format_vector([RingElement(ring, c) for c in g]) for g in code._gen_raws[:8]
    )
    suffix = ", ..." if len(code._gen_raws) > 8 else ""
    return (
        f"span {{ {gens}{suffix} }} with {code.cardinality} codewords "
        f"of length {code.length}"
    )


def code_to_json_dict(code: LinearCode) -> dict:
    """The JSON form of a code, as ``dual --format json`` prints it."""
    return {
        "ring": code.ring.description(),
        "length": code.length,
        "generators": [[str(c) for c in g] for g in code.generators],
    }
