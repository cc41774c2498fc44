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

One regular expression splits a text into ``(kind, text)`` tokens.  An
expression evaluates straight to a raw (:class:`ring.Ring`): its sums of
products of signed powers in one loop, and only parentheses recurse.
Elements are computed with the ring's own ``_rfrom_int``, ``_radd``,
``_rneg`` and ``_rmul``, moduli with the same four methods of
:class:`_Polynomials`, and vectors, matrices and codes are built from
the raws.  Tokens carry no position: a refusal finds its 1-based line and
column by scanning the text again up to the token it names.

``Ring.description()``, ``str()`` of an element or a matrix,
:func:`format_vector` and :func:`format_code` round-trip through the
parsers.

:func:`parse_ring` builds each ring text once per process: the same
text returns one shared ring, which is immutable, and the process keeps
at most 32 rings, the least recently used dropped first.  Building a ring
charges no enumeration budget, so a shared ring is the same under any
limit.  A refusal is raised afresh on every call, and a one-shot
``ringcodes`` run pays the full build.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import zip_longest
from typing import NoReturn, Optional, Sequence

from .code import LinearCode, _check_length
from .errors import InvalidParameterError, NotationError, RingMismatchError
from .matrix import Matrix
from .ring import (
    MAX_DIGITS,
    MAX_WIDTH,
    Ring,
    RingElement,
    VARIABLE_NAMES,
    _echo,
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

#: Exponents are below 2^64, so a power costs at most 127 products.
_MAX_EXPONENT_BITS = 64

#: Cap on nested parentheses in an expression, each level one frame of
#: the evaluator, well within Python's recursion limit.
_MAX_NESTING = 100


def _position(text: str, index: int) -> tuple[int, int]:
    """The line and column of token ``index`` of ``text``, or of the end
    of the text for the final "end" token, found by scanning it again."""
    starts = [m.start() for m in _TOKEN.finditer(text) if not m.group(1)]
    start = starts[index] if index < len(starts) else len(text)
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


def _tokenize(text: str) -> list[tuple[str, str]]:
    """The ``(kind, text)`` tokens of ``text``, the last ``("end", "")``;
    a kind is "int", "name" or the symbol itself."""
    tokens = []
    for space, digits, word, symbol, other in _TOKEN.findall(text):
        if symbol:
            tokens.append((symbol, symbol))
        elif digits:
            if len(digits) > MAX_DIGITS:
                message = f"integer literals may have at most {MAX_DIGITS} digits"
                raise NotationError(message, *_position(text, len(tokens)))
            tokens.append(("int", digits))
        elif word[:1].isalpha():
            tokens.append(("name", word))
        elif not space:
            message = f"unexpected character {(word or other)[0]!r}"
            raise NotationError(message, *_position(text, len(tokens)))
    tokens.append(("end", ""))
    return tokens


class _Stream:
    """The tokens of one text and the index of the next."""

    __slots__ = ("text", "tokens", "pos", "depth")

    def __init__(self, text: str):
        # depth: open parentheses of the expression being parsed
        self.text, self.tokens, self.pos, self.depth = text, _tokenize(text), 0, 0

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def refuse(self, message: str, index: Optional[int] = None) -> NoReturn:
        raise NotationError(message, *_position(self.text, self.pos if index is None else index))

    def expect(self, kind: str, what: Optional[str] = None) -> str:
        """The text of the next token, which must be of ``kind``."""
        found, word = self.tokens[self.pos]
        if found != kind:
            shown = word if found != "end" else "end of input"
            self.refuse(f"expected {what or kind!r}, found {_echo(shown)}")
        self.pos += 1
        return word

    def comma_list(self, item) -> list:
        """``item ("," item)*``, each item parsed by calling ``item()``."""
        items = [item()]
        while self.peek() == ",":
            self.pos += 1
            items.append(item())
        return items


class _Polynomials:
    """Polynomials in one fresh variable over a base ring, as trimmed
    tuples of base raws, low degree first: the algebra of a modulus.

    A product or power whose degree would give the extension more than
    ``MAX_WIDTH`` coordinates is refused where it occurs, so no modulus
    expands past what the ring constructor accepts.
    """

    def __init__(self, base: Ring):
        self.base = base
        self._rone = (base._rone,)

    def _trim(self, coeffs: list) -> tuple:
        while len(coeffs) > 1 and coeffs[-1] == self.base._rzero:
            coeffs.pop()
        return tuple(coeffs)

    def _rfrom_int(self, k: int) -> tuple:
        return (self.base._rfrom_int(k),)

    def _radd(self, a, b) -> tuple:
        base = self.base
        return self._trim([base._radd(x, y) for x, y in zip_longest(a, b, fillvalue=base._rzero)])

    def _rneg(self, a) -> tuple:
        return tuple(map(self.base._rneg, a))

    def _rmul(self, a, b) -> tuple:
        # Both factors are within the cap, so the product is small.
        base = self.base
        out = [base._rzero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x != base._rzero:
                for j, y in enumerate(b):
                    out[i + j] = base._radd(out[i + j], base._rmul(x, y))
        product = self._trim(out)
        check_width(base, len(product) - 1)
        return product

    def _rpow(self, a, exponent: int) -> tuple:
        # A unit leading coefficient makes degree * exponent exact: refuse first.
        degree = (len(a) - 1) * exponent
        if self.base.width * degree > MAX_WIDTH and self.base._is_unit_raw(a[-1]):
            check_width(self.base, degree)
        return square_and_multiply(a, exponent, self._rone, self._rmul)


def _expression(stream: _Stream, scope):
    """The raw of the expression at the stream's position, in the scope
    (algebra, variables): sums of products of ``-``* atom (``^`` int)?,
    evaluated in one loop; a parenthesized atom recurses.  A ``-`` between
    terms negates the next term's first factor."""
    algebra, variables = scope
    tokens, pos, total, negations = stream.tokens, stream.pos, None, 0
    while True:
        term = None
        while True:
            kind, word = tokens[pos]
            while kind == "-":
                negations += 1
                pos += 1
                kind, word = tokens[pos]
            if kind == "int":
                value = algebra._rfrom_int(int(word))
            elif kind == "name":
                value = variables.get(word)
                if value is None:
                    stream.refuse(f"unknown variable {_echo(word, 'of')}", pos)
            elif kind == "(":
                if stream.depth == _MAX_NESTING:
                    stream.refuse(f"parentheses may nest at most {_MAX_NESTING} deep", pos)
                stream.pos, stream.depth = pos + 1, stream.depth + 1
                value = _expression(stream, scope)
                stream.expect(")")
                stream.depth -= 1
                pos = stream.pos - 1  # at the ")"
            else:
                stream.refuse("expected a number, variable, or parenthesized expression, "
                              f"found {word!r}", pos)
            pos += 1
            if tokens[pos][0] == "^":
                stream.pos = pos + 1
                exponent = int(stream.expect("int", "a nonnegative integer exponent"))
                if exponent.bit_length() > _MAX_EXPONENT_BITS:
                    stream.refuse(f"exponents must be below 2^{_MAX_EXPONENT_BITS}", pos + 1)
                pos += 2
                value = algebra._rpow(value, exponent)
            if negations % 2:
                value = algebra._rneg(value)
            term = value if term is None else algebra._rmul(term, value)
            negations = 0
            if tokens[pos][0] != "*":
                break
            pos += 1
        total = term if total is None else algebra._radd(total, term)
        kind = tokens[pos][0]
        if kind != "+" and kind != "-":
            stream.pos = pos
            return total
        negations = int(kind == "-")
        pos += 1


# -- rings ---------------------------------------------------------------------


def _parse_ring_tokens(stream: _Stream) -> Ring:
    start = stream.pos
    if stream.expect("name", "'Z'") != "Z":
        stream.refuse("ring descriptions start with 'Z/'", start)
    stream.expect("/")
    n = int(stream.expect("int", "a modulus"))
    try:
        ring: Ring = make_integer_residue_ring(n)
    except InvalidParameterError as exc:
        stream.refuse(str(exc), start)
    while stream.peek() == "[":
        stream.pos += 1
        var = stream.expect("name", "a variable name")
        expected = VARIABLE_NAMES[ring.depth] if ring.depth < len(VARIABLE_NAMES) else None
        if var != expected:
            stream.refuse(f"extension level {ring.depth + 1} must use variable {expected!r}, "
                          f"found {_echo(var)}", stream.pos - 1)
        stream.expect("]")
        stream.expect("/")
        anchor = stream.pos
        stream.expect("(")
        variables = {name: (raw,) for name, raw in ring._variables.items()}
        variables[var] = (ring._rzero, ring._rone)
        try:
            poly = _expression(stream, (_Polynomials(ring), variables))
            stream.expect(")")
            ring = make_quotient_extension(ring, [RingElement(ring, c) for c in poly])
        except (InvalidParameterError, RingMismatchError) as exc:
            stream.refuse(str(exc), anchor)
    return ring


def _parse_all(text: str, rule):
    """``rule(stream)`` over the tokens of ``text``, which it must use up."""
    stream = _Stream(text)
    value = rule(stream)
    stream.expect("end", "end of input")
    return value


def parse_ring(text: str) -> Ring:
    """Parse a ring description such as ``Z/9[x]/(x^2+x+2)``.

    The same ``str`` returns one shared, immutable ring; a process keeps
    at most 32, so a one-shot run pays the full build.  A refusal is not
    kept, and anything but an exact ``str`` is parsed afresh, so a
    non-string fails as the tokenizer makes it fail.
    """
    if type(text) is str:
        return _parse_ring_text(text)
    return _parse_all(text, _parse_ring_tokens)


@lru_cache(maxsize=32)
def _parse_ring_text(text: str) -> Ring:
    return _parse_all(text, _parse_ring_tokens)


# -- elements and vectors --------------------------------------------------------


def parse_element(text: str, ring: Ring) -> RingElement:
    """Parse an element expression in the ring's tower variables."""
    scope = (ring, ring._variables)
    return RingElement(ring, _parse_all(text, lambda stream: _expression(stream, scope)))


def _parse_vector_tokens(stream: _Stream, scope) -> tuple:
    """The raws of a vector ``(e, ...)``."""
    stream.expect("(")
    coords = stream.comma_list(lambda: _expression(stream, scope))
    stream.expect(")")
    return tuple(coords)


def parse_vector(text: str, ring: Ring) -> tuple[RingElement, ...]:
    """Parse ``(1,7)`` into a coordinate tuple."""
    scope = (ring, ring._variables)
    raws = _parse_all(text, lambda stream: _parse_vector_tokens(stream, scope))
    return tuple(RingElement(ring, raw) for raw in raws)


def format_vector(coords: Sequence[RingElement]) -> str:
    return "(" + ",".join(str(c) for c in coords) + ")"


# -- matrices ----------------------------------------------------------------------


def parse_matrix(text: str, ring: Ring) -> Matrix:
    """Parse a matrix literal such as ``[[1,2],[0,0]]``."""
    scope = (ring, ring._variables)

    def bracketed(stream: _Stream, item) -> list:
        stream.expect("[")
        items = stream.comma_list(item)
        stream.expect("]")
        return items

    def rows(stream: _Stream) -> list:
        return bracketed(stream, lambda: bracketed(stream, lambda: _expression(stream, scope)))

    return Matrix._from_raws(ring, _parse_all(text, rows))


# -- codes -------------------------------------------------------------------------


def _code(ring: Ring, length: int, gen_raws: list) -> LinearCode:
    """The code of raw generators, checked as the public constructor checks."""
    code = LinearCode._from_raws(ring, length, gen_raws)
    for g in gen_raws:
        _check_length(g, length)
    return code


def parse_code(text: str) -> LinearCode:
    """Parse a full code description: ``span Z/20 len 1 { (10) }``."""
    stream = _Stream(text)
    if stream.expect("name", "'span'") != "span":
        stream.refuse("code descriptions start with 'span'", stream.pos - 1)
    ring = _parse_ring_tokens(stream)
    if stream.expect("name", "'len'") != "len":
        stream.refuse("expected 'len' after the ring", stream.pos - 1)
    length = int(stream.expect("int", "the code length"))
    generators = _parse_generator_set(stream, (ring, ring._variables))
    stream.expect("end", "end of input")
    return _code(ring, length, generators)


def parse_generators(text: str, ring: Ring, length: Optional[int] = None) -> LinearCode:
    """Parse a bare generator set ``{ (10), (4) }`` against a known ring.

    The length comes from the first generator unless given explicitly.
    """
    scope = (ring, ring._variables)
    generators = _parse_all(text, lambda stream: _parse_generator_set(stream, scope))
    if length is None:
        if not generators:
            raise NotationError("a generator-free code needs an explicit length")
        length = len(generators[0])
    return _code(ring, length, generators)


def _parse_generator_set(stream: _Stream, scope) -> list:
    stream.expect("{")
    generators = [] if stream.peek() == "}" else stream.comma_list(
        lambda: _parse_vector_tokens(stream, scope))
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
