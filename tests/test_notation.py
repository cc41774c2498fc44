"""Round-trips and error reporting for the textual descriptions and the
code JSON form."""

import random
import time

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import char_tokenize, oracle_parse_element, oracle_parse_ring
from ringcodes import (
    Matrix,
    NotationError,
    RingCodesError,
    code_to_json_dict,
    describe_code,
    format_code,
    format_vector,
    parse_code,
    parse_element,
    parse_generators,
    parse_matrix,
    parse_ring,
    parse_vector,
    span,
)
from ringcodes.notation import _position, _tokenize


@pytest.mark.parametrize(
    "text",
    [
        "Z/2",
        "Z/20",
        "Z/9[x]/(x^2+x+2)",
        "Z/9[x]/(x^2+x+2)[y]/(y^2+6)",
        "Z/3[x]/(x^2+x+2)[y]/(y^2)",
    ],
)
def test_ring_descriptions_round_trip(text):
    ring = parse_ring(text)
    assert parse_ring(ring.description()) == ring


def test_ring_minus_sign_accepted():
    assert parse_ring("Z/9[x]/(x^2-3)") == parse_ring("Z/9[x]/(x^2+6)")


def test_ring_variable_order_enforced():
    with pytest.raises(NotationError):
        parse_ring("Z/9[y]/(y^2+1)")
    with pytest.raises(NotationError):
        parse_ring("Z/9[x]/(x^2+1)[x]/(x^2+1)")


def test_ring_parse_errors_carry_position():
    with pytest.raises(NotationError) as err:
        parse_ring("Z/")
    assert err.value.line == 1
    assert err.value.column == 3
    with pytest.raises(NotationError):
        parse_ring("Q/5")
    with pytest.raises(NotationError):
        parse_ring("Z/9[x]/(2*x+1)")  # non-monic modulus


@pytest.mark.parametrize("ring_name", ["z13", "z25", "gr92", "f9_tower"])
def test_element_round_trip_random(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    rng = random.Random(2024)
    elems = list(ring.elements())
    for e in rng.sample(elems, min(25, len(elems))):
        assert parse_element(str(e), ring) == e


def test_element_expressions(gr92):
    x = gr92.generator()
    assert parse_element("x^2+x+2", gr92).is_zero()  # the modulus itself
    assert parse_element("2*x+1", gr92) == gr92.from_int(2) * x + gr92.one
    assert parse_element("-1", gr92) == -gr92.one
    with pytest.raises(NotationError):
        parse_element("q+1", gr92)
    with pytest.raises(NotationError):
        parse_element("1+", gr92)


def test_exponents_by_square_and_multiply(z25):
    # Large exponents are timed by test_cli_large_parameters_finish.
    assert parse_element("7^12345", z25) == z25.from_int(pow(7, 12345, 25))
    ring = parse_ring("Z/2[x]/(x^2+x+1)")
    x = ring.generator()
    assert parse_element("x^100001", ring) == x * x  # x^3 = 1
    assert parse_element("x^0", ring) == ring.one
    assert parse_element("(x+1)^6", ring) == parse_element(
        "(x+1)*(x+1)*(x+1)*(x+1)*(x+1)*(x+1)", ring
    )
    assert parse_ring("Z/2[x]/(x^5+x^2+1)") == parse_ring("Z/2[x]/(x*x*x*x*x+x*x+1)")


def test_tower_element_uses_both_variables(f9_tower):
    e = parse_element("(x+1)*y+2*x", f9_tower)
    assert parse_element(str(e), f9_tower) == e
    base = f9_tower.base
    assert parse_element("x", f9_tower) == f9_tower.element(base.generator())


def test_matrix_round_trip(z20, gr92):
    m = parse_matrix("[[1,2],[0,0]]", z20)
    assert m == Matrix(z20, [[1, 2], [0, 0]])
    assert parse_matrix(str(m), z20) == m
    gm = Matrix(gr92, [[gr92.generator(), gr92.one], [gr92.zero, gr92.from_int(5)]])
    assert parse_matrix(str(gm), gr92) == gm


def test_matrix_parse_errors(z20):
    with pytest.raises(NotationError):
        parse_matrix("[[1,2],[3]]  x", z20)
    with pytest.raises(NotationError):
        parse_matrix("[[1,2", z20)


def test_vector_round_trip(z25):
    v = parse_vector("(1,7)", z25)
    assert [e.raw for e in v] == [1, 7]
    assert format_vector(v) == "(1,7)"
    single = parse_vector("(10)", z25)
    assert len(single) == 1


def test_code_description_round_trip(z20):
    code = parse_code("span Z/20 len 1 { (10) }")
    assert code.ring == z20
    assert sorted(w[0].raw for w in code.codewords()) == [0, 10]
    assert format_code(code) == "span Z/20 len 1 { (10) }"
    assert parse_code(format_code(code)) == code
    empty = parse_code("span Z/20 len 3 { }")
    assert empty.cardinality == 1
    assert parse_code(format_code(empty)) == empty


def test_generator_form(z20):
    code = parse_generators("{ (10), (4) }", z20)
    assert code.length == 1
    assert code.cardinality == 10
    with pytest.raises(NotationError):
        parse_generators("{ }", z20)  # needs an explicit length
    assert parse_generators("{ }", z20, length=2).cardinality == 1


def test_describe_code_small_and_large(z20):
    small = span(z20, 1, [[10]])
    assert describe_code(small) == "{ (0), (10) }"
    big = span(z20, 2, [[1, 0], [0, 1]])
    text = describe_code(big)
    assert "400 codewords" in text


def test_code_json_round_trip(z25):
    code = span(z25, 2, [[1, 7]])
    data = code_to_json_dict(code)
    assert data == {"ring": "Z/25", "length": 2, "generators": [["1", "7"]]}
    gens = ", ".join("(" + ",".join(g) + ")" for g in data["generators"])
    assert parse_generators(f"{{ {gens} }}", parse_ring(data["ring"]), data["length"]) == code


def test_modulus_degree_is_capped_where_it_grows():
    # A unit leading coefficient fixes the degree of a power before it is
    # expanded; other powers and products are refused on their trimmed degree.
    with pytest.raises(NotationError, match="over Z/3 are unsupported, got 100000 "):
        parse_ring("Z/3[x]/((x+1)^100000)")
    with pytest.raises(NotationError, match="over Z/6 are unsupported, got 66 "):
        parse_ring("Z/6[x]/((3*x+1)^64*x^2)")
    # Over the base Z/9[x]/(x^2+x+2), of width 2, degree 33 is 66 coordinates.
    with pytest.raises(NotationError, match=r"got 66 \(line 1, column 21\)"):
        parse_ring("Z/9[x]/(x^2+x+2)[y]/(y^3*y^30)")
    # A power above the cap is refused even where a later term cancels it.
    with pytest.raises(NotationError, match=r"got 65 \(line 1, column 8\)"):
        parse_ring("Z/2[x]/(x^65-x^65+x+1)")
    # Powers that shrink are evaluated, however large the exponent.
    assert parse_ring("Z/4[x]/(x^2+(2*x+1)^1000000000)") == parse_ring("Z/4[x]/(x^2+1)")
    assert parse_ring("Z/9[x]/(x^2+(3*x+1)^1000000000)").description() == "Z/9[x]/(x^2+3*x+1)"


def test_parentheses_nest_at_most_100_deep(gr92):
    assert parse_element("(" * 100 + "x" + ")" * 100, gr92) == gr92.generator()
    with pytest.raises(NotationError, match=r"at most 100 deep \(line 1, column 101\)"):
        parse_element("(" * 101 + "x" + ")" * 101, gr92)
    # A modulus counts its own parentheses, starting after its "(".
    assert parse_ring("Z/9[x]/(" + "(" * 100 + "x^2+x+2" + ")" * 100 + ")") == gr92
    with pytest.raises(NotationError, match=r"at most 100 deep \(line 1, column 109\)"):
        parse_ring("Z/9[x]/(" + "(" * 101 + "x^2+x+2" + ")" * 101 + ")")


def test_unary_minus_signs_are_counted_not_nested(gr92):
    x = gr92.generator()
    assert parse_element("-" * 1200 + "x", gr92) == x
    assert parse_element("-" * 1201 + "x^2", gr92) == -(x * x)
    assert parse_ring("Z/9[x]/(" + "-" * 1000 + "x^2+x+2)") == gr92


def test_exponents_are_below_2_to_the_64(gr92):
    x = gr92.generator()
    assert parse_element(f"x^{2**64 - 1}", gr92) == x ** (2**64 - 1)
    with pytest.raises(NotationError, match=r"below 2\^64 \(line 1, column 3\)"):
        parse_element(f"x^{2**64}", gr92)
    with pytest.raises(NotationError, match=r"below 2\^64 \(line 1, column 17\)"):
        parse_ring(f"Z/9[x]/(x^2+(x)^{2**64})")


# -- the tokenizer against the character-loop oracle ------------------------------

#: Grammar characters, line breaks, tabs, numerals that are not decimal
#: (superscript two, one half), an Arabic-Indic zero (decimal), a letter
#: outside ASCII, separators that ``str.isspace`` accepts but are not line
#: breaks, and stray symbols.
_TOKEN_ALPHABET = list("Zspanlenxyz019_+-*^()[]/{},. \n\t") + [
    "²", "½", "٠", "é", "\x1c", "\x85", "$", "!", "#",
]


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except NotationError as exc:
        return ("error", str(exc), exc.line, exc.column)


def _library_tokens(text):
    return [(kind, word, *_position(text, i)) for i, (kind, word) in enumerate(_tokenize(text))]


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=st.sampled_from(_TOKEN_ALPHABET), max_size=40))
def test_tokenizer_matches_the_character_loop(text):
    assert _tokens_or_error(_library_tokens, text) == _tokens_or_error(char_tokenize, text)


@pytest.mark.parametrize(
    "text, column",
    [("²t_", 1), ("½", 1), ("x ²", 3), ("12½", 3), ("_x", 1), ("x\n\t ½", 3)],
)
def test_numerals_that_are_not_decimal_are_refused(text, column):
    with pytest.raises(NotationError, match="unexpected character") as err:
        _tokenize(text)
    assert err.value.column == column
    assert _tokens_or_error(_library_tokens, text) == _tokens_or_error(char_tokenize, text)


def test_tokenizer_positions_match_on_long_literals():
    for text in ("1" * 4300, "1" * 4301, "x+\n" + "2" * 4301, "٠" * 3 + " \x85y"):
        assert _tokens_or_error(_library_tokens, text) == _tokens_or_error(char_tokenize, text)


# -- the raw evaluator against the element-operator oracle -------------------------

#: Every ring family: Z/n, Galois rings, a ramified tower, a non-chain
#: tower, a ring with zero divisors, degree 1 and degree 3.
EVALUATOR_FAMILIES = (
    "Z/4",
    "Z/12",
    "Z/25",
    "Z/4[x]/(x^2+x+1)",
    "Z/9[x]/(x^2+x+2)",
    "Z/3[x]/(x^2+x+2)[y]/(y^2-3)",
    "Z/2[x]/(x^2)[y]/(y^2)",
    "Z/6[x]/(x^2+1)",
    "Z/12[x]/(x+5)",
    "Z/4[x]/(x^3+x+1)",
)

_SPACES = st.sampled_from(["", "", " ", "\n", " \n  "])
_EXPONENTS = st.sampled_from(["0", "1", "2", "3", "5", "12345", str(2**64 - 1), str(2**64), "x"])


def _expressions(names):
    """Expression texts over ints, ``names``, ``+ - * ^``, unary minus and
    parentheses, with spaces and line breaks between tokens."""
    atoms = st.integers(0, 40).map(str) | st.sampled_from(names)

    def extend(inner):
        return (
            st.tuples(inner, _SPACES, st.sampled_from("+-*"), _SPACES, inner).map("".join)
            | st.tuples(st.sampled_from(["-", "--", "- -"]), inner).map("".join)
            | st.tuples(inner, _SPACES).map(lambda t: f"({t[0]}{t[1]})")
            | st.tuples(inner, _EXPONENTS).map(lambda t: f"{t[0]}^{t[1]}")
        )

    return st.recursive(atoms, extend, max_leaves=10)


def _token_soup(names):
    """Token sequences with no grammar: most are refused."""
    pieces = ["1", "7", "40", "+", "-", "*", "^", "(", ")", " ", "\n", str(2**64)] + names
    return st.lists(st.sampled_from(pieces), max_size=14).map("".join)


def _outcome(parse, text):
    """A parse's raw, or its refusal as (type, message, line, column)."""
    try:
        value = parse(text)
    except RingCodesError as exc:
        event("refused")
        return type(exc).__name__, str(exc), getattr(exc, "line", 0), getattr(exc, "column", 0)
    event("parsed")
    return value


@pytest.mark.parametrize("family", EVALUATOR_FAMILIES)
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_elements_match_the_operator_evaluator(family, data):
    ring = parse_ring(family)
    names = list("xyz"[: ring.depth]) + ["q", "xy"]
    text = data.draw(_expressions(names) | _token_soup(names))
    library = _outcome(lambda t: parse_element(t, ring).raw, text)
    assert library == _outcome(lambda t: oracle_parse_element(t, ring).raw, text)


#: Bases of the moduli: Z/n with and without zero divisors, towers.
MODULUS_BASES = ("Z/2", "Z/6", "Z/9", "Z/9[x]/(x^2+x+2)", "Z/2[x]/(x^2)", "Z/12[x]/(x+5)")


@pytest.mark.parametrize("base", MODULUS_BASES)
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_moduli_match_the_operator_evaluator(base, data):
    # A leading power of the new variable makes many moduli monic.
    depth = base.count("[")
    var = "xyz"[depth]
    names = list("xyz"[: depth + 1]) + ["q"]
    lead = data.draw(st.sampled_from(["", f"{var}+", f"{var}^3+", f"{var}^4-"]))
    modulus = lead + data.draw(_expressions(names) | _token_soup(names))
    text = f"{base}[{var}]/({modulus})"
    assert _outcome(parse_ring, text) == _outcome(oracle_parse_ring, text)


# -- no input hangs the tokenizer -----------------------------------------------------


@pytest.mark.parametrize("blank", [" ", "\n"])
@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_ring, "Z/9{0}[x]/({0}x^2+x+2{0}){0}"),
        (parse_code, "{0}span Z/4 len 2 {{ ({0}1,{0}3) }}{0}"),
        (lambda t: parse_matrix(t, parse_ring("Z/25")), "{0}[[1,{0}7],[7,1{0}]]{0}"),
        (parse_ring, "{0}Z/{0}5 ?{0}"),  # refused at the "?"
    ],
)
def test_a_million_blanks_take_linear_time(parse, text, blank):
    # Leading, inner and trailing runs of 10^6 spaces or line breaks.
    text = text.format(blank * 10**6)
    start = time.perf_counter()
    try:
        parse(text)
    except NotationError as exc:
        assert "unexpected character '?'" in str(exc)
    assert time.perf_counter() - start < 1
