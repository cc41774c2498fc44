"""The per-process memo behind :func:`ringcodes.parse_ring`: one shared
ring per text, at most 32 kept, refusals and non-strings never stored,
and nothing that depends on the request's enumeration budget, so a warm
memo changes no output of the command line."""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from ringcodes import NotationError, enumeration_budget, parse_code, parse_ring
from ringcodes.cli import main
from ringcodes.notation import _parse_all, _parse_ring_text, _parse_ring_tokens, _tokenize

TOWER = "Z/2[x]/(x^2+x+1)[y]/(y^2+y+x)"
TEXTS = ["Z/20", "Z/9[x]/(x^2+x+2)", "Z/4[x]/(x^2+x+1)", TOWER]


@pytest.fixture
def cold():
    """An empty memo, and the memo emptied again afterwards."""
    _parse_ring_text.cache_clear()
    yield _parse_ring_text
    _parse_ring_text.cache_clear()


def _uncached(text):
    return _parse_all(text, _parse_ring_tokens)


def test_the_same_text_gives_the_same_ring(cold):
    ring = parse_ring("Z/9[x]/(x^2+x+2)")
    assert parse_ring("Z/9[x]/(x^2+x+2)") is ring
    respelled = parse_ring("Z/9[x]/(x^2 + x + 2)")
    assert respelled == ring and hash(respelled) == hash(ring)
    assert ring == _uncached("Z/9[x]/(x^2+x+2)")
    assert cold.cache_info().hits == 1


def test_span_parses_share_one_ring(cold):
    # The ring's text, stripped of the blanks around it, is the key, as
    # parse_ring's text is: --ring and spans that spell the ring alike
    # share one build.
    ring = parse_ring("Z/9[x]/(x^2+x+2)")
    first = parse_code("span Z/9[x]/(x^2+x+2) len 1 { (1) }")
    info = cold.cache_info()
    assert first.ring is ring and (info.misses, info.hits) == (1, 1)
    second = parse_code("span  Z/9[x]/(x^2+x+2)\nlen 2 { (x,1) }")
    assert second.ring is ring
    respaced = parse_code("span Z/9[x]/( x^2 + x+2 ) len 1 { (1) }")
    assert respaced.ring == ring and respaced.ring is not ring
    assert cold.cache_info().currsize == 2


@pytest.mark.parametrize(
    "text, line, column",
    # Joined without spaces, x^1 2 would be the valid x^12.
    [("span Z/2[x]/(x^1 2) len 1 { (1) }", 1, 18), ("span Z/9[x]/(len) len 1 { (1) }", 1, 14),
     ("span Z/9 foo len 1 { }", 1, 10), ("span\nZ/4[y]/(y^2+1) len 1 { (1) }", 2, 5)],
)
def test_a_refused_span_ring_is_placed_in_the_whole_text(cold, text, line, column):
    with pytest.raises(NotationError) as err:
        parse_code(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert cold.cache_info().currsize == 0


@pytest.mark.parametrize(
    "text, line, column",
    [("Z/", 1, 3), ("Z/9[x]/(x^2+x+2", 1, 16), ("Z/4[y]/(y^2+1)", 1, 5),
     ("Z/9[x]/(2*x+1)", 1, 8), ("Z/9\n[x]/(x^2+?)", 2, 10)],
)
def test_a_refusal_is_raised_on_every_call(cold, text, line, column):
    for _ in range(3):
        with pytest.raises(NotationError) as err:
            parse_ring(text)
        assert (err.value.line, err.value.column) == (line, column)
    assert cold.cache_info().currsize == 0


@pytest.mark.parametrize("value", [5, None, b"Z/4", ["Z/4"], {"Z/4": 1}])
def test_a_non_string_fails_as_the_tokenizer_does(cold, value):
    with pytest.raises(Exception) as expected:
        _tokenize(value)
    with pytest.raises(type(expected.value)) as err:
        parse_ring(value)
    assert str(err.value) == str(expected.value)
    assert "unhashable" not in str(err.value)
    assert cold.cache_info().currsize == 0


def test_a_str_subclass_is_parsed_but_not_kept(cold):
    class Text(str):
        pass

    assert parse_ring(Text("Z/25")) == parse_ring("Z/25")
    assert cold.cache_info().currsize == 1


def test_at_most_32_rings_are_kept(cold):
    assert cold.cache_info().maxsize == 32
    rings = [parse_ring(f"Z/{n}") for n in range(2, 42)]
    assert cold.cache_info().currsize == 32
    # The least recently used went first: Z/2 is rebuilt, equal, not the same.
    assert parse_ring("Z/41") is rings[-1]
    again = parse_ring("Z/2")
    assert again == rings[0] and again is not rings[0]


def test_threads_parsing_the_same_texts_agree_with_a_serial_parse(cold):
    serial = [_uncached(text) for text in TEXTS]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(3):
                assert list(pool.map(parse_ring, TEXTS * 4, timeout=60)) == serial * 4
    finally:
        sys.setswitchinterval(interval)
    assert cold.cache_info().currsize == len(TEXTS)


def test_building_a_ring_charges_no_budget(cold):
    # The memo is sound only because a ring is the same under every limit.
    with enumeration_budget(1):
        tight = parse_ring(TOWER)
    assert tight == _uncached(TOWER)
    assert parse_ring(TOWER) is tight


@pytest.mark.parametrize(
    "argv, refusal",
    [(["reproduce", "prime-square:5", "--budget", "10"],
      "error: enumerating the code needs 25 words, budget is 10\n"),
     (["distance", "--ring", "Z/4[x]/(x^2+x+1)", "--code", "{ (1,x) }", "--budget", "10"],
      "error: enumerating the code needs 16 words, budget is 10\n"),
     (["reproduce", "lemma-adiag1:Z/9[x]/(x^2+x+2)", "--budget", "10"],
      "error: square-root search needs 81 candidate elements, budget is 10\n")],
    ids=["prime-square", "distance", "lemma-adiag1"],
)
def test_a_budget_refusal_stands_once_the_ring_is_kept(cold, capsys, argv, refusal):
    assert main(argv[:-2]) == 0  # under the default limit, which keeps the ring
    capsys.readouterr()
    for _ in range(2):
        assert main(argv) == 2
        assert capsys.readouterr().err == refusal


def test_a_warm_memo_changes_no_golden_output(cold, capsys):
    golden = json.loads(
        (Path(__file__).parent / "data" / "cli_outputs_golden.json").read_text()
    )
    passes = []
    for _ in range(2):
        misses = cold.cache_info().misses
        outputs = []
        for case in golden:
            code = main(case["argv"])
            out = capsys.readouterr()
            outputs.append((code, out.out, out.err))
        passes.append((outputs, cold.cache_info().misses - misses))
    (cold_outputs, cold_misses), (warm_outputs, warm_misses) = passes
    # Each kept ring was a hit the second time; only refused texts missed again.
    kept = cold.cache_info().currsize
    assert kept > 0 and warm_misses == cold_misses - kept
    assert warm_outputs == cold_outputs
    assert cold_outputs == [(c["exit"], c["stdout"], c["stderr"]) for c in golden]
