"""What a built ring remembers: its square root of -1, and on an
extension its description and, if it has at most ``MEMO_CAP`` elements,
each element's text and whether it is a unit.  A ring warmed by earlier
calls answers as a freshly built one does, every square-root search is
still charged |R|, a larger ring remembers no element, and a warm ring
changes no output of the command line."""

import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcodes import (
    BudgetExceededError,
    IntegerResidueRing,
    RingElement,
    enumeration_budget,
    make_quotient_extension,
    parse_ring,
)
from ringcodes.cli import main
from ringcodes.notation import _parse_ring_text
from ringcodes.ring import MEMO_CAP

SIX_LEVEL_TOWER = ("Z/2[x]/(x^2+x+1)[y]/(y^2+y+x)[z]/(z^2+z+y)[w]/(w^2+w+z)[t]/(t^2+t+w)"
                   "[u]/(u^2+u+t)")


def _extension(base, *modulus):
    """``base[v]/(f)`` built directly, with the generator of ``base`` read
    for the string "v"."""
    coefficients = [base.generator() if c == "v" else c for c in modulus]
    return make_quotient_extension(base, coefficients)


def _six_level_tower():
    ring = _extension(IntegerResidueRing(2), 1, 1, 1)
    for _ in range(5):
        ring = _extension(ring, "v", 1, 1)
    return ring


#: Each ring's text, and a builder of the same ring that bypasses the
#: notation parser and its memo: Z/n, GR(4,2), GR(9,2), a ring with
#: nilpotents, and the two towers of the benchmark's ext-verify mix.
RINGS = {
    "Z/13": lambda: IntegerResidueRing(13),
    "Z/20": lambda: IntegerResidueRing(20),
    "Z/25": lambda: IntegerResidueRing(25),
    "Z/4[x]/(x^2+x+1)": lambda: _extension(IntegerResidueRing(4), 1, 1, 1),
    "Z/9[x]/(x^2+x+2)": lambda: _extension(IntegerResidueRing(9), 2, 1, 1),
    "Z/5[x]/(x^2)": lambda: _extension(IntegerResidueRing(5), 0, 0, 1),
    "Z/3[x]/(x^2+x+2)[y]/(y^2)":
        lambda: _extension(_extension(IntegerResidueRing(3), 2, 1, 1), 0, 0, 1),
    "Z/2[x]/(x^2+x+1)[y]/(y^2+y+x)":
        lambda: _extension(_extension(IntegerResidueRing(2), 1, 1, 1), "v", 1, 1),
}


def _answers(ring, raws):
    """Everything a ring may remember, as plain values."""
    root = ring.find_square_root_of_minus_one()
    elements = [RingElement(ring, raw) for raw in raws]
    return [
        ring.description(),
        None if root is None else root.raw,
        [(str(a), repr(a), a.is_unit(), a.is_zero_divisor()) for a in elements],
    ]


def _raw(ring, rng):
    if ring.depth == 0:
        return rng.randrange(ring.characteristic)
    return tuple(rng.randrange(ring.characteristic) for _ in range(ring.width))


@settings(max_examples=60, deadline=None)
@given(text=st.sampled_from(sorted(RINGS)), seed=st.integers(0, 2**32 - 1))
def test_a_warm_ring_answers_as_a_fresh_one(text, seed):
    # parse_ring's ring is shared by every example that draws its text, so
    # it is warmed by them all; the fresh one is built for this example.
    warm, rng = parse_ring(text), random.Random(seed)
    raws = [_raw(warm, rng) for _ in range(6)] + [warm._rone, warm._rzero]
    first = _answers(warm, raws)
    fresh = RINGS[text]()
    assert fresh == warm and fresh is not warm
    assert _answers(warm, raws) == first == _answers(fresh, raws)


@pytest.mark.parametrize("text", sorted(RINGS))
def test_a_remembered_square_root_is_still_charged(text):
    ring = parse_ring(text)
    root = ring.find_square_root_of_minus_one()
    assert "_square_root_of_minus_one" in vars(ring)
    card = ring.cardinality
    for _ in range(2):
        with enumeration_budget(card - 1), pytest.raises(BudgetExceededError) as err:
            ring.find_square_root_of_minus_one()
        assert str(err.value) == (
            f"square-root search needs {card} candidate elements, budget is {card - 1}"
        )
    with enumeration_budget(card):
        assert ring.find_square_root_of_minus_one() is root


def test_a_remembered_square_root_is_still_refused_on_the_command_line(capsys):
    argv = ["construct", "diag1", "--ring", "Z/97"]
    assert main(argv) == 0
    capsys.readouterr()
    assert "_square_root_of_minus_one" in vars(parse_ring("Z/97"))
    assert main(argv + ["--budget", "96"]) == 2
    assert capsys.readouterr().err == (
        "error: square-root search needs 97 candidate elements, budget is 96\n"
    )


def _held(ring):
    """Bytes of the element memos of a ring and of its bases, keys and
    values included (ints below 257 are shared and not counted)."""
    total = 0
    while ring.depth:
        for memo in (ring._texts, ring._unit_tests):
            total += sys.getsizeof(memo) + sum(sys.getsizeof(k) + sys.getsizeof(v)
                                               for k, v in memo.items())
        ring = ring.base
    return total


def _warm(ring, raws):
    return [(str(RingElement(ring, raw)), RingElement(ring, raw).is_unit()) for raw in raws]


def test_a_ring_larger_than_the_cap_remembers_no_element():
    # Distinct elements of at most two nonzero coordinates, more than the
    # cap, on the 2^64-element tower; sparse ones keep each unit test cheap.
    warm, fresh = _six_level_tower(), _six_level_tower()
    assert warm.description() == SIX_LEVEL_TOWER
    raws = [tuple(int(k in (i, j)) for k in range(64))
            for i in range(64) for j in range(i, 64)][: MEMO_CAP + 10]
    assert len(set(raws)) == len(raws) > MEMO_CAP
    for _ in range(2):
        answers = _warm(warm, raws)
        assert warm._texts == warm._unit_tests == {}
    assert answers == _warm(fresh, raws)
    # Only the levels of at most MEMO_CAP elements, which the top level's
    # texts are made of, remember anything, and none holds more than itself.
    ring, remembering = warm, []
    while ring.depth:
        assert len(ring._texts) <= ring.cardinality and len(ring._unit_tests) <= ring.cardinality
        if ring._texts:
            remembering.append(ring.cardinality)
        ring = ring.base
    assert remembering == [256, 16, 4]


def test_a_wide_modulus_keeps_no_memory():
    n = 10**4299 + 7
    warm, fresh = (_extension(IntegerResidueRing(n), 1, 0, 1) for _ in range(2))
    rng = random.Random(5)
    raws = [_raw(warm, rng) for _ in range(MEMO_CAP + 10)]
    assert _warm(warm, raws) == _warm(fresh, raws)
    assert _held(warm) == 2 * sys.getsizeof({})


#: Rings of exactly MEMO_CAP elements, the largest that remember elements.
LARGEST_REMEMBERING = [
    "Z/2[x]/(x^2+x+1)[y]/(y^2+y+x)[z]/(z^2+z+y)",
    "Z/2[x]/(x^8+x^4+x^3+x+1)",
    "Z/4[x]/(x^2)[y]/(y^2)",
    "Z/16[x]/(x^2+x+1)",
    "Z/256[x]/(x+1)",
]


@pytest.mark.parametrize("text", LARGEST_REMEMBERING)
def test_a_small_ring_remembers_at_most_its_elements(text):
    # Every element, twice: each memo ends with one answer per element, and
    # the memos of the ring and its bases together hold about 0.1 MB.
    warm, fresh = parse_ring(text), _parse_ring_text.__wrapped__(text)
    assert warm.cardinality == MEMO_CAP and fresh is not warm
    raws = list(warm._iter_raw())
    for _ in range(2):
        assert _warm(warm, raws) == _warm(fresh, raws)
    assert len(warm._texts) == len(warm._unit_tests) == MEMO_CAP
    assert _held(warm) < 128 * 1024


def test_threads_warming_one_ring_agree_with_a_fresh_one():
    # Racing threads may each compute an answer; every one they keep, and
    # every one they return, must be the fresh ring's.
    text = "Z/9[x]/(x^2+x+2)"
    shared, rng = RINGS[text](), random.Random(7)
    raws = [_raw(shared, rng) for _ in range(40)]
    expected = _answers(RINGS[text](), raws)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: _answers(shared, raws), range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 8
    fresh = RINGS[text]()
    texts, units = shared._texts, shared._unit_tests
    assert texts == {raw: str(RingElement(fresh, raw)) for raw in texts}
    assert units == {raw: RingElement(fresh, raw).is_unit() for raw in units}
    assert set(raws) <= set(texts) and set(raws) <= set(units)


@pytest.mark.parametrize("name", ["cli_outputs_golden", "cli_construct_golden"])
def test_a_warm_ring_replays_the_golden_files_byte_for_byte(capsys, name):
    golden = json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text())
    expected = [(c["exit"], c["stdout"], c["stderr"]) for c in golden]
    _parse_ring_text.cache_clear()
    try:
        for _ in range(2):  # first with rings built afresh, then with them warm
            outputs = []
            for case in golden:
                code = main(case["argv"])
                out = capsys.readouterr()
                outputs.append((code, out.out, out.err))
            assert outputs == expected
    finally:
        _parse_ring_text.cache_clear()
