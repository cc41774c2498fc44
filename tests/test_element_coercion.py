"""Coercion into an extension (ints, base elements, coefficient lists of
any length), element equality and hashing, and the invariant that a
built ring computes only through its own product table: with every
ring below it made to raise on arithmetic, it still computes, prints and
coerces as before."""

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import flat, nested, nested_poly
from ringcodes import NotInvertibleError, RingElement, parse_ring
from ringcodes.notation import _parse_all, _parse_ring_tokens
from ringcodes.ring import echelon_size

SIX_LEVEL_TOWER = ("Z/2[x]/(x^2+x+1)[y]/(y^2+y+x)[z]/(z^2+z+y)[w]/(w^2+w+z)[t]/(t^2+t+w)"
                   "[u]/(u^2+u+t)")

#: Rings of every family: Z/n, Galois rings, towers of two and three
#: levels, degree-1 levels, and moduli with zero-divisor coefficients.
FAMILIES = (
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
    "Z/3[x]/(x^2+x+2)[y]/(y+x)",
    "Z/9[x]/(x^2+3)[y]/(y^2+3*x*y+3)",
    "Z/2[x]/(x^2+x+1)[y]/(y^2+y+x)[z]/(z^3+y*z+x)",
)
EXTENSIONS = tuple(name for name in FAMILIES if "[" in name)


def _uncached(text):
    """A ring of its own, not the one the parse_ring memo shares."""
    return _parse_all(text, _parse_ring_tokens)


def _raw(ring, draw):
    """A raw of ``ring``, each coordinate drawn by ``draw(n)``."""
    n = ring.characteristic
    return draw(n) if ring.depth == 0 else tuple(draw(n) for _ in range(ring.width))


def _coefficient(base, rng, nest):
    """An entry of a coefficient list over ``base``: an int, an element of
    ``base`` or, on a tower, a list of coefficients over its base, of at
    most ``base.degree`` entries unless ``nest`` allows any length."""
    kind = rng.randrange(3 if base.depth else 2)
    if kind == 0:
        return rng.randrange(-3 * base.characteristic, 3 * base.characteristic)
    if kind == 1:
        return RingElement(base, _raw(base, rng.randrange))
    size = rng.randrange(2 * base.degree + 2 if nest else base.degree + 1)
    return [_coefficient(base.base, rng, nest) for _ in range(size)]


def _nested_value(ring, value):
    """The oracle's nested value of an int, an element of ``ring`` or of
    its base, or a coefficient list: the sum of c_i v^i by long division."""
    if isinstance(value, RingElement):
        if value.ring == ring:
            return nested(ring, value.raw)
        return nested_poly(ring, [nested(ring.base, value.raw)])
    if isinstance(value, int):
        if ring.depth == 0:
            return value % ring.characteristic
        return nested_poly(ring, [_nested_value(ring.base, value)])
    return nested_poly(ring, [_nested_value(ring.base, c) for c in value])


@pytest.mark.parametrize("family", EXTENSIONS)
@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_coefficient_lists_match_nested_polynomials(family, seed):
    # Lists of length 0 to 2d+1 of ints, base elements and, on towers,
    # nested lists of any length.
    ring, rng = parse_ring(family), random.Random(seed)
    for size in range(2 * ring.degree + 2):
        value = [_coefficient(ring.base, rng, nest=True) for _ in range(size)]
        assert ring.element(value).raw == flat(ring, _nested_value(ring, value)), value
    base_element = RingElement(ring.base, _raw(ring.base, rng.randrange))
    assert ring.element(base_element).raw == flat(ring, _nested_value(ring, base_element))
    k = rng.randrange(-1000, 1000)
    assert ring.element(k).raw == flat(ring, _nested_value(ring, k)) == ring.from_int(k).raw


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_equal_elements_hash_equal(family, data):
    # Elements of two equal rings built apart; an int equals no element.
    ring, twin = parse_ring(family), _uncached(family)
    draw = lambda n: data.draw(st.integers(0, n - 1))  # noqa: E731
    a = RingElement(ring, _raw(ring, draw))
    b = RingElement(twin, a.raw if data.draw(st.booleans()) else _raw(twin, draw))
    assert (a == b) == (a.raw == b.raw) == (b == a)
    if a == b:
        assert hash(a) == hash(b) and b in {a}
    # Over Z/n, a.raw is the int of a's residue.
    for k in (data.draw(st.integers()), a.raw):
        assert a != k and k != a and not a == k and k not in {a}


@pytest.mark.parametrize("family", FAMILIES)
def test_a_ring_hashes_as_its_construction(family):
    # Set and dict orders of rings, and of their elements, depend on it.
    ring = _uncached(family)
    key = ("Z/", ring.n) if ring.depth == 0 else ("ext", ring.base, ring.modulus)
    assert hash(ring) == hash(key) == hash(parse_ring(family))
    copy = pickle.loads(pickle.dumps(ring))
    assert copy == ring and hash(copy) == hash(ring)


#: Pickles rings and their ones ("dump"), or loads them and prints, per
#: ring, how many distinct set members it and its one make with their
#: fresh twins, whether it arrived with its square root of -1, how many
#: element answers it arrived with, and whether its square root of -1 and
#: element texts are the fresh twin's.  Z/13 has
#: searched its square root before pickling, so the answer travels in its
#: __dict__; the extension over Z/5 is warmed, and __reduce__ rebuilds it
#: with empty memos.
_PICKLE_SCRIPT = """
import pickle, sys
from ringcodes import parse_ring
rings = [parse_ring(text) for text in ("Z/5", "Z/9[x]/(x^2+x+2)", "Z/13", "Z/5[x]/(x^2+2)")]
if sys.argv[1] == "dump":
    rings[2].find_square_root_of_minus_one()
    warm = rings[3]
    warm.find_square_root_of_minus_one()
    [(str(a), a.is_unit()) for a in warm.elements()]
    with open(sys.argv[2], "wb") as f:
        pickle.dump([(ring, ring.one) for ring in rings], f)
else:
    with open(sys.argv[2], "rb") as f:
        pairs = list(zip(pickle.load(f), rings))
    print([(len({old, ring}), len({one, ring.one})) for (old, one), ring in pairs])
    print([("_square_root_of_minus_one" in vars(old),
            len(vars(old).get("_texts", ())) + len(vars(old).get("_unit_tests", ())))
           for (old, _), _ in pairs])
    print([(str(old.find_square_root_of_minus_one()) == str(ring.find_square_root_of_minus_one()),
            [str(a) for a in old.elements()] == [str(a) for a in ring.elements()])
           for (old, _), ring in pairs])
"""


def test_a_ring_pickled_in_one_process_hashes_as_built_in_another(tmp_path):
    # hash(("Z/", 5)) depends on the process's string hash seed, so a ring
    # loaded under another seed must hash as one built there.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = str(tmp_path / "rings.pickle")
    for seed, action in (("1", "dump"), ("2", "load")):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", _PICKLE_SCRIPT, action, path],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (
        "[(1, 1), (1, 1), (1, 1), (1, 1)]\n"
        "[(False, 0), (False, 0), (True, 0), (False, 0)]\n"
        "[(True, True), (True, True), (True, True), (True, True)]\n"
    )


#: Rings built on Z/n and on towers, each with the length of its longest
#: coefficient list, 2d + 1, and its number of random elements; the
#: widest ring of one level stops at d + 2 and one element, to keep the
#: test under a second.
OWN_TABLE_RINGS = (
    ("Z/4[x]/(x^2+x+1)", 5, 3),
    ("Z/9[x]/(x^2+x+2)", 5, 3),
    ("Z/3[x]/(x^2+x+2)[y]/(y^2)", 5, 3),
    (SIX_LEVEL_TOWER, 5, 3),
    ("Z/251[x]/((x+1)^64)", 66, 1),
)


def _below(ring):
    """The rings ``ring`` is built on, its base first."""
    while ring.depth:
        ring = ring.base
        yield ring


def _exercise(ring, longest, randoms):
    """Sums, differences, products, powers, inverses, unit decisions, span
    echelons, printing and coercions of seeded elements, as plain values."""
    rng, n, base = random.Random(2024), ring.characteristic, ring.base
    elements = [ring.one, ring.generator()] + [
        RingElement(ring, _raw(ring, rng.randrange)) for _ in range(randoms)
    ]
    out = [ring.description()]
    for a, b in zip(elements, elements[1:]):
        out += [(a + b).raw, (a - b).raw, (3 - a).raw, (a * b).raw, (a**5).raw, (-a).raw]
        out += [str(a), repr(b), a.is_unit()]
        if a.is_unit():
            assert a * a.invert() == ring.one
            out.append(a.invert().raw)
        else:
            with pytest.raises(NotInvertibleError):
                a.invert()
        rows = ring._span_echelon([(a.raw, b.raw)])
        out += [rows, echelon_size(n, rows)]
    out += [ring.element(7).raw, ring.element(-3 * n - 1).raw]
    out.append(ring.element(RingElement(base, _raw(base, rng.randrange))).raw)
    for size in range(longest + 1):
        out.append(ring.element([_coefficient(base, rng, nest=False) for _ in range(size)]).raw)
    return out


@pytest.mark.parametrize("text, longest, randoms", OWN_TABLE_RINGS)
def test_a_built_ring_never_computes_in_its_base(text, longest, randoms, monkeypatch):
    ring = _uncached(text)
    expected = _exercise(ring, longest, randoms)

    def refuse(*args):
        raise AssertionError("a built ring computed in a ring below it")

    for below in _below(ring):
        for name in ("_radd", "_rneg", "_rmul", "_vdot", "_zn_rows"):
            monkeypatch.setattr(below, name, refuse)
    assert _exercise(ring, longest, randoms) == expected
