"""Ring arithmetic, unit/zero-divisor decisions, and enumeration order."""

import random

import pytest

from oracles import naive_is_unit, naive_is_zero_divisor
from ringcodes import (
    BudgetExceededError,
    InvalidParameterError,
    NotInvertibleError,
    RingMismatchError,
    enumeration_budget,
    galois_ring,
    make_integer_residue_ring,
    make_quotient_extension,
    parse_ring,
)
from ringcodes.ring import DEFAULT_DEGREE2_CONSTANTS, square_and_multiply


def test_integer_residue_basics(z20, z25):
    assert z20.cardinality == 20
    assert z20.characteristic == 20
    assert z25.element(14).is_unit()
    z2 = make_integer_residue_ring(2)
    assert [e.raw for e in z2.elements()] == [0, 1]


@pytest.mark.parametrize("n", [1, 0, -3])
def test_integer_residue_rejects_small_moduli(n):
    with pytest.raises(InvalidParameterError):
        make_integer_residue_ring(n)


def test_extension_cardinality_by_enumeration(gr92):
    seen = set(gr92.elements())
    assert len(seen) == 81
    assert gr92.cardinality == 81


def test_tower_cardinality(gr92):
    tower = make_quotient_extension(gr92, (gr92.from_int(-3), gr92.zero, gr92.one))
    assert tower.cardinality == 81**2 == 6561
    assert tower.characteristic == 9
    # The adjoined variable really is a square root of 3.
    y = tower.generator()
    assert y * y == tower.from_int(3)


def test_degenerate_extension_collapses():
    z2 = make_integer_residue_ring(2)
    r = make_quotient_extension(z2, (0, 1))  # f = x, so x = 0
    assert r.cardinality == 2
    assert r.generator().is_zero()
    assert r != z2  # structurally distinct even though isomorphic


def test_extensions_wider_than_64_coordinates_rejected():
    z2 = make_integer_residue_ring(2)
    assert make_quotient_extension(z2, [1] + [0] * 63 + [1]).width == 64
    with pytest.raises(InvalidParameterError, match="more than 64 coordinates"):
        make_quotient_extension(z2, [1] + [0] * 64 + [1])
    # The width is the product of the degrees; degree-1 levels keep it.
    gr = make_quotient_extension(z2, [1] + [0] * 31 + [1])
    assert make_quotient_extension(gr, (gr.one, gr.one)).width == 32
    with pytest.raises(InvalidParameterError, match="got 96"):
        make_quotient_extension(gr, (gr.one, gr.zero, gr.zero, gr.one))


def test_non_monic_modulus_rejected(z9):
    with pytest.raises(InvalidParameterError):
        make_quotient_extension(z9, (1, 2))
    with pytest.raises(InvalidParameterError):
        make_quotient_extension(z9, (5,))


def test_arithmetic_golden_values(z20, z25):
    assert z25.element(7) * z25.element(7) == z25.element(24) == -z25.one
    assert z20.element(2) * z20.element(10) == z20.zero
    a = z20.element(13)
    assert a + (-a) == z20.zero
    # An int on the left: 3 - a is computed in the ring, as a - 3 is.
    assert 3 - a == z20.element(10) == -(a - 3)


def test_mixed_ring_operands_rejected(z20, z25):
    with pytest.raises(RingMismatchError):
        z20.element(1) + z25.element(1)
    # Structurally equal rings interoperate even as separate instances.
    other = make_integer_residue_ring(20)
    assert other.element(3) + z20.element(4) == z20.element(7)


def test_is_unit(z20, z25):
    assert z25.element(14).is_unit()
    assert not z25.zero.is_unit()
    assert not z20.element(5).is_unit()


def test_invert(z20, z25):
    assert z25.element(7).invert() == z25.element(18)
    assert (-z25.element(7).invert()) == z25.element(7)  # -7^-1 = 7
    assert z25.one.invert() == z25.one
    with pytest.raises(NotInvertibleError):
        z20.element(2).invert()


def test_is_zero_divisor(z20, z25):
    assert z20.element(2).is_zero_divisor()
    assert not z25.element(2).is_zero_divisor()
    assert not z25.one.is_zero_divisor()
    assert z20.zero.is_zero_divisor()  # 0 counts by convention


def test_square_root_of_minus_one(z13, z20, z25):
    assert z25.find_square_root_of_minus_one() == z25.element(7)
    assert z13.find_square_root_of_minus_one() == z13.element(5)
    assert z20.find_square_root_of_minus_one() is None


def test_square_root_search_is_budgeted(z25):
    with pytest.raises(BudgetExceededError) as err, enumeration_budget(24):
        z25.find_square_root_of_minus_one()
    assert str(err.value) == "square-root search needs 25 candidate elements, budget is 24"
    with enumeration_budget(25):
        assert z25.find_square_root_of_minus_one() == z25.element(7)
    # 10007^2 elements exceed the default budget: refused, not searched.
    with pytest.raises(BudgetExceededError):
        parse_ring("Z/10007[x]/(x^2+1)").find_square_root_of_minus_one()


def test_square_root_property(z13, z25, gr92, f9_tower):
    for ring in (z13, z25, gr92, f9_tower):
        u = ring.find_square_root_of_minus_one()
        assert u is not None
        assert u * u == -ring.one


def test_enumeration_order(z20):
    raws = [e.raw for e in z20.elements()]
    assert raws == list(range(20))
    assert raws[0] == 0


def test_extension_enumeration_is_lexicographic(gr92):
    raws = list(gr92._iter_raw())
    assert raws == sorted(raws)
    assert len(set(raws)) == gr92.cardinality


@pytest.mark.parametrize(
    "ring_name", ["z6", "z9", "z13", "z25", "gr92", "f9_tower"]
)
def test_ring_axioms_on_random_triples(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    rng = random.Random(20240517)
    elems = list(ring.elements())
    for _ in range(40):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a + ring.zero == a
        assert a * ring.one == a


@pytest.mark.parametrize("ring_name", ["z4", "z12", "gr92", "f9_tower"])
def test_unit_xor_zero_divisor(ring_name, request):
    # The fact behind is_zero_divisor = not is_unit, checked by naive search:
    # in a finite commutative ring each element is a unit or a zero divisor.
    ring = request.getfixturevalue(ring_name)
    for a in ring.elements():
        assert naive_is_unit(a) != naive_is_zero_divisor(a)


@pytest.mark.parametrize(
    "ring_name",
    [
        "Z/12",
        "Z/25",
        "Z/4[x]/(x^2+x+1)",  # GR(4,2)
        "gr92",
        "f9_tower",
        "Z/2[x]/(x^2)[y]/(y^2)",
        "Z/6[x]/(x^2+1)",
        "Z/12[x]/(x+5)",  # degree-1 modulus
        "Z/4[x]/(x^3+x+1)",  # degree-3 modulus
    ],
)
def test_unit_decisions_match_naive_search(ring_name, request):
    """Units by the echelon count of aR (gcd on Z/n), inverses read off the
    reduced echelon form of [M | I] for x -> xa over Z/n, zero divisors as
    the non-units, against scans over every element."""
    if "/" in ring_name:
        ring = parse_ring(ring_name)
    else:
        ring = request.getfixturevalue(ring_name)
    for a in ring.elements():
        unit = naive_is_unit(a)
        assert a.is_unit() == unit
        assert a.is_zero_divisor() == naive_is_zero_divisor(a)
        if unit:
            assert a * a.invert() == ring.one
        else:
            with pytest.raises(NotInvertibleError) as err:
                a.invert()
            assert str(err.value) == f"{a} is not a unit in {ring.description()}"


def test_unit_decisions_on_wide_nilpotent_extensions():
    # Too wide to scan: x is nilpotent, so a is a unit iff its constant
    # coordinate is a unit of Z/n.
    rng = random.Random(20261018)
    ring = parse_ring("Z/2[x]/(x^64)")
    for i in range(30):
        a = ring.element([i % 2] + [rng.randrange(2) for _ in range(63)])
        assert a.is_unit() == (a.raw[0] == 1)
    ring = parse_ring("Z/4[x]/(x^32)")
    for _ in range(10):
        a = ring.element([rng.choice((1, 3))] + [rng.randrange(4) for _ in range(31)])
        assert a * a.invert() == ring.one


@pytest.mark.parametrize("ring_name", ["z12", "z25", "gr92"])
def test_invert_is_inverse(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    for a in ring.elements():
        if a.is_unit():
            assert a.invert() * a == ring.one


class _Counted:
    """A residue modulo 1000003 that counts the products it takes part in."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        _Counted.products += 1
        return _Counted(self.value * other.value % 1000003)


@pytest.mark.parametrize("exponent", [0, 1, 2, 3, 10, 255, 256, 2**64 - 1])
def test_square_and_multiply_stops_squaring_at_the_last_bit(exponent):
    _Counted.products = 0
    result = square_and_multiply(_Counted(3), exponent, _Counted(1))
    assert result.value == pow(3, exponent, 1000003)
    # The lowest set bit's power starts the product, so no product with 1.
    squarings = max(exponent.bit_length() - 1, 0)
    assert _Counted.products == max(bin(exponent).count("1") - 1, 0) + squarings


def test_element_powers_match_repeated_products(gr92, f9_tower):
    for ring in (gr92, f9_tower):
        for a in list(ring.elements())[:: max(1, ring.cardinality // 9)]:
            acc = ring.one
            for k in range(9):
                assert a**k == acc
                acc = acc * a
            if a.is_unit():
                assert a**-3 == (a * a * a).invert()


def test_galois_ring_default_modulus():
    gr = galois_ring(3, 2, 2)
    assert gr.description() == "Z/9[x]/(x^2+x+2)"
    assert gr.cardinality == 81
    with pytest.raises(InvalidParameterError):
        galois_ring(4, 1, 2)  # 4 is not prime
    with pytest.raises(InvalidParameterError):
        galois_ring(3, 1, 5)  # no default modulus of degree 5
    assert galois_ring(5, 3, 1).cardinality == 125


def test_default_degree2_moduli_are_rootless():
    # x^2 + x + c must have no root mod p, and c must be minimal with that.
    for p, c in DEFAULT_DEGREE2_CONSTANTS.items():
        for smaller in range(1, c):
            assert any((x * x + x + smaller) % p == 0 for x in range(p))
        assert all((x * x + x + c) % p != 0 for x in range(p))


def test_structural_ring_equality(gr92):
    assert make_integer_residue_ring(20) == make_integer_residue_ring(20)
    assert make_integer_residue_ring(20) != make_integer_residue_ring(25)
    again = galois_ring(3, 2, 2)
    assert again == gr92
    assert hash(again) == hash(gr92)
    other_modulus = make_quotient_extension(make_integer_residue_ring(9), (1, 1, 1))
    assert other_modulus != gr92


def test_element_coercion_and_embedding(gr92, f9_tower):
    assert gr92.element(10) == gr92.from_int(10)
    base = f9_tower.base
    embedded = f9_tower.element(base.from_int(2))
    assert embedded == f9_tower.from_int(2)
    # A coefficient list is read low to high and reduced by the modulus
    # x^2 + x + 2: [1, 2] is 1 + 2x, and [0, 0, 1] is x^2 = -x - 2.
    x = gr92.generator()
    assert gr92.element([1, 2]) == 1 + 2 * x
    assert gr92.element([0, 0, 1]) == -x - 2
    with pytest.raises(RingMismatchError):
        f9_tower.element(make_integer_residue_ring(7).element(1))
