"""Linear codes: span closure, inner products, brute-force duals,
self-orthogonality/self-duality, and distances, cross-checked against
the naive oracles."""

import random

import pytest

from oracles import element_words, naive_dual, naive_span, pairwise_min_distance
from ringcodes import (
    SELF_DUAL,
    BudgetExceededError,
    Matrix,
    MPCSpec,
    RingMismatchError,
    ShapeError,
    UndefinedDistanceError,
    check_conditions,
    enumeration_budget,
    hamming_weight,
    inner_product,
    make_integer_residue_ring,
    parse_generators,
    parse_matrix,
    span,
)
from ringcodes import code as code_module
from ringcodes.ring import Ring


def test_span_golden(z20):
    assert element_words(span(z20, 1, [[10]])) == {(0,), (10,)}
    assert element_words(span(z20, 1, [[4]])) == {(0,), (4,), (8,), (12,), (16,)}
    assert element_words(span(z20, 3, [])) == {(0, 0, 0)}


@pytest.mark.parametrize("ring_name", ["z4", "z6", "z9", "gr92"])
def test_span_matches_naive_closure(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    rng = random.Random(1234)
    elems = list(ring.elements())
    for _ in range(12):
        m = rng.randint(1, 2)
        gens = [
            [rng.choice(elems) for _ in range(m)] for _ in range(rng.randint(0, 2))
        ]
        code = span(ring, m, gens)
        assert code.codewords() == naive_span(ring, m, gens)


def test_inner_product_golden(z20, z25):
    v = [z25.element(1), z25.element(7)]
    assert inner_product(v, v) == z25.zero
    zeros = [z20.zero, z20.zero]
    assert inner_product([z20.element(3), z20.element(9)], zeros) == z20.zero
    assert inner_product([z20.element(10)], [z20.element(2)]) == z20.zero


def test_inner_product_errors(z20, z25):
    with pytest.raises(ShapeError):
        inner_product([z20.one], [z20.one, z20.zero])
    with pytest.raises(RingMismatchError):
        inner_product([z20.one], [z25.one])


def test_inner_product_symmetric_bilinear(z12):
    rng = random.Random(555)
    elems = list(z12.elements())
    for _ in range(30):
        x, y, z = ([rng.choice(elems) for _ in range(3)] for _ in range(3))
        s = rng.choice(elems)
        assert inner_product(x, y) == inner_product(y, x)
        xz = [a + b for a, b in zip(x, z)]
        assert inner_product(xz, y) == inner_product(x, y) + inner_product(z, y)
        sx = [s * a for a in x]
        assert inner_product(sx, y) == s * inner_product(x, y)


def test_dual_golden(z20):
    c1 = span(z20, 1, [[10]])
    dual = c1.dual_bruteforce()
    assert element_words(dual) == {(x,) for x in range(0, 20, 2)}
    # The dual's generator list is its entire codeword set, sorted.
    assert [g[0].raw for g in dual.generators] == list(range(0, 20, 2))
    c2 = span(z20, 1, [[4]])
    assert element_words(c2.dual_bruteforce()) == {(0,), (5,), (10,), (15,)}
    full = span(z20, 1, [[1]])
    assert element_words(full.dual_bruteforce()) == {(0,)}


@pytest.mark.parametrize("ring_name", ["z4", "z6", "z9"])
def test_dual_matches_naive_oracle(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    rng = random.Random(42)
    elems = list(ring.elements())
    for _ in range(10):
        m = rng.randint(1, 2)
        gens = [[rng.choice(elems) for _ in range(m)] for _ in range(rng.randint(1, 2))]
        code = span(ring, m, gens)
        assert code.dual_bruteforce().codewords() == naive_dual(code)


def test_dual_is_linear_and_contains_bidual(z12, gr92):
    for ring, gens, m in ((z12, [[2, 3]], 2), (gr92, [[3]], 1)):
        code = span(ring, m, gens)
        dual = code.dual_bruteforce()
        words = list(dual.codewords())
        rng = random.Random(7)
        scalars = list(ring.elements())
        for _ in range(20):
            a, b = rng.choice(words), rng.choice(words)
            s = rng.choice(scalars)
            assert tuple(x + y for x, y in zip(a, b)) in dual.codewords()
            assert tuple(s * x for x in a) in dual.codewords()
        bidual = dual.dual_bruteforce()
        assert code.codewords() <= bidual.codewords()


def test_codewords_form_a_subgroup(z9):
    code = span(z9, 2, [[3, 6], [0, 3]])
    words = code.codewords()
    for w in words:
        for v in words:
            assert tuple(a + b for a, b in zip(w, v)) in words


def test_predicates_golden(z20, z25):
    c1 = span(z20, 1, [[10]])
    c2 = span(z20, 1, [[4]])
    assert c1.is_self_orthogonal()
    assert not c2.is_self_orthogonal()
    c = span(z25, 2, [[1, 7]])
    assert c.is_self_dual()
    assert c.is_self_orthogonal()  # self-dual implies self-orthogonal


def test_self_dual_implies_self_orthogonal(z4, z9):
    rng = random.Random(11)
    for ring in (z4, z9):
        elems = list(ring.elements())
        for _ in range(20):
            code = span(ring, 2, [[rng.choice(elems), rng.choice(elems)]])
            if code.is_self_dual():
                assert code.is_self_orthogonal()


def test_is_subcode(z20):
    c1 = span(z20, 1, [[10]])
    dual2 = span(z20, 1, [[4]]).dual_bruteforce()
    assert c1.is_subcode(dual2)  # {0,10} within {0,5,10,15}
    assert not dual2.is_subcode(c1)


def test_is_orthogonal_to_matches_dual_membership(z20):
    c1 = span(z20, 1, [[10]])
    c2 = span(z20, 1, [[4]])
    assert c1.is_orthogonal_to(c2) == c1.is_subcode(c2.dual_bruteforce())
    assert c2.is_orthogonal_to(c1)


def test_min_distance_golden(z20, z25):
    assert span(z25, 2, [[1, 7]]).min_distance() == 2
    assert span(z20, 1, [[4]]).min_distance() == 1
    assert span(z25, 1, [[1]]).min_distance() == 1


def test_min_distance_zero_code_rejected(z20):
    with pytest.raises(UndefinedDistanceError):
        span(z20, 2, []).min_distance()


@pytest.mark.parametrize("ring_name", ["z6", "z9", "z13"])
def test_min_distance_matches_pairwise_definition(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    rng = random.Random(88)
    elems = list(ring.elements())
    checked = 0
    while checked < 8:
        gens = [[rng.choice(elems) for _ in range(3)]]
        code = span(ring, 3, gens)
        if code.cardinality == 1:
            continue
        assert code.min_distance() == pairwise_min_distance(code)
        checked += 1


def test_hamming_weight(z20, z25):
    assert hamming_weight([z25.zero] * 4) == 0
    assert hamming_weight([z25.element(14), z25.zero, z25.element(23), z25.zero]) == 2
    assert hamming_weight([z20.zero, z20.element(16), z20.element(8), z20.zero]) == 2


def test_budget_errors(z25):
    big = span(z25, 5, [[1, 1, 1, 1, 1]])
    with pytest.raises(BudgetExceededError), enumeration_budget(10_000):
        big.dual_bruteforce()
    small = span(z25, 2, [[1, 7]])
    with enumeration_budget(10):
        with pytest.raises(BudgetExceededError):
            small.codewords()
        # Sizes and self-duality come from echelon forms, so no budget is
        # too small for them.
        assert small.cardinality == 25 and small.is_self_dual()


def test_failed_closure_is_not_rerun(z25, monkeypatch):
    # A walk is charged |C| before it starts, so a refused one never runs,
    # however often it is asked for, and no report question walks at all.
    walks = []
    words = code_module.echelon_words
    monkeypatch.setattr(
        code_module, "echelon_words", lambda *a: walks.append(a) or words(*a))
    code = span(z25, 2, [[1, 7]])
    with enumeration_budget(24):
        report = check_conditions(MPCSpec((code, code), Matrix.identity(z25, 2)))
        assert report.concludes(SELF_DUAL)
        assert code.is_self_dual() and code.cardinality == 25
        for _ in range(2):
            with pytest.raises(BudgetExceededError):
                code.codewords()
    assert walks == []
    with enumeration_budget(25):
        assert len(span(z25, 2, [[1, 7]]).codewords()) == 25
    assert len(walks) == 1


def test_echelon_form_is_computed_once(z25, monkeypatch):
    # The echelon form is kept once computed, and a refused walk keeps it:
    # one report on (C, C) and any number of later questions share one.
    # Only forms of C's generators count; the identity's rank is another.
    calls = []
    span_echelon = Ring._span_echelon

    def counted(self, vectors, *a):
        if vectors == ((1, 7),):
            calls.append(vectors)
        return span_echelon(self, vectors, *a)

    monkeypatch.setattr(Ring, "_span_echelon", counted)
    code = span(z25, 2, [[1, 7]])
    with enumeration_budget(24):
        report = check_conditions(MPCSpec((code, code), Matrix.identity(z25, 2)))
        assert len(calls) == 1
        assert report.concludes(SELF_DUAL)
        for _ in range(2):
            with pytest.raises(BudgetExceededError):
                code.min_distance()
            assert code.cardinality == 25
    assert len(calls) == 1


def test_dual_size_is_computed_once_per_code(z25, monkeypatch):
    # The report asks each input's dual size twice, for the first input
    # that is not self-dual and for thm-self-dual; each code counts its
    # image, the span of the generators' columns, once.
    images = []
    span_echelon = Ring._span_echelon

    def counted(self, vectors, *a):
        vectors = list(vectors)
        if vectors == [(1,), (7,)]:
            images.append(vectors)
        return span_echelon(self, vectors, *a)

    monkeypatch.setattr(Ring, "_span_echelon", counted)
    codes = (parse_generators("{ (1,7) }", z25), parse_generators("{ (1,7) }", z25))
    report = check_conditions(MPCSpec(codes, parse_matrix("[[1,7],[7,1]]", z25)))
    assert report.condition("thm-self-dual").holds
    assert report.condition("cor-orthog-3").detail == "A is not orthogonal"
    assert len(images) == 2


def test_closure_refuses_before_building_an_orbit(monkeypatch):
    # |R| = 1009 words exceed the budget: listing or weighing them is
    # refused before the first word, and the message names the count.
    # min_distance weighs through _min_weight, not echelon_words, so both
    # are watched.
    ring = make_integer_residue_ring(1009)
    runs = []
    monkeypatch.setattr(code_module, "echelon_words", lambda *a: runs.append(a))
    monkeypatch.setattr(code_module, "_min_weight", lambda *a: runs.append(a))
    code = span(ring, 1, [[1]])
    for walk in (code.codewords, code.sorted_codewords, code.min_distance):
        with pytest.raises(BudgetExceededError) as err, enumeration_budget(1000):
            walk()
        assert str(err.value) == "enumerating the code needs 1009 words, budget is 1000"
    assert runs == []
    assert code.cardinality == 1009 and code.contains([5]) and code == span(ring, 1, [[2]])


def test_codes_over_other_rings_or_lengths_are_incompatible(z20, z25):
    c = span(z25, 2, [[1, 7]])
    for other, error, message in (
        (span(z20, 2, [[1, 7]]), RingMismatchError, "^codes live over different rings$"),
        (span(z25, 3, [[1, 7, 0]]), ShapeError, "^length mismatch: 2 vs 3$"),
    ):
        for question in (c.is_subcode, c.is_orthogonal_to):
            with pytest.raises(error, match=message):
                question(other)


def test_contains(z20):
    c = span(z20, 1, [[4]])
    assert c.contains([8])
    assert not c.contains([5])


def test_sorted_codewords_deterministic(z20):
    a = span(z20, 1, [[4]])
    b = span(z20, 1, [[4], [8]])
    assert a == b
    assert [w[0].raw for w in a.sorted_codewords()] == [0, 4, 8, 12, 16]
