"""Minimum distances by small supports and p-torsion subcodes, differentially
tested against the word stream (oracles.stream_min_weight) over every ring
family: Z/p, Z/p^e, composite n, Galois rings, rings of prime
characteristic with nilpotents (where C[p] = C), a composite-characteristic
extension and two two-level towers, also under every ceiling a caller may
pass, and on codes with more coordinates than torsion words, where only
the Gray walk goes below the ceiling.  Their p-torsion subcodes are
tested against the brute-force set {c in C : pc = 0}."""

from itertools import product
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import stream_min_weight
from ringcodes import (
    Matrix,
    UndefinedDistanceError,
    make_integer_residue_ring,
    parse_ring,
    row_code_min_distances,
    span,
)
import ringcodes.code as code_module
from ringcodes.code import _gray_walk, _min_weight, _torsion_basis, _torsion_kernel
from ringcodes.constructions import block_adiag_matrix
from ringcodes.ring import _prime_divisors, echelon, echelon_words, reduced

FAMILIES = (
    "Z/5",
    "Z/8",
    "Z/9",
    "Z/12",
    "Z/30",
    "Z/36",
    "GR(4,2)",
    "GR(9,2)",
    "Z/2[x]/(x^2)[y]/(y^2)",
    "Z/6[x]/(x^2+1)",
    "f9_tower",
    "Z/2[x]/(x^2+x+1)[y]/(y^2+y+x)",
)

#: Largest |R|^m a drawn code's ambient space may have, so that the oracle
#: streams at most this many words.
SPACE_CAP = 50_000


@pytest.fixture(scope="module")
def families(gr92, f9_tower):
    rings = {name: parse_ring(name) for name in FAMILIES if name.startswith("Z/")}
    rings["GR(4,2)"] = parse_ring("Z/4[x]/(x^2+x+1)")
    rings["GR(9,2)"] = gr92
    rings["f9_tower"] = f9_tower
    return {name: (ring, list(ring.elements())) for name, ring in rings.items()}


def _max_length(ring):
    m = 1
    while m < 5 and ring.cardinality ** (m + 1) <= SPACE_CAP:
        m += 1
    return m


def _draw_rows(data, elems, m, count):
    """``count`` vectors of length m, each scaled by a drawn element half of
    the time so that torsion subcodes smaller than C turn up."""
    rows = []
    for _ in range(count):
        row = [data.draw(st.sampled_from(elems)) for _ in range(m)]
        if data.draw(st.booleans()):
            z = data.draw(st.sampled_from(elems))
            row = [z * e for e in row]
        rows.append(row)
    return rows


def _oracle(code):
    return stream_min_weight(code.ring, code._module(), code.length)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_min_distance_matches_the_word_stream(family, families, data):
    ring, elems = families[family]
    m = data.draw(st.integers(1, _max_length(ring)))
    code = span(ring, m, _draw_rows(data, elems, m, data.draw(st.integers(0, 3))))
    expected = _oracle(code)
    event(f"distance={expected} m={m}")
    if expected is None:
        with pytest.raises(UndefinedDistanceError):
            code.min_distance()
    else:
        assert code.min_distance() == expected


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_min_weight_under_every_valid_ceiling(family, families, data):
    # A ceiling is the weight of a known word, so any value from d to m may
    # be passed; the search below it must still find d.
    ring, elems = families[family]
    m = data.draw(st.integers(1, _max_length(ring)))
    code = span(ring, m, _draw_rows(data, elems, m, data.draw(st.integers(1, 3))))
    expected = _oracle(code)
    if expected is None:
        return
    event(f"distance={expected} m={m}")
    for ceiling in range(expected, m + 1):
        assert _min_weight(ring, code._module(), m, ceiling) == expected, ceiling


#: The extended binary Golay code [24,12,8], [I_12 | B] with B = J - A for
#: the icosahedron's adjacency matrix A, and the ternary Golay code
#: [12,6,6], [I_6 | P]: the classic self-dual codes.
GOLAY_B = ("100000111111 010110001111 001011100111 010101110011 011010111001 001101011101 "
           "101110101100 100111010110 110011101010 111001110100 111100011010 111111000001")
GOLAY_P = "011111 101221 110122 121012 122101 112210"


def _systematic(n, rows):
    k = len(rows.split())
    return n, [[int(i == r) for i in range(k)] + [int(x) for x in row]
               for r, row in enumerate(rows.split())]


@pytest.mark.parametrize("n, generators, distance, words", [
    (*_systematic(2, GOLAY_B), 8, 4_096),
    (*_systematic(3, GOLAY_P), 6, 729),
])
def test_golay_codes(n, generators, distance, words):
    ring = make_integer_residue_ring(n)
    code = span(ring, len(generators[0]), generators)
    assert code.cardinality == words and code.is_self_dual()
    assert code.min_distance() == distance == _oracle(code)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_gray_walk_visits_each_combination_once(p, k):
    # Later row j starts with the unit vector e_j, so a word's first k
    # coordinates are its coefficient tuple: distinct tuples give distinct
    # words, and only the zero tuple gives the head.
    head = (0,) * k + (1, 2 % p, 3 % p)
    later = [tuple(int(i == j) for i in range(k)) + (j % p, 1, 2 * j % p) for j in range(k)]
    walked = [tuple(w) for w in _gray_walk(p, head, later)]
    expected = {
        tuple((h + sum(c * r[i] for c, r in zip(lam, later))) % p for i, h in enumerate(head))
        for lam in product(range(p), repeat=k) if any(lam)
    }
    assert len(walked) == len(expected) == p**k - 1
    assert set(walked) == expected and head not in walked


def test_row_chain_builds_no_basis_after_a_distance_of_one():
    # The block matrix's bare middle row 3 has weight 1, so d(C_3) = 1 caps
    # d(C_4) and d(C_5), and their row codes build no torsion basis.
    a = block_adiag_matrix(make_integer_residue_ring(17), s=5).matrix
    with mock.patch.object(code_module, "_torsion_basis", wraps=_torsion_basis) as basis:
        assert row_code_min_distances(a) == (2, 2, 1, 1, 1)
    assert [len(call.args[2]) for call in basis.call_args_list] == [1, 2, 3]


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_row_code_distances_match_the_word_stream(family, families, data):
    ring, elems = families[family]
    l = data.draw(st.integers(1, _max_length(ring)))
    rows = _draw_rows(data, elems, l, data.draw(st.integers(1, 3)))
    expected = [_oracle(span(ring, l, rows[:i])) for i in range(1, len(rows) + 1)]
    if None in expected:
        with pytest.raises(UndefinedDistanceError):
            row_code_min_distances(Matrix(ring, rows))
    else:
        assert row_code_min_distances(Matrix(ring, rows)) == tuple(expected)


def _f_p_basis(p, vectors):
    return sorted(reduced(p, echelon(p, vectors)).items())


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_torsion_basis_matches_brute_force(family, families, data):
    # C[p] = {c in C : pc = 0} from every word of C, divided by n/p, against
    # _torsion_basis and the kernel route, which must agree.  The closed form
    # C mod p is taken (no kernel built) iff C[p] = (n/p)C, by brute force.
    ring, elems = families[family]
    n, m = ring.characteristic, data.draw(st.integers(1, _max_length(ring)))
    rows = _draw_rows(data, elems, m, data.draw(st.integers(0, 3)))
    if data.draw(st.booleans()):  # systematic rows span a free code
        rows = [[0] * i + [1] + row[i + 1 :] for i, row in enumerate(rows[:m])]
    form, size = span(ring, m, rows)._module(), m * ring.width
    words = list(echelon_words(n, form, size))
    for p in _prime_divisors(n):
        killed = [w for w in words if not any(p * x % n for x in w)]
        closed = set(killed) == {tuple(n // p * x % n for x in w) for w in words}
        with mock.patch.object(code_module, "_torsion_kernel", wraps=_torsion_kernel) as kernel:
            basis = _torsion_basis(n, p, form, size)
        event(f"closed form={closed}")
        assert kernel.called != closed
        assert basis == _f_p_basis(p, [[x // (n // p) for x in w] for w in killed])
        assert basis == _f_p_basis(p, _torsion_kernel(n, p, list(form.values()), size))


@pytest.mark.parametrize("generators, distance, kernels", [
    # Free, though its echelon rows (20,16,24), (0,5,20) lead with non-units;
    # 5 * (20,16,24) = (0,5,20) has weight 2.
    ([[20, 16, 24]], 2, 0),
    # The all-5 repetition code is Z/5 inside Z/25: C[5] = C, not 5C = 0.
    ([[5, 5, 5]], 3, 1),
])
def test_torsion_kernel_only_for_codes_that_are_not_free(generators, distance, kernels):
    code = span(make_integer_residue_ring(25), 3, generators)
    with mock.patch.object(code_module, "_torsion_kernel", wraps=_torsion_kernel) as kernel:
        assert code.min_distance() == distance
    assert kernel.call_count == kernels


def test_zero_code_has_no_distance(families):
    for ring, _ in families.values():
        with pytest.raises(UndefinedDistanceError):
            span(ring, 3, [[0, 0, 0]]).min_distance()


def test_length_one_and_weight_one_words(families):
    ring, _ = families["Z/12"]
    assert span(ring, 1, [[6]]).min_distance() == 1
    # 4 * (3, 3, 3, 1) = (0, 0, 0, 4): weight 1 inside a weight-4 generator.
    assert span(ring, 4, [[3, 3, 3, 1]]).min_distance() == 1
    assert span(ring, 4, [[3, 3, 3, 3]]).min_distance() == 4


def test_support_tests_use_the_reduced_basis():
    # (1,1,2,1) - (0,1,1,1) = (1,0,1,0) needs the row leading outside its
    # support; an unreduced echelon basis misses every weight-2 support,
    # and over Z/13 the support tests run up to size 3.
    ring = make_integer_residue_ring(13)
    assert span(ring, 4, [[1, 1, 2, 1], [0, 1, 1, 1]]).min_distance() == 2


@pytest.mark.parametrize("name, length, head, tail, distance", [
    ("Z/2", 8, [1, 1, 1, 1], [1, 1, 1, 1], 2),
    ("Z/3", 8, [1, 1, 1, 1], [-1, -1, -1, -1], 2),
    ("Z/4[x]/(x^2+x+1)", 16, [1, (0, 3), (0, 3), (0, 3)], [1, 1, 1, 1], 3),
])
def test_weighing_finds_a_word_lighter_than_every_basis_row(name, length, head, tail, distance):
    # Rows (1,0,head) and (0,1,tail) both weigh 5.  Over Z/2 and Z/3 their
    # sum (1,1,0,...,0) weighs 2; over GR(4,2), with -x = (0, 3), the first
    # row plus x times the second is (1, x, 1+x, 0, ...), of weight 3, and
    # every unit multiple of it has at least 4 nonzero coordinates, so the
    # walk must count entries.  C(length, 1) support tests outnumber the
    # torsion words up to scalars (3, 4 and 15: C[2] of GR(4,2) has four
    # rows over F_2), so none runs and only the Gray walk can find it.
    ring = parse_ring(name)
    zeros = [0] * (length - 6)
    code = span(ring, length, [[1, 0] + head + zeros, [0, 1] + tail + zeros])
    assert code.min_distance() == distance == _oracle(code)


#: Largest |C| the lighter-word differential draws, so that the oracle
#: streams at most this many words whatever the length.
WORD_CAP = 1_000


@pytest.mark.parametrize("family", ["Z/5", "Z/9", "GR(4,2)", "Z/2[x]/(x^2+x+1)[y]/(y^2+y+x)"])
@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_weighing_below_every_basis_row_matches_the_word_stream(family, families, data):
    # Systematic rows (e_i | t_i): t_1 of units, each later t_i = u_i t_1 + f_i
    # for a unit u_i and an f_i of weight at most 1.  Every row, and every
    # row of the reduced bases of the C[p], weighs at least len(t_1) >= 4,
    # while r_i - u_i r_1 weighs at most 3.  The code is free of rank k, so
    # C[p] has at most k * width rows over F_p, and with more coordinates
    # than its (p^(k*width) - 1)/(p - 1) words up to scalars no support test
    # runs: only the Gray walk can go below the ceiling.
    ring, elems = families[family]
    (p,) = _prime_divisors(ring.characteristic)
    units = [e for e in elems if e.is_unit()]
    k = data.draw(st.sampled_from([k for k in (2, 3) if ring.cardinality**k <= WORD_CAP]))
    up_to_scalars = (p ** (k * ring.width) - 1) // (p - 1)
    size = data.draw(st.integers(max(up_to_scalars + 1 - k, 4), up_to_scalars + 3))
    first = data.draw(st.lists(st.sampled_from(units), min_size=size, max_size=size))
    tails = [first]
    for _ in range(k - 1):
        unit = data.draw(st.sampled_from(units))
        tail = [unit * x for x in first]
        if data.draw(st.booleans()):
            i = data.draw(st.integers(0, size - 1))
            tail[i] += data.draw(st.sampled_from(elems))
        tails.append(tail)
    rows = [[int(i == j) for j in range(k)] + tail for i, tail in enumerate(tails)]
    code = span(ring, k + size, rows)
    assert code.min_distance() == _oracle(code) <= 3


def test_weight_counts_ring_entries_not_coordinates(families):
    # 2 + 2x has two nonzero Z/4 coordinates in one entry of GR(4,2).
    ring, _ = families["GR(4,2)"]
    x = ring.generator()
    two_plus_two_x = ring.from_int(2) * (ring.one + x)
    assert span(ring, 1, [[ring.one + x]]).min_distance() == 1
    # |C| = 4, so C(4, 1) = 4 support tests outnumber its 3 torsion words
    # and the torsion step decides.
    assert span(ring, 4, [[two_plus_two_x, 0, 0, 0]]).min_distance() == 1
    assert span(ring, 4, [[two_plus_two_x, two_plus_two_x, 0, 0]]).min_distance() == 2


def test_huge_modulus_factors_the_exponent_not_n():
    # 2^107 - 1 is prime; trial division of n = 2q would never finish.
    q = 2**107 - 1
    ring = make_integer_residue_ring(2 * q)
    assert span(ring, 2, [[q, q]]).min_distance() == 2


def test_each_code_is_weighed_once(monkeypatch):
    # reproduce prime-square:13 asks each input code for its distance four
    # times (the construction's check, the scenario, and the bound of each
    # of the two products) and each product once.
    import ringcodes.code as code_module
    from ringcodes.scenarios import run_scenario

    calls = {"weigh": 0, "kernel": 0}

    def counted(name, key):
        real = getattr(code_module, name)

        def wrapper(*args):
            calls[key] += 1
            return real(*args)

        monkeypatch.setattr(code_module, name, wrapper)

    counted("_min_weight", "weigh")
    counted("_torsion_kernel", "kernel")
    assert run_scenario("prime-square:13").passed
    # The two inputs and the two products; one [pG | I] kernel for the all-13
    # input code and one for each product.
    assert calls == {"weigh": 4, "kernel": 3}


def test_a_refusal_is_not_remembered_and_a_distance_is_still_charged():
    from ringcodes import BudgetExceededError, enumeration_budget

    z4 = make_integer_residue_ring(4)
    code = span(z4, 3, [[1, 1, 2], [0, 2, 2]])  # |C| = 8 words
    with pytest.raises(BudgetExceededError), enumeration_budget(7):
        code.min_distance()
    with enumeration_budget(8):
        assert code.min_distance() == 2
    with pytest.raises(BudgetExceededError), enumeration_budget(7):
        code.min_distance()
