"""The echelon form over Z/n behind every code decision, differentially
tested over every ring family, composite n included: sizes and words
against the naive closure and the orbit closure, duals against the naive
dual, containment and equality against word sets, and each budget
refusal at its threshold: a walk over the words at their count, the
dual at |R|^m.  The [M | I] form and its reduction, behind duals, torsion
subcodes and inverses, against kernels counted by scanning."""

import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import element_words, naive_dual, naive_span, orbit_closure
from ringcodes import BudgetExceededError, RingElement, enumeration_budget, parse_ring, span
from ringcodes.ring import augmented, echelon, echelon_size, echelon_words, reduced

FAMILIES = (
    "Z/4",
    "Z/8",
    "Z/12",
    "Z/25",
    "Z/36",
    "Z/4[x]/(x^2+x+1)",  # GR(4,2)
    "Z/9[x]/(x^2+x+2)",  # GR(9,2)
    "Z/3[x]/(x^2+x+2)[y]/(y^2)",  # the ramified f9_tower
    "Z/2[x]/(x^2)[y]/(y^2)",
    "Z/6[x]/(x^2+1)",
    "Z/4[x]/(x^3+x+1)",
)

#: Largest |R|^m the codes may live in.
SPACE_CAP = 1296

#: Largest code the pairwise naive closure is run on.
NAIVE_CAP = 200

#: Largest |R|^m * |C| the codeword-by-codeword dual oracle may take.
ORACLE_CAP = 20_000

EXAMPLES = settings(max_examples=15, deadline=None, database=None, derandomize=True)


@pytest.fixture(scope="module")
def families():
    return {name: (ring, list(ring.elements())) for name in FAMILIES
            for ring in [parse_ring(name)]}


def _draw_code(data, ring, elems, m):
    """Up to three generators, each a random vector, half the time scaled
    by a random element so that proper submodules turn up."""
    gens = []
    for _ in range(data.draw(st.integers(0, 3))):
        v = [data.draw(st.sampled_from(elems)) for _ in range(m)]
        if data.draw(st.booleans()):
            scalar = data.draw(st.sampled_from(elems))
            v = [scalar * c for c in v]
        gens.append(v)
    return span(ring, m, gens), gens


def _draw_length(data, ring):
    m = 1
    while ring.cardinality ** (m + 1) <= SPACE_CAP and m < 3:
        m += 1
    return data.draw(st.integers(1, m))


def _refusal(thunk):
    """The refusal message of thunk(), or None if it succeeds."""
    try:
        thunk()
    except BudgetExceededError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("family", FAMILIES)
@EXAMPLES
@given(data=st.data())
def test_size_and_words_match_the_closures(family, families, data):
    ring, elems = families[family]
    m = _draw_length(data, ring)
    code, gens = _draw_code(data, ring, elems, m)
    words = orbit_closure(code)
    assert code.cardinality == len(words)
    assert element_words(code) == words
    # The listing holds each word once: as many entries as words.
    listed = echelon_words(ring.characteristic, code._module(), m * ring.width)
    assert len(listed) == len(set(listed)) == code.cardinality
    if len(words) <= NAIVE_CAP:
        assert code.codewords() == naive_span(ring, m, gens)


@pytest.mark.parametrize("family", FAMILIES)
@EXAMPLES
@given(data=st.data())
def test_dual_matches_the_naive_dual(family, families, data):
    ring, elems = families[family]
    m = _draw_length(data, ring)
    code, _ = _draw_code(data, ring, elems, m)
    dual = code.dual()
    assert len(dual.generators) <= m * ring.width
    brute = code.dual_bruteforce()
    assert dual == brute
    assert code.is_self_dual() == (code == brute)
    if ring.cardinality**m * code.cardinality <= ORACLE_CAP:
        assert dual.codewords() == naive_dual(code)
    assert dual.dual() == code


@pytest.mark.parametrize("family", FAMILIES)
@EXAMPLES
@given(data=st.data())
def test_containment_and_equality_match_word_sets(family, families, data):
    ring, elems = families[family]
    m = _draw_length(data, ring)
    c, _ = _draw_code(data, ring, elems, m)
    d, _ = _draw_code(data, ring, elems, m)
    if data.draw(st.booleans()):
        # Add C's generators to D, so that containment and equality hold too.
        d = span(ring, m, list(d.generators) + list(c.generators))
    c_words, d_words = orbit_closure(c), orbit_closure(d)
    assert c.is_subcode(d) == (c_words <= d_words)
    assert d.is_subcode(c) == (d_words <= c_words)
    assert (c == d) == (c_words == d_words)
    for v in (data.draw(st.sampled_from(sorted(d_words))),
              tuple(data.draw(st.sampled_from(elems)).raw for _ in range(m))):
        assert c.contains([RingElement(ring, x) for x in v]) == (v in c_words)


@pytest.mark.parametrize("family", FAMILIES)
@EXAMPLES
@given(data=st.data())
def test_least_words_are_the_first_sorted_words(family, families, data):
    ring, elems = families[family]
    m = _draw_length(data, ring)
    code, _ = _draw_code(data, ring, elems, m)
    for c in (code, code.dual()):
        words = sorted(c._close_span())
        for count in (1, 8, 9, 65):
            assert c._least_words(count) == words[:count]


@pytest.mark.parametrize("family", FAMILIES)
@EXAMPLES
@given(data=st.data())
def test_closure_budget_threshold_matches_the_orbit_closure(family, families, data):
    # A walk is charged the words the orbit closure builds, and only a walk.
    ring, elems = families[family]
    m = _draw_length(data, ring)
    code, gens = _draw_code(data, ring, elems, m)
    size = len(orbit_closure(code))
    for limit in (size - 1, size):
        if limit < 1:
            continue
        fresh = span(ring, m, gens)
        expected = None if limit == size else (
            f"enumerating the code needs {size} words, budget is {limit}"
        )
        with enumeration_budget(limit):
            assert _refusal(fresh.codewords) == expected
            assert _refusal(fresh.sorted_codewords) == expected
            assert _refusal(lambda: fresh._least_words(size)) == expected
            assert _refusal(
                lambda: (fresh.cardinality, fresh.is_self_dual(), fresh == code)) is None


@pytest.mark.parametrize("family", FAMILIES)
def test_dual_budget_is_nominal(family, families):
    ring, elems = families[family]
    m = 2 if ring.cardinality**2 <= SPACE_CAP else 1
    total = ring.cardinality**m
    code = span(ring, m, [[elems[1]] * m])
    with pytest.raises(BudgetExceededError) as err, enumeration_budget(total - 1):
        code.dual()
    assert str(err.value) == (
        f"dual enumeration needs {total} candidate vectors, budget is {total - 1}"
    )
    with enumeration_budget(total):
        assert code.dual() == code.dual_bruteforce()


def test_dual_of_a_large_dual_has_few_generators(z9):
    # The dual of (3Z/9)^6 has 3^6 = 729 words but at most m * width = 6
    # generators, so generator-pair predicates on it stay small.
    code = span(z9, 6, [[3 * (i == j) for j in range(6)] for i in range(6)])
    dual = code.dual()
    assert dual.cardinality == 729
    assert len(dual.generators) <= 6
    assert dual.is_self_orthogonal()


@pytest.mark.parametrize("n", [4, 8, 12, 25, 36])
@EXAMPLES
@given(data=st.data())
def test_augmented_form_reads_the_kernel_and_reduces(n, data):
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    m = [[data.draw(st.integers(0, n - 1)) for _ in range(cols)] for _ in range(rows)]
    form = augmented(n, m)
    lean = reduced(n, form)
    # Reducing keeps the span and the leading columns.
    assert sorted(lean) == sorted(form)
    assert echelon_size(n, lean) == echelon_size(n, echelon(n, lean.values(), form)) == n**rows
    for c, h in lean.items():
        assert not any(h[:c])
        if math.gcd(h[c], n) == 1:
            assert h[c] == 1 and all(g[c] == 0 for d, g in lean.items() if d != c)
    # The rows leading past M span exactly {x : xM = 0}.
    kernel = [h[cols:] for c, h in lean.items() if c >= cols]
    assert all(sum(a * b for a, b in zip(x, col)) % n == 0 for x in kernel for col in zip(*m))
    naive = sum(
        all(sum(a * b for a, b in zip(x, col)) % n == 0 for col in zip(*m))
        for x in product(range(n), repeat=rows)
    )
    assert echelon_size(n, echelon(n, kernel)) == naive
    # With no row past a square M, the rows at its columns are [I | M^-1].
    if rows == cols and not kernel:
        inverse = [lean[c][cols:] for c in range(cols)]
        assert all(
            sum(inverse[i][k] * m[k][j] for k in range(rows)) % n == (i == j)
            for i in range(rows) for j in range(cols)
        )
