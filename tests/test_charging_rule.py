"""The charging rule of :mod:`ringcodes.code`, over every ring family of
the fixtures: a question answered from an echelon form (sizes, the size
of the dual's kernel, containment, equality, self-duality, full rank, the
condition report) is never charged, so it is answered at budget 1 and
agrees with brute force; a walk over the words of C is charged exactly
|C|, so it is refused at budget |C| - 1, naming |C|, and runs at budget
|C|.  Every charge, on an input code or on anything built from an
:class:`MPCSpec`, is checked against the :func:`enumeration_budget`
enclosing the call that makes it, not the one in force when the code was
built."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_inner, naive_span
from ringcodes import (
    BudgetExceededError,
    Matrix,
    MPCSpec,
    NotApplicableError,
    build_mpc,
    check_conditions,
    enumeration_budget,
    hamming_weight,
    min_distance_lower_bound,
    mpc_dual_theorem,
    span,
)

FAMILIES = ("z4", "z5", "z6", "z8", "z9", "z12", "z13", "z20", "z25", "gr92", "f9_tower")

#: Largest |R|^m the codes may live in, so that a naive dual scans at most
#: |R|^m * |C| <= 169^2 pairs.
SPACE_CAP = 169

EXAMPLES = settings(max_examples=12, deadline=None, database=None, derandomize=True)


@pytest.fixture(scope="module")
def families(request):
    return {
        name: (ring, list(ring.elements()))
        for name in FAMILIES
        for ring in [request.getfixturevalue(name)]
    }


def _draw_gens(data, ring, elems, m):
    """Up to two generators, each half the time scaled by a random element
    so that proper submodules turn up."""
    gens = []
    for _ in range(data.draw(st.integers(0, 2))):
        v = [data.draw(st.sampled_from(elems)) for _ in range(m)]
        if data.draw(st.booleans()):
            scalar = data.draw(st.sampled_from(elems))
            v = [scalar * c for c in v]
        gens.append(v)
    return gens


def _draw_length(data, ring):
    m = 1
    while ring.cardinality ** (m + 1) <= SPACE_CAP and m < 3:
        m += 1
    return data.draw(st.integers(1, m))


def _naive_dual(ring, elems, m, words):
    zero = ring.zero
    return frozenset(
        x for x in product(elems, repeat=m)
        if all(naive_inner(ring, x, w) == zero for w in words)
    )


@pytest.mark.parametrize("family", FAMILIES)
@EXAMPLES
@given(data=st.data())
def test_echelon_questions_are_answered_at_budget_1(family, families, data):
    ring, elems = families[family]
    m = _draw_length(data, ring)
    gens_c, gens_d = _draw_gens(data, ring, elems, m), _draw_gens(data, ring, elems, m)
    if data.draw(st.booleans()):
        gens_d = gens_d + gens_c  # so that containment and equality turn up
    c, d = span(ring, m, gens_c), span(ring, m, gens_d)
    c_words, d_words = naive_span(ring, m, gens_c), naive_span(ring, m, gens_d)
    c_dual, d_dual = (_naive_dual(ring, elems, m, w) for w in (c_words, d_words))
    with enumeration_budget(1):
        assert c.cardinality == len(c_words)
        assert c._dual_size() == len(c_dual)
        assert c.is_self_dual() == (c_words == c_dual)
        assert c.is_subcode(d) == (c_words <= d_words)
        assert (c == d) == (c_words == d_words)
        v = tuple(data.draw(st.sampled_from(elems)) for _ in range(m))
        assert c.contains(v) == (v in c_words)
        if gens_c and ring.cardinality ** len(gens_c) <= SPACE_CAP:
            a = Matrix(ring, gens_c)
            kernel = [
                x for x in product(elems, repeat=a.rows)
                if any(x) and all(
                    naive_inner(ring, x, col) == ring.zero for col in zip(*a.entries))
            ]
            assert a.has_full_rank() == (not kernel)

        one, zero = ring.one, ring.zero
        matrix = Matrix(ring, data.draw(st.sampled_from([
            [[one, zero], [zero, one]],
            [[zero, one], [one, zero]],
            [[one, data.draw(st.sampled_from(elems))], [zero, one]],
            [[one, zero], [data.draw(st.sampled_from(elems)), one]],
        ])))
        report = check_conditions(MPCSpec((c, d), matrix))
        verdicts = {r.condition_id: r.holds for r in report.conditions}
        upper, lower = matrix.entry(1, 0).is_zero(), matrix.entry(0, 1).is_zero()
        gram = matrix.gram()
        unit_adiag = gram.entry(0, 0).is_zero() and gram.entry(1, 1).is_zero() and all(
            gram.entry(i, 1 - i).is_unit() for i in range(2))
        assert verdicts["lemma-ca-1"] == (upper and c_words <= d_words)
        assert verdicts["lemma-ca-2"] == (lower and d_words <= c_words)
        assert verdicts["lemma-ca-4"] == (c_words == d_words)
        assert verdicts["cor-orthog-3"] == (
            matrix.is_orthogonal() and c_words == c_dual and d_words == d_dual)
        assert verdicts["thm-self-dual"] == (
            unit_adiag and c_words == d_dual and d_words == c_dual)


@pytest.mark.parametrize("family", FAMILIES)
@EXAMPLES
@given(data=st.data())
def test_walks_are_charged_exactly_the_word_count(family, families, data):
    ring, elems = families[family]
    m = _draw_length(data, ring)
    gens = _draw_gens(data, ring, elems, m)
    words = naive_span(ring, m, gens)
    size = len(words)
    code = span(ring, m, gens)
    if size > 1:
        for walk in (code.codewords, code.min_distance):
            with pytest.raises(BudgetExceededError) as err, enumeration_budget(size - 1):
                walk()
            assert str(err.value) == (
                f"enumerating the code needs {size} words, budget is {size - 1}"
            )
        with enumeration_budget(size):
            assert code.min_distance() == min(hamming_weight(w) for w in words if any(w))
    with enumeration_budget(size):
        assert code.codewords() == words


# -- products are charged to the enclosing budget ---------------------------------------


def _z25_spec(z25):
    """span{(1,7)} over Z/25 twice, under a non-singular 2 x 2 matrix: a
    625-word product whose row scan needs 25 + 625 = 650 tuples, and whose
    theorem dual charges 25^2 = 625 candidates for each input dual."""
    codes = (span(z25, 2, [[1, 7]]),) * 2
    return MPCSpec(codes, Matrix(z25, [[1, 7], [7, 1]]))


def test_product_walks_are_charged_to_the_enclosing_budget(z25):
    mpc = build_mpc(_z25_spec(z25))
    with pytest.raises(BudgetExceededError) as err, enumeration_budget(624):
        mpc.min_distance()
    assert str(err.value) == "enumerating the code needs 625 words, budget is 624"
    with enumeration_budget(625):
        assert mpc.min_distance() == 2


@pytest.mark.parametrize("built,walked", [(624, 10**6), (10**6, 624)])
def test_the_budget_at_the_walk_governs_not_the_one_at_the_build(z25, built, walked):
    with enumeration_budget(built):
        mpc = build_mpc(_z25_spec(z25))
    with enumeration_budget(walked):
        if walked < 625:
            with pytest.raises(BudgetExceededError, match="needs 625 words, budget is 624"):
                mpc.codewords()
        else:
            assert len(mpc.codewords()) == 625


def test_distance_bound_row_scan_is_charged_to_the_enclosing_budget(z25):
    spec = _z25_spec(z25)
    with pytest.raises(BudgetExceededError) as err, enumeration_budget(649):
        min_distance_lower_bound(spec)
    assert str(err.value) == "row-code scans need 650 coefficient tuples, budget is 649"
    with enumeration_budget(650):
        assert min_distance_lower_bound(spec) == 2


def test_theorem_dual_refuses_a_singular_matrix_before_charging(z25):
    # The inverse decides non-singularity before any input dual is charged,
    # so a singular A is refused even where the duals would not fit.
    codes = (span(z25, 2, [[1, 7]]),) * 2
    with pytest.raises(NotApplicableError) as err, enumeration_budget(1):
        mpc_dual_theorem(MPCSpec(codes, Matrix(z25, [[1, 5], [5, 0]])))
    assert str(err.value) == (
        "the dual construction requires a non-singular matrix; "
        "A does not have full rank, so det(A) is not a unit"
    )


def test_theorem_duals_are_charged_to_the_enclosing_budget(z25):
    # Each input dual is charged 25^2 = 625 candidates.
    spec = _z25_spec(z25)
    with pytest.raises(BudgetExceededError) as err, enumeration_budget(624):
        mpc_dual_theorem(spec)
    assert str(err.value) == "dual enumeration needs 625 candidate vectors, budget is 624"
    with enumeration_budget(625):
        dual = mpc_dual_theorem(spec)
    assert dual == build_mpc(spec).dual_bruteforce()
