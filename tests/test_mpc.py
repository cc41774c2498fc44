"""Matrix-product construction, the closed-form dual, condition reports,
row codes, the distance bound, and generator matrices."""

import pickle
import random

import pytest

from oracles import element_words, literal_self_mpc, mpc_by_product
from ringcodes import (
    EQUIVALENCE,
    Conclusion,
    ConditionResult,
    GramShape,
    InconsistentInputError,
    Matrix,
    MPCSpec,
    NotApplicableError,
    RingMismatchError,
    SELF_DUAL,
    SELF_ORTHOGONAL,
    ShapeError,
    UndefinedDistanceError,
    adiag3_matrix,
    build_mpc,
    check_conditions,
    diag1_matrix,
    enumeration_budget,
    min_distance_lower_bound,
    mpc_dual_theorem,
    mpc_generator_matrix,
    row_code_min_distances,
    row_codes,
    span,
)
from ringcodes.ring import Ring


@pytest.fixture(scope="module")
def ex1(z20):
    c1 = span(z20, 1, [[10]])
    c2 = span(z20, 1, [[4]])
    return MPCSpec((c1, c2), Matrix(z20, [[1, 2], [0, 0]]))


@pytest.fixture(scope="module")
def z25_selfdual(z25):
    c = span(z25, 2, [[1, 7]])
    return MPCSpec((c, c), Matrix(z25, [[1, 7], [7, 1]]))


def test_spec_validation(z20, z25):
    c = span(z20, 1, [[10]])
    with pytest.raises(ShapeError):
        MPCSpec((c,), Matrix(z20, [[1, 2], [0, 0]]))  # 2 rows, 1 code
    with pytest.raises(RingMismatchError):
        MPCSpec((span(z25, 1, [[5]]), c), Matrix(z20, [[1, 2], [0, 0]]))
    with pytest.raises(ShapeError):
        MPCSpec((c, c), Matrix(z20, [[1], [2]]))  # s > l
    with pytest.raises(ShapeError):
        MPCSpec((c, span(z20, 2, [[1, 1]])), Matrix(z20, [[1, 2], [0, 0]]))


def test_build_mpc_golden_ex1(ex1):
    assert element_words(build_mpc(ex1)) == {(0, 0), (10, 0)}


def test_build_mpc_golden_ex2(z20):
    c1 = span(z20, 1, [[10]])
    c2 = span(z20, 1, [[4]])
    b = Matrix(z20, [[0, 2, 0, 4], [0, 4, 2, 0]])
    assert element_words(build_mpc(MPCSpec((c1, c2), b))) == {
        (0, 0, 0, 0), (0, 16, 8, 0), (0, 12, 16, 0), (0, 8, 4, 0), (0, 4, 12, 0)
    }
    assert element_words(build_mpc(MPCSpec((c2, c1), b))) == {
        (0, 0, 0, 0), (0, 8, 0, 16), (0, 16, 0, 12), (0, 4, 0, 8), (0, 12, 0, 4)
    }


def test_build_mpc_identity_concatenates(z20):
    c1 = span(z20, 1, [[10]])
    c2 = span(z20, 1, [[4]])
    mpc = build_mpc(MPCSpec((c1, c2), Matrix.identity(z20, 2)))
    assert mpc.codewords() == {
        w1 + w2 for w1 in c1.codewords() for w2 in c2.codewords()
    }


@pytest.mark.parametrize("ring_name", ["z4", "z6", "z9"])
def test_build_mpc_matches_product_enumeration(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    rng = random.Random(321)
    elems = list(ring.elements())
    for _ in range(10):
        m = rng.randint(1, 2)
        s = 2
        codes = tuple(
            span(ring, m, [[rng.choice(elems) for _ in range(m)]]) for _ in range(s)
        )
        a = Matrix(
            ring, [[rng.choice(elems) for _ in range(3)] for _ in range(s)]
        )
        spec = MPCSpec(codes, a)
        assert build_mpc(spec).codewords() == mpc_by_product(codes, a)


def test_dual_theorem_identity(z20):
    c1 = span(z20, 1, [[10]])
    c2 = span(z20, 1, [[4]])
    spec = MPCSpec((c1, c2), Matrix.identity(z20, 2))
    expected = build_mpc(
        MPCSpec(
            (c1.dual_bruteforce(), c2.dual_bruteforce()), Matrix.identity(z20, 2)
        )
    )
    assert mpc_dual_theorem(spec) == expected


def test_dual_theorem_golden_z25(z25_selfdual):
    assert mpc_dual_theorem(z25_selfdual) == build_mpc(z25_selfdual).dual_bruteforce()


def test_dual_theorem_echelons_its_matrix_once(z25, monkeypatch):
    # One echelon form of [A | I] gives A^-1 and decides A's rank, so no
    # echelon form of A alone is built.
    c = span(z25, 2, [[1, 7]])
    spec = MPCSpec((c, c), Matrix(z25, [[1, 7], [7, 1]]))
    calls = {"_span_echelon": 0, "_inverse_rows": 0}
    for name in calls:
        def counted(ring, *args, name=name, method=getattr(Ring, name)):
            calls[name] += 1
            return method(ring, *args)

        monkeypatch.setattr(Ring, name, counted)
    mpc_dual_theorem(spec)
    assert calls == {"_span_echelon": 0, "_inverse_rows": 1}


def test_dual_theorem_rejects_singular(ex1):
    with pytest.raises(NotApplicableError):
        mpc_dual_theorem(ex1)


def test_dual_theorem_rejects_non_square(z20):
    c = span(z20, 1, [[10]])
    spec = MPCSpec((c,), Matrix(z20, [[1, 2]]))
    with pytest.raises(NotApplicableError):
        mpc_dual_theorem(spec)


def test_row_codes_golden(z25):
    a = diag1_matrix(z25, 2).matrix
    codes = row_codes(a)
    assert codes[0] == span(z25, 3, [[1, 2, 1]])
    assert Matrix.identity(z25, 2) is not None
    first = row_codes(Matrix.identity(z25, 2))[0]
    assert first == span(z25, 2, [[1, 0]])
    b = adiag3_matrix(z25, 7).matrix
    assert row_codes(b)[1] == span(z25, 2, [[1, 7], [7, 1]])


def test_row_codes_reject_rank_deficient(z20):
    with pytest.raises(NotApplicableError):
        row_codes(Matrix(z20, [[1, 2], [0, 0]]))


@pytest.mark.parametrize(
    "ring_name,rows",
    [
        ("z25", [[1, 1, 1], [24, 0, 1]]),
        ("z13", [[1, 5, 0], [0, 1, 5]]),
        ("gr92", [[1, 0], [0, 1]]),
    ],
)
def test_streaming_row_distances_match_materialized(ring_name, rows, request):
    ring = request.getfixturevalue(ring_name)
    a = Matrix(ring, rows)
    streamed = row_code_min_distances(a)
    materialized = tuple(c.min_distance() for c in row_codes(a))
    assert streamed == materialized


def test_distance_bound_formulas(z25):
    c1 = span(z25, 2, [[1, 7]])   # d1 = 2
    c2 = span(z25, 2, [[5, 5]])   # d2 = 2
    diag = diag1_matrix(z25, 1).matrix
    assert min_distance_lower_bound(MPCSpec((c1, c2), diag)) == min(3 * 2, 2 * 2)
    adiag = adiag3_matrix(z25, 7).matrix
    assert min_distance_lower_bound(MPCSpec((c1, c2), adiag)) == min(2 * 2, 1 * 2)


def test_distance_bound_requires_full_rank_and_nonzero_inputs(z20, z25):
    c = span(z20, 1, [[10]])
    with pytest.raises(NotApplicableError):
        min_distance_lower_bound(MPCSpec((c, c), Matrix(z20, [[1, 2], [0, 0]])))
    zero = span(z25, 1, [])
    good = span(z25, 1, [[1]])
    with pytest.raises(UndefinedDistanceError):
        min_distance_lower_bound(MPCSpec((zero, good), Matrix.identity(z25, 2)))


def test_distance_bound_holds_on_golden_specs(z25_selfdual):
    bound = min_distance_lower_bound(z25_selfdual)
    assert build_mpc(z25_selfdual).min_distance() >= bound


def test_check_conditions_ex1(ex1):
    report = check_conditions(ex1)
    cond = report.condition("thm-self-orth-1")
    assert cond.holds is True
    # The second input is not self-orthogonal, but lambda_2 = 0 exempts it.
    assert not ex1.codes[1].is_self_orthogonal()
    assert report.justifications(SELF_ORTHOGONAL) == ["thm-self-orth-1"]
    assert report.condition("thm-self-orth-2").holds is False
    assert report.condition("thm-self-mpc").holds is False


def test_check_conditions_ex2_both_orders(z20):
    c1 = span(z20, 1, [[10]])
    c2 = span(z20, 1, [[4]])
    b = Matrix(z20, [[0, 2, 0, 4], [0, 4, 2, 0]])
    for codes in ((c1, c2), (c2, c1)):
        report = check_conditions(MPCSpec(codes, b))
        assert report.condition("thm-self-orth-2").holds is True
        assert "thm-self-orth-2" in report.justifications(SELF_ORTHOGONAL)


def test_check_conditions_z25(z25_selfdual):
    report = check_conditions(z25_selfdual)
    assert report.condition("thm-self-dual").holds is True
    assert "thm-self-dual" in report.justifications(SELF_DUAL)
    assert report.condition("lemma-ca-4").holds is True
    assert EQUIVALENCE in {c.property for c in report.conclusions}
    # Verified transfer: equal inputs, so the self-dual verdict also flows
    # through the equivalence route.
    assert "thm-self-mpc" in report.justifications(SELF_DUAL)


def test_check_conditions_orthogonal_matrix(z4):
    c = span(z4, 1, [[2]])  # self-dual: {0,2} equals its own dual
    swap = Matrix(z4, [[0, 1], [1, 0]])
    report = check_conditions(MPCSpec((c, c), swap))
    assert report.condition("cor-orthog-2").holds is True
    assert report.condition("cor-orthog-3").holds is True
    assert "cor-orthog-3" in report.justifications(SELF_DUAL)
    mpc = build_mpc(MPCSpec((c, c), swap))
    assert mpc.is_self_dual()


def test_check_conditions_lemma_cases(z9):
    small = span(z9, 1, [[3]])
    big = span(z9, 1, [[1]])
    upper = Matrix(z9, [[1, 2], [0, 4]])
    lower = Matrix(z9, [[1, 0], [2, 4]])
    diagonal = Matrix(z9, [[2, 0], [0, 4]])
    rep = check_conditions(MPCSpec((small, big), upper))
    assert rep.condition("lemma-ca-1").holds is True
    assert literal_self_mpc(MPCSpec((small, big), upper))
    rep = check_conditions(MPCSpec((big, small), lower))
    assert rep.condition("lemma-ca-2").holds is True
    rep = check_conditions(MPCSpec((small, big), diagonal))
    assert rep.condition("lemma-ca-3").holds is True
    rep = check_conditions(MPCSpec((small, small), upper))
    assert rep.condition("lemma-ca-4").holds is True


def test_check_conditions_literal_equality_route(z4):
    # Distinct codes, non-triangular matrix, yet the product coincides
    # with the concatenation; only the literal set comparison can see it.
    c1 = span(z4, 1, [[1]])
    c2 = span(z4, 1, [[2]])
    a = Matrix(z4, [[1, 2], [2, 1]])
    report = check_conditions(MPCSpec((c1, c2), a))
    for k in (1, 2, 3, 4):
        assert report.condition(f"lemma-ca-{k}").holds is False
    assert report.condition("thm-self-mpc").holds is True
    assert "thm-self-mpc" in report.justifications(EQUIVALENCE)


def test_check_conditions_decides_at_any_budget(z25, z25_selfdual):
    # Sizes, subcodes and equality come from echelon forms, which are never
    # charged: inputs at budget 1 get the report of inputs at the default
    # budget, every verdict decided.
    code = span(z25, 2, [[1, 7]])
    with enumeration_budget(1):
        report = check_conditions(MPCSpec((code, code), z25_selfdual.matrix))
    assert report.to_json_dict() == check_conditions(z25_selfdual).to_json_dict()
    assert report.condition("thm-self-dual").holds is True
    assert report.condition("lemma-ca-4").holds is True
    assert report.concludes(SELF_DUAL)


def test_report_soundness_small_random(z4, z6):
    rng = random.Random(2718)
    for ring in (z4, z6):
        elems = list(ring.elements())
        for _ in range(25):
            codes = tuple(
                span(ring, 1, [[rng.choice(elems)]]) for _ in range(2)
            )
            a = Matrix(ring, [[rng.choice(elems) for _ in range(2)] for _ in range(2)])
            spec = MPCSpec(codes, a)
            report = check_conditions(spec)
            mpc = build_mpc(spec)
            if report.concludes(SELF_ORTHOGONAL):
                assert mpc.is_self_orthogonal()
            if report.concludes(SELF_DUAL):
                assert mpc.is_self_dual()


def test_orthogonal_matrix_dual_identity(z4):
    # For orthogonal A the product of the duals under the same A is the
    # dual of the product.
    c1 = span(z4, 1, [[2]])
    c2 = span(z4, 1, [[1]])
    swap = Matrix(z4, [[0, 1], [1, 0]])
    spec = MPCSpec((c1, c2), swap)
    dual_spec = MPCSpec((c1.dual_bruteforce(), c2.dual_bruteforce()), swap)
    assert build_mpc(spec).dual_bruteforce() == build_mpc(dual_spec)


def test_orthogonal_matrix_dual_containing_inputs(z4):
    # Inputs containing their duals give a product containing its dual.
    full = span(z4, 1, [[1]])
    selfdual = span(z4, 1, [[2]])
    swap = Matrix(z4, [[0, 1], [1, 0]])
    spec = MPCSpec((full, selfdual), swap)
    for code in spec.codes:
        assert code.dual_bruteforce().is_subcode(code)
    mpc = build_mpc(spec)
    assert mpc.dual_bruteforce().is_subcode(mpc)


def test_generator_matrix_golden_z25(z25, z25_selfdual):
    g = Matrix(z25, [[1, 7]])
    gen = mpc_generator_matrix(z25_selfdual, [g, g])
    assert gen == Matrix(z25, [[1, 7, 7, 24], [7, 24, 1, 7]])
    # The rows span the product itself.
    rows = [gen.row(i) for i in range(gen.rows)]
    assert span(z25, 4, rows) == build_mpc(z25_selfdual)


def test_generator_matrix_identity_block_diagonal(z20):
    c1 = span(z20, 1, [[10]])
    c2 = span(z20, 1, [[4]])
    spec = MPCSpec((c1, c2), Matrix.identity(z20, 2))
    gen = mpc_generator_matrix(spec, [Matrix(z20, [[10]]), Matrix(z20, [[4]])])
    assert gen == Matrix(z20, [[10, 0], [0, 4]])


def test_generator_matrix_rejects_span_mismatch(z25, z25_selfdual):
    wrong = Matrix(z25, [[5, 5]])
    with pytest.raises(InconsistentInputError):
        mpc_generator_matrix(z25_selfdual, [wrong, wrong])


def test_generator_matrix_rejects_rank_deficient(z20):
    c = span(z20, 1, [[10]])
    spec = MPCSpec((c, c), Matrix(z20, [[1, 2], [0, 0]]))
    with pytest.raises(NotApplicableError):
        mpc_generator_matrix(spec, [Matrix(z20, [[10]])] * 2)


def test_generator_matrix_rejects_wrong_ring_and_shape(z20, z25, z25_selfdual):
    g = Matrix(z25, [[1, 7]])
    with pytest.raises(ShapeError, match="^expected 2 generator matrices, got 1$"):
        mpc_generator_matrix(z25_selfdual, [g])
    with pytest.raises(RingMismatchError, match="over the spec's ring"):
        mpc_generator_matrix(z25_selfdual, [g, Matrix(z20, [[1, 7]])])
    with pytest.raises(ShapeError, match="^generator matrix 2 has 3 columns, expected 2$"):
        mpc_generator_matrix(z25_selfdual, [g, Matrix(z25, [[1, 7, 0]])])


def test_generator_matrix_row_span_random(z5):
    rng = random.Random(31415)
    elems = list(z5.elements())
    units = [e for e in elems if e.is_unit()]
    for _ in range(10):
        g1 = Matrix(z5, [[rng.choice(units), rng.choice(elems)]])
        g2 = Matrix(z5, [[rng.choice(units), rng.choice(elems)]])
        codes = (span(z5, 2, [g1.row(0)]), span(z5, 2, [g2.row(0)]))
        a = Matrix(z5, [[1, rng.choice(elems)], [rng.choice(elems), 1]])
        if not a.has_full_rank():
            continue
        spec = MPCSpec(codes, a)
        gen = mpc_generator_matrix(spec, [g1, g2])
        rows = [gen.row(i) for i in range(gen.rows)]
        assert span(z5, 4, rows) == build_mpc(spec)
        assert gen.rows == 2


def test_report_lists_every_condition_in_fixed_order(ex1):
    from ringcodes import CONDITION_IDS

    report = check_conditions(ex1)
    assert tuple(c.condition_id for c in report.conditions) == CONDITION_IDS
    data = report.to_json_dict()
    assert set(data) == {"gram", "conditions", "conclusions"}
    assert [c["id"] for c in data["conditions"]] == list(CONDITION_IDS)


def test_records_are_immutable_values_of_their_own_class():
    # The report's records behave as frozen dataclasses did.
    held = ConditionResult("lemma-ca-4", True, "all input codes are equal")
    assert held == ConditionResult(condition_id="lemma-ca-4", holds=True,
                                   detail="all input codes are equal")
    assert hash(held) == hash(ConditionResult("lemma-ca-4", True, "all input codes are equal"))
    assert held != ("lemma-ca-4", True, "all input codes are equal")
    assert Conclusion("a", "b") != GramShape("a", "b")
    assert repr(Conclusion("a", "b")) == "Conclusion(property='a', justified_by='b')"
    assert pickle.loads(pickle.dumps(held)) == held
    with pytest.raises(AttributeError):
        held.holds = False
    with pytest.raises(AttributeError):
        del held.detail
    with pytest.raises(AttributeError):
        held.extra = 1


@pytest.mark.parametrize(
    "args,kwargs,message",
    [
        (("a", "b", "c"), {}, "takes 3 positional arguments but 4 were given"),
        (("a",), {}, "missing 1 required positional argument: 'justified_by'"),
        (("a",), {"property": "b"}, "got multiple values for argument 'property'"),
        (("a", "b"), {"extra": 1}, "got an unexpected keyword argument 'extra'"),
    ],
)
def test_records_refuse_missing_and_extra_fields(args, kwargs, message):
    # A record's constructor is generated from its fields; it refuses bad
    # arguments in the words of a frozen dataclass's.
    with pytest.raises(TypeError) as refused:
        Conclusion(*args, **kwargs)
    assert str(refused.value) == "Conclusion.__init__() " + message
