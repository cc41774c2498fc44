"""Refusals of the library API that no other test reaches: the exception
type and the exact message of each."""

import pytest

from ringcodes import (
    BudgetExceededError,
    ConditionResult,
    Conclusion,
    GramShape,
    IntegerResidueRing,
    InvalidParameterError,
    LinearCode,
    MPCReport,
    MPCSpec,
    Matrix,
    NotApplicableError,
    NotationError,
    QuotientExtensionRing,
    RingMismatchError,
    ShapeError,
    enumeration_budget,
    galois_ring,
    inner_product,
    mpc_dual_theorem,
    span,
)
from ringcodes.scenarios import run_scenario, scenario_ids

Z5, Z7, Z25 = IntegerResidueRing(5), IntegerResidueRing(7), IntegerResidueRing(25)


def _report_citing_a_failed_condition():
    return MPCReport(
        GramShape("other", None),
        (ConditionResult("lemma-ca-4", False, "the input codes are not all equal"),),
        (Conclusion("Equivalence", "lemma-ca-4"),),
    )


def _unknown_condition():
    report = MPCReport(GramShape("other", None), (), ())
    return report.condition("nope")


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: Z5.element(Z7.one), RingMismatchError, "element of Z/7 is not in Z/5"),
        (lambda: Z5.element([1]), InvalidParameterError,
         "cannot interpret [1] as an element of Z/5"),
        (lambda: Z5.element("x"), InvalidParameterError,
         "cannot interpret 'x' as an element of Z/5"),
        (lambda: galois_ring(2, 2, 2).element("x"), InvalidParameterError,
         "cannot interpret 'x' as an element of Z/4[x]/(x^2+x+1)"),
        (lambda: QuotientExtensionRing(5, [1, 1]), InvalidParameterError, "base must be a Ring"),
        (lambda: galois_ring(2, 0, 1), InvalidParameterError, "n and r must be positive"),
        (lambda: galois_ring(29, 1, 2), InvalidParameterError,
         "no default degree-2 modulus shipped for p = 29"),
        (lambda: span(Z5, 2, [5]), InvalidParameterError, "expected a coordinate sequence, got 5"),
        (lambda: inner_product([], []), ShapeError, "inner product needs nonempty vectors"),
        (lambda: Matrix(Z5, [[1]]) @ Matrix(Z7, [[1]]), RingMismatchError,
         "matrix product needs a common ring"),
        (lambda: Matrix(Z5, [[1, 2]]) @ Matrix(Z5, [[1, 2]]), ShapeError,
         "cannot multiply 1x2 by 1x2"),
        (lambda: MPCSpec((), Matrix(Z5, [[1]])), InvalidParameterError,
         "at least one input code is required"),
        (_report_citing_a_failed_condition, InvalidParameterError,
         "conclusion Equivalence cites lemma-ca-4, which did not hold"),
        (_unknown_condition, KeyError, "'nope'"),
    ],
    ids=["foreign-element", "list-over-z5", "text-over-z5", "text-over-gr42",
         "base-not-a-ring", "galois-n-0", "galois-p-29-degree-2", "vector-not-a-sequence",
         "empty-inner-product", "matmul-across-rings", "matmul-shapes", "no-input-codes",
         "conclusion-cites-a-failed-condition", "unknown-condition"],
)
def test_rare_refusals_keep_their_type_and_message(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message


def test_a_raw_generator_of_the_wrong_length_is_refused():
    with pytest.raises(ShapeError) as caught:
        LinearCode._from_raws(Z5, 2, [(1,)])
    assert str(caught.value) == "vector has 1 coordinates, expected 2"


SCENARIO_FORMS = (
    "ex1", "ex2", "z25-selfdual", "prime-square:<p>", "lemma-diag1:<ring>:<u>",
    "lemma-adiag1:<ring>", "lemma-adiag3:<ring>",
)


def test_scenario_ids_are_the_forms_in_order():
    assert scenario_ids() == SCENARIO_FORMS


@pytest.mark.parametrize(
    "scenario_id,error,message",
    [
        *((near, InvalidParameterError,
           f"unknown scenario {near!r}; known: {', '.join(SCENARIO_FORMS)}")
          for near in ("ex1:", "ex", "prime-square", "lemma-adiag1x:Z/5")),
        ("prime-square:", InvalidParameterError, "p must be an integer, got ''"),
        ("lemma-diag1:Z/5", InvalidParameterError,
         "scenario 'lemma-diag1:Z/5' needs the form lemma-diag1:<ring>:<u>"),
        ("lemma-adiag3:<ring>", NotationError, "unexpected character '<' (line 1, column 1)"),
    ],
)
def test_a_near_miss_scenario_id_is_refused(scenario_id, error, message):
    # An id runs only the scenario whose form it is, or whose form begins
    # with the id's text up to its first ':' and then ':<'.
    with pytest.raises(error) as caught:
        run_scenario(scenario_id)
    assert type(caught.value) is error and str(caught.value) == message


_Z25_CODES = (span(Z25, 2, [[1, 7]]),) * 2


@pytest.mark.parametrize(
    "codes,rows,error,message",
    [
        (_Z25_CODES[:1], [[1, 7]], NotApplicableError,
         "the dual construction requires a square matrix"),
        (_Z25_CODES, [[1, 5], [5, 0]], NotApplicableError,
         "the dual construction requires a non-singular matrix; "
         "A does not have full rank, so det(A) is not a unit"),
        (_Z25_CODES, [[1, 7], [7, 1]], BudgetExceededError,
         "dual enumeration needs 625 candidate vectors, budget is 1"),
    ],
    ids=["rectangular", "singular", "non-singular"],
)
def test_the_dual_theorem_refuses_its_matrix_before_any_charge(codes, rows, error, message):
    # Only a square non-singular A reaches the first input dual's charge.
    with pytest.raises(error) as caught, enumeration_budget(1):
        mpc_dual_theorem(MPCSpec(codes, Matrix(Z25, rows)))
    assert type(caught.value) is error and str(caught.value) == message
