"""Refusals of the library API that no other test reaches: the exception
type and the exact message of each."""

import pytest

from ringcodes import (
    ConditionResult,
    Conclusion,
    GramShape,
    IntegerResidueRing,
    InvalidParameterError,
    MPCReport,
    MPCSpec,
    Matrix,
    QuotientExtensionRing,
    RingMismatchError,
    ShapeError,
    galois_ring,
    inner_product,
    span,
)

Z5, Z7 = IntegerResidueRing(5), IntegerResidueRing(7)


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
