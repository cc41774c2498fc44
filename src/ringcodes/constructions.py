"""Certified constructors for the special combining matrices.

Each constructor checks its ring-specific hypotheses up front (raising
:class:`HypothesisViolationError` naming the failed one), builds the
matrix, then *recomputes* the Gram classification and the row-code
minimum distances and compares them with the stated certificate.  A
certificate is therefore always machine-verified at construction time,
never asserted.

When no ``u`` is supplied, the square root of -1 found first in
enumeration order is used, a search charged |R|; rings without one are
rejected.  Every charge is checked against the enclosing
:func:`ring.enumeration_budget`.
"""

from __future__ import annotations

from .code import _WALK_REFUSAL, LinearCode, span
from .errors import CertificateError, HypothesisViolationError, InvalidParameterError
from .matrix import ANTI_DIAGONAL, DIAGONAL, GramShape, Matrix, _profile
from .mpc import _charge_row_scan, row_code_min_distances
from .records import Record
from .ring import (
    _ECHO_DIGITS,
    _LIMIT,
    MAX_DIGITS,
    TOO_LONG,
    IntegerResidueRing,
    Ring,
    RingElement,
    _prime_divisors,
    charge,
)

HYP_TWO_NOT_ZERO_DIVISOR = "2 is not a zero divisor"
HYP_TWO_UNIT = "2 is a unit"
HYP_U_NOT_ZERO_DIVISOR = "u is not a zero divisor"
HYP_U_SQUARES_TO_MINUS_ONE = "u^2 = -1"


class CertifiedMatrix(Record):
    """A combining matrix bundled with its verified certificate."""

    __slots__ = ("matrix", "gram", "deltas", "hypotheses")
    matrix: Matrix
    gram: GramShape
    deltas: tuple[int, ...]
    hypotheses: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "ring": self.matrix.ring.description(),
            "matrix": [[str(e) for e in row] for row in self.matrix.entries],
            "gram": self.gram.to_json_dict(),
            "deltas": list(self.deltas),
            "hypotheses": list(self.hypotheses),
        }


def _resolve_u(ring: Ring, u, hypotheses: tuple[str, ...]) -> RingElement:
    """u, or the first square root of -1 if None, once it meets ``hypotheses``."""
    if u is None:
        u = ring.find_square_root_of_minus_one()
        if u is None:
            raise HypothesisViolationError(
                HYP_U_SQUARES_TO_MINUS_ONE,
                f"-1 has no square root in {ring.description()} and no u was supplied",
            )
    else:
        u = ring.element(u)
    _require(ring, u, hypotheses)
    return u


#: Each hypothesis as (its test of (ring, u), the reason it fails), the
#: reason formatted with the ring, u, u^2 and -1.
_HYPOTHESES = {
    HYP_TWO_NOT_ZERO_DIVISOR: (
        lambda ring, u: not ring.from_int(2).is_zero_divisor(), "2 is a zero divisor in {ring}"),
    HYP_TWO_UNIT: (lambda ring, u: ring.from_int(2).is_unit(), "2 is not a unit in {ring}"),
    HYP_U_NOT_ZERO_DIVISOR: (
        lambda ring, u: not u.is_zero_divisor(), "u = {u} is a zero divisor in {ring}"),
    HYP_U_SQUARES_TO_MINUS_ONE: (
        lambda ring, u: u * u == -ring.one, "({u})^2 = {square} != {minus_one}"),
}


def _require(ring: Ring, u: RingElement, names: tuple[str, ...]) -> None:
    """Raise :class:`HypothesisViolationError` for the first failing name."""
    for name in names:
        holds, why = _HYPOTHESES[name]
        if not holds(ring, u):
            reason = why.format(ring=ring, u=u, square=u * u, minus_one=-ring.one)
            raise HypothesisViolationError(name, reason)


def _certify(
    matrix: Matrix,
    tag: str,
    lambdas: tuple[RingElement, ...],
    deltas: tuple[int, ...],
    hypotheses: tuple[str, ...],
) -> CertifiedMatrix:
    stated = GramShape(tag, lambdas)
    # The stated shape's own profile: a Gram that is both diagonal and
    # anti-diagonal (a zero one, say) has either shape.
    if _profile(matrix.gram(), tag == ANTI_DIAGONAL) != lambdas:
        raise CertificateError(
            f"recomputed Gram shape {matrix.classify_gram().to_json_dict()} "
            f"does not match the stated {stated.to_json_dict()}"
        )
    computed = row_code_min_distances(matrix)
    if computed != deltas:
        raise CertificateError(
            f"recomputed row-code distances {computed} do not match the stated {deltas}"
        )
    return CertifiedMatrix(matrix, stated, deltas, hypotheses)


def diag1_matrix(ring: Ring, u=None) -> CertifiedMatrix:
    """[[1, u, 1], [-1, 0, 1]] with Gram diag(2 + u^2, 2) and row distances (3, 2).

    Needs 2 and u to be non-zero-divisors.
    """
    hypotheses = (HYP_TWO_NOT_ZERO_DIVISOR, HYP_U_NOT_ZERO_DIVISOR)
    u = _resolve_u(ring, u, hypotheses)
    one = ring.one
    a = Matrix(ring, [[one, u, one], [-one, ring.zero, one]])
    lambdas = (ring.from_int(2) + u * u, ring.from_int(2))
    return _certify(a, DIAGONAL, lambdas, (3, 2), hypotheses)


def adiag1_matrix_a(ring: Ring, u=None) -> CertifiedMatrix:
    """[[1, 0, u], [0, 1, u]] with Gram adiag(-1, -1) and row distances (2, 2).

    Needs u^2 = -1.
    """
    hypotheses = (HYP_U_SQUARES_TO_MINUS_ONE,)
    u = _resolve_u(ring, u, hypotheses)
    one, zero = ring.one, ring.zero
    a = Matrix(ring, [[one, zero, u], [zero, one, u]])
    return _certify(a, ANTI_DIAGONAL, (-one, -one), (2, 2), hypotheses)


def adiag1_matrix_b(ring: Ring, u=None) -> CertifiedMatrix:
    """[[1, u, 0, 1, u], [u, 1, u, 0, 1]] with Gram adiag(3u, 3u) and row
    distances (4, 3).

    Needs u^2 = -1 and 2 not a zero divisor.
    """
    hypotheses = (HYP_U_SQUARES_TO_MINUS_ONE, HYP_TWO_NOT_ZERO_DIVISOR)
    u = _resolve_u(ring, u, hypotheses)
    one, zero = ring.one, ring.zero
    b = Matrix(ring, [[one, u, zero, one, u], [u, one, u, zero, one]])
    three_u = ring.from_int(3) * u
    return _certify(b, ANTI_DIAGONAL, (three_u, three_u), (4, 3), hypotheses)


def adiag3_matrix(ring: Ring, u=None) -> CertifiedMatrix:
    """[[1, u], [u, 1]] with Gram adiag(2u, 2u) and row distances (2, 1).

    Needs 2 a unit and u^2 = -1.
    """
    return block_adiag_matrix(ring, u, 2)


def block_adiag_matrix(ring: Ring, u=None, s: int = 2) -> CertifiedMatrix:
    """The s x s matrix with 1 on the diagonal and u on the anti-diagonal
    (middle row bare for odd s).

    Gram is adiag(2u, ..., 2u) for even s and adiag(2u, ..., 2u, 1, 2u,
    ..., 2u) for odd s; the first floor(s/2) row distances are 2 for even
    s (the first (s-1)/2 for odd s) and the remaining ones are 1.  Needs
    2 a unit and u^2 = -1.
    """
    if s < 2:
        raise InvalidParameterError("block size s must be >= 2")
    hypotheses = (HYP_TWO_UNIT, HYP_U_SQUARES_TO_MINUS_ONE)
    u = _resolve_u(ring, u, hypotheses)
    # Refuse an over-budget row scan before building an s x s matrix.
    _charge_row_scan(ring.cardinality, s)
    one, zero = ring.one, ring.zero
    # The middle row of an odd s meets the anti-diagonal on the diagonal.
    a = Matrix(ring, [
        [one if j == i else u if j == s - 1 - i else zero for j in range(s)] for i in range(s)
    ])
    two_u = ring.from_int(2) * u
    if s % 2 == 0:
        lambdas = (two_u,) * s
        deltas = (2,) * (s // 2) + (1,) * (s // 2)
    else:
        lambdas = (two_u,) * (s // 2) + (one,) + (two_u,) * (s // 2)
        deltas = (2,) * (s // 2) + (1,) * (s - s // 2)
    return _certify(a, ANTI_DIAGONAL, lambdas, deltas, hypotheses)


def prime_square_codes(p: int) -> tuple[Ring, LinearCode, LinearCode]:
    """Over Z/p^2 (p prime, p = 1 mod 4): the repetition code generated by
    the all-ones vector and the one generated by the all-p vector.

    Both have length p and minimum distance p, and each is contained in
    the other's dual; all three facts are verified before returning.
    """
    # Weighing the all-ones code walks its p^2 words; refusing p^2 over the
    # budget up front keeps trial division and length-p vectors off a huge p.
    if p * p <= _LIMIT.get() and not (p >= 2 and _prime_divisors(p) == {p}):
        raise InvalidParameterError(f"p must be prime, got {p}")
    if p % 4 != 1:
        if abs(p) < 10**_ECHO_DIGITS:
            got = p
        else:
            digits = f"more than {MAX_DIGITS}" if abs(p) >= TOO_LONG else len(str(abs(p)))
            got = f"an integer of {digits} digits that is {p % 4} mod 4"
        raise InvalidParameterError(f"p must be congruent to 1 mod 4, got {got}")
    charge(p * p, _WALK_REFUSAL)
    ring = IntegerResidueRing(p * p)
    ones = span(ring, p, [[1] * p])
    ps = span(ring, p, [[p] * p])
    if ones.min_distance() != p or ps.min_distance() != p:
        raise CertificateError("repetition codes failed their distance check")
    if not ones.is_orthogonal_to(ps):
        raise CertificateError("the two repetition codes are not mutually orthogonal")
    return ring, ones, ps
