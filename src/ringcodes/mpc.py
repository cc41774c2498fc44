"""Matrix-product codes and the sufficient conditions attached to them.

The matrix-product code of input codes C_1, ..., C_s (length m, common
ring) and an s x l matrix A has length m*l; its codewords are the
column-major flattenings

    (sum_i a_{i,1} c_i  ||  sum_i a_{i,2} c_i  ||  ...  ||  sum_i a_{i,l} c_i),

each block of length m.  That flattening is the single wire convention
used everywhere in this package.

:func:`check_conditions` evaluates the full battery of sufficient
conditions for self-orthogonality and self-duality (diagonal and
anti-diagonal Gram shapes, orthogonal matrices, the unit anti-diagonal
criterion, the four code-chain/matrix-shape cases under which the
product equals the plain concatenation construction, and the resulting
equivalence transfer) and reports every verdict, without short-circuiting,
as a diagnostic artifact.  Conditions whose evaluation would blow the
enumeration budget are reported as indeterminate (``holds`` is None)
rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .code import LinearCode, span
from .errors import (
    BudgetExceededError,
    InconsistentInputError,
    InvalidParameterError,
    NotApplicableError,
    RingMismatchError,
    ShapeError,
    UndefinedDistanceError,
)
from .matrix import (
    GramShape,
    Matrix,
    _antidiagonal_profile,
    _diagonal_profile,
    _gram_shape,
)
from .ring import IntegerResidueRing, RingElement, resolve_budget

SELF_ORTHOGONAL = "SelfOrthogonal"
SELF_DUAL = "SelfDual"
EQUIVALENCE = "Equivalence"

#: Stable condition identifiers, in report order.
CONDITION_IDS = (
    "thm-self-orth-1",
    "thm-self-orth-2",
    "cor-orthog-2",
    "cor-orthog-3",
    "thm-self-dual",
    "lemma-ca-1",
    "lemma-ca-2",
    "lemma-ca-3",
    "lemma-ca-4",
    "thm-self-mpc",
)


@dataclass(frozen=True)
class MPCSpec:
    """Input codes plus the combining matrix; validated on construction."""

    codes: tuple[LinearCode, ...]
    matrix: Matrix

    def __post_init__(self):
        codes = tuple(self.codes)
        object.__setattr__(self, "codes", codes)
        if not codes:
            raise InvalidParameterError("at least one input code is required")
        ring = self.matrix.ring
        m = codes[0].length
        for c in codes:
            if c.ring != ring:
                raise RingMismatchError("input codes and matrix need a common ring")
            if c.length != m:
                raise ShapeError("input codes must share a common length")
        if self.matrix.rows != len(codes):
            raise ShapeError(
                f"matrix has {self.matrix.rows} rows but {len(codes)} input codes given"
            )
        if self.matrix.rows > self.matrix.cols:
            raise ShapeError("the combining matrix must satisfy s <= l")

    @property
    def ring(self):
        return self.matrix.ring

    @property
    def s(self) -> int:
        return self.matrix.rows

    @property
    def l(self) -> int:
        return self.matrix.cols

    @property
    def m(self) -> int:
        return self.codes[0].length


@dataclass(frozen=True)
class ConditionResult:
    condition_id: str
    holds: Optional[bool]  # None: not decidable within budget
    detail: str


@dataclass(frozen=True)
class Conclusion:
    property: str
    justified_by: str


@dataclass(frozen=True)
class MPCReport:
    """Structured verdict: which conditions hold and what they imply."""

    gram: GramShape
    conditions: tuple[ConditionResult, ...]
    conclusions: tuple[Conclusion, ...]

    def __post_init__(self):
        held = {c.condition_id for c in self.conditions if c.holds is True}
        for conclusion in self.conclusions:
            if conclusion.justified_by not in held:
                raise InvalidParameterError(
                    f"conclusion {conclusion.property} cites {conclusion.justified_by}, "
                    "which did not hold"
                )

    def condition(self, condition_id: str) -> ConditionResult:
        for c in self.conditions:
            if c.condition_id == condition_id:
                return c
        raise KeyError(condition_id)

    def concludes(self, prop: str) -> bool:
        return any(c.property == prop for c in self.conclusions)

    def justifications(self, prop: str) -> list[str]:
        return [c.justified_by for c in self.conclusions if c.property == prop]

    def to_json_dict(self) -> dict:
        return {
            "gram": self.gram.to_json_dict(),
            "conditions": [
                {"id": c.condition_id, "holds": c.holds, "detail": c.detail}
                for c in self.conditions
            ],
            "conclusions": [
                {"property": c.property, "justified_by": c.justified_by}
                for c in self.conclusions
            ],
        }


def build_mpc(spec: MPCSpec, budget: Optional[int] = None) -> LinearCode:
    """The product code of length m*l, as the span of the input
    generators' images.

    The combining map is linear, so that span equals the full set of
    flattened products; no iteration over codeword tuples is needed.
    """
    ring = spec.ring
    limit = resolve_budget(budget)
    a = spec.matrix._raw_rows
    gens = []
    for i, code in enumerate(spec.codes):
        for g in code._gen_raws:
            vec: list = []
            for j in range(spec.l):
                vec.extend(ring._vscale(a[i][j], g))
            gens.append(tuple(vec))
    return LinearCode(ring, spec.m * spec.l, gens, limit)


def mpc_dual_theorem(spec: MPCSpec, budget: Optional[int] = None) -> LinearCode:
    """The dual of the matrix-product code, built as the matrix-product
    of the input duals under the inverse-transpose matrix.

    Requires a square non-singular combining matrix; the input duals come
    from brute-force enumeration.
    """
    a = spec.matrix
    if a.rows != a.cols:
        raise NotApplicableError("the dual construction requires a square matrix")
    if not a.is_nonsingular():
        raise NotApplicableError(
            f"the dual construction requires a non-singular matrix; "
            f"det = {a.determinant()} is not a unit"
        )
    limit = resolve_budget(budget)
    duals = tuple(c.dual_bruteforce(limit) for c in spec.codes)
    inverse_t = a.adjugate_inverse().transpose()
    return build_mpc(MPCSpec(duals, inverse_t), limit)


def row_codes(a: Matrix, budget: Optional[int] = None) -> list[LinearCode]:
    """Codes generated by the first i rows of a full-rank matrix, i = 1..s."""
    limit = resolve_budget(budget)
    if not a.has_full_rank(limit):
        raise NotApplicableError("row codes are defined for full-rank matrices only")
    rows = [tuple(e for e in a.row(i)) for i in range(a.rows)]
    return [span(a.ring, a.cols, rows[: i + 1], limit) for i in range(a.rows)]


def row_code_min_distances(a: Matrix, budget: Optional[int] = None) -> tuple[int, ...]:
    """Minimum distances of the row codes, by streaming coefficient scans.

    Coefficient tuples are enumerated instead of materializing each span;
    zero words are skipped, so the result is exact whether or not the
    rows are independent.
    """
    limit = resolve_budget(budget)
    ring = a.ring
    card = ring.cardinality
    total = sum(card**i for i in range(1, a.rows + 1))
    if total > limit:
        raise BudgetExceededError(
            f"row-code scans need {total} coefficient tuples, budget is {limit}"
        )
    deltas = []
    raw_rows = a._raw_rows
    cols = a.cols
    if isinstance(ring, IntegerResidueRing):
        n = ring.n
        for i in range(1, a.rows + 1):
            rows = raw_rows[:i]
            best = None
            for x in product(range(n), repeat=i):
                weight = 0
                for j in range(cols):
                    if sum(x[k] * rows[k][j] for k in range(i)) % n:
                        weight += 1
                if weight and (best is None or weight < best):
                    best = weight
                    if best == 1:
                        break
            if best is None:
                raise UndefinedDistanceError(
                    f"the first {i} rows generate the zero code"
                )
            deltas.append(best)
        return tuple(deltas)
    zero = ring._rzero
    raws = list(ring._iter_raw())
    for i in range(1, a.rows + 1):
        rows = raw_rows[:i]
        best = None
        for x in product(raws, repeat=i):
            weight = 0
            for j in range(cols):
                acc = zero
                for k in range(i):
                    acc = ring._radd(acc, ring._rmul(x[k], rows[k][j]))
                if acc != zero:
                    weight += 1
            if weight and (best is None or weight < best):
                best = weight
                if best == 1:
                    break
        if best is None:
            raise UndefinedDistanceError(f"the first {i} rows generate the zero code")
        deltas.append(best)
    return tuple(deltas)


def min_distance_lower_bound(spec: MPCSpec, budget: Optional[int] = None) -> int:
    """min over i of d(C_i) * d(C_{R_i}) for a full-rank combining matrix."""
    limit = resolve_budget(budget)
    if not spec.matrix.has_full_rank(limit):
        raise NotApplicableError(
            "the distance bound is defined for full-rank matrices only"
        )
    input_distances = [c.min_distance() for c in spec.codes]
    deltas = row_code_min_distances(spec.matrix, limit)
    return min(d * delta for d, delta in zip(input_distances, deltas))


def mpc_generator_matrix(
    spec: MPCSpec,
    generator_matrices: Sequence[Matrix],
    budget: Optional[int] = None,
) -> Matrix:
    """Block matrix with block (i, j) equal to a_{i,j} * G_i.

    Each G_i must have independent rows spanning C_i (independence is the
    caller's assertion; the span is verified here).  The rows of the
    result span the matrix-product code under the column-major flattening,
    so the result has sum(rank C_i) rows and l*m columns.
    """
    limit = resolve_budget(budget)
    ring = spec.ring
    if not spec.matrix.has_full_rank(limit):
        raise NotApplicableError(
            "the generator-matrix construction requires a full-rank combining matrix"
        )
    if len(generator_matrices) != spec.s:
        raise ShapeError(
            f"expected {spec.s} generator matrices, got {len(generator_matrices)}"
        )
    for i, g in enumerate(generator_matrices):
        if g.ring != ring:
            raise RingMismatchError("generator matrices must live over the spec's ring")
        if g.cols != spec.m:
            raise ShapeError(
                f"generator matrix {i + 1} has {g.cols} columns, expected {spec.m}"
            )
        rows = [g.row(t) for t in range(g.rows)]
        if span(ring, spec.m, rows, limit) != spec.codes[i]:
            raise InconsistentInputError(
                f"rows of generator matrix {i + 1} do not span input code {i + 1}"
            )
    a = spec.matrix._raw_rows
    out_rows = []
    for i, g in enumerate(generator_matrices):
        for t in range(g.rows):
            raw_row = g._raw_rows[t]
            vec: list = []
            for j in range(spec.l):
                vec.extend(ring._vscale(a[i][j], raw_row))
            out_rows.append([RingElement(ring, c) for c in vec])
    return Matrix(ring, out_rows)


def check_conditions(spec: MPCSpec, budget: Optional[int] = None) -> MPCReport:
    """Evaluate every sufficient condition and collect implied conclusions.

    All conditions are evaluated (no short-circuiting): the report is a
    diagnostic artifact.  A condition whose evaluation needs an
    enumeration beyond the budget is recorded with ``holds = None``.
    """
    limit = resolve_budget(budget)
    a = spec.matrix
    ring = spec.ring
    codes = spec.codes
    s = spec.s

    gram_matrix = a.gram()
    diag = _diagonal_profile(gram_matrix)
    adiag = _antidiagonal_profile(gram_matrix)
    gram = _gram_shape(diag, adiag)

    self_orth = [c.is_self_orthogonal() for c in codes]

    def sizes(i: int) -> Optional[tuple[int, int]]:
        """(|C_i|, |C_i^perp|), or None if the closure of C_i exceeds its budget."""
        try:
            return codes[i].cardinality, codes[i].dual_cardinality()
        except BudgetExceededError:
            return None

    square = a.rows == a.cols
    nonsingular = square and a.is_nonsingular()
    orthogonal = nonsingular and gram_matrix == Matrix.identity(ring, s)

    results: list[ConditionResult] = []
    conclusions: list[Conclusion] = []

    def record(condition_id: str, holds: Optional[bool], detail: str,
               implies: Optional[str] = None):
        results.append(ConditionResult(condition_id, holds, detail))
        if holds is True and implies is not None:
            conclusions.append(Conclusion(implies, condition_id))

    # Diagonal Gram: inputs with nonzero lambda must be self-orthogonal.
    if diag is None:
        record("thm-self-orth-1", False, "A*A^t is not diagonal")
    else:
        bad = [
            i
            for i in range(s)
            if not diag[i].is_zero() and not self_orth[i]
        ]
        if bad:
            i = bad[0]
            record(
                "thm-self-orth-1",
                False,
                f"lambda_{i + 1} = {diag[i]} is nonzero but C_{i + 1} is not self-orthogonal",
            )
        else:
            record(
                "thm-self-orth-1",
                True,
                "A*A^t = diag(" + ",".join(str(v) for v in diag) + "); "
                "every input with nonzero lambda is self-orthogonal",
                SELF_ORTHOGONAL,
            )

    # Anti-diagonal Gram: C_i must lie in the dual of C_{s-i+1} when lambda_i != 0.
    if adiag is None:
        record("thm-self-orth-2", False, "A*A^t is not anti-diagonal")
    else:
        bad = [
            i
            for i in range(s)
            if not adiag[i].is_zero() and not codes[i].is_orthogonal_to(codes[s - 1 - i])
        ]
        if bad:
            i = bad[0]
            record(
                "thm-self-orth-2",
                False,
                f"lambda_{i + 1} = {adiag[i]} is nonzero but C_{i + 1} is not "
                f"orthogonal to C_{s - i}",
            )
        else:
            record(
                "thm-self-orth-2",
                True,
                "A*A^t = adiag(" + ",".join(str(v) for v in adiag) + "); "
                "C_i is orthogonal to C_(s-i+1) wherever lambda_i is nonzero",
                SELF_ORTHOGONAL,
            )

    # Orthogonal matrix plus all-self-orthogonal / all-self-dual inputs.
    if not orthogonal:
        record("cor-orthog-2", False, "A is not orthogonal")
        record("cor-orthog-3", False, "A is not orthogonal")
    else:
        if all(self_orth):
            record(
                "cor-orthog-2", True,
                "A is orthogonal and every input code is self-orthogonal",
                SELF_ORTHOGONAL,
            )
        else:
            i = self_orth.index(False)
            record("cor-orthog-2", False, f"C_{i + 1} is not self-orthogonal")
        holds, detail = _all_inputs_self_dual(s, self_orth, sizes)
        record(
            "cor-orthog-3",
            holds,
            "A is orthogonal and every input code is self-dual" if holds else detail,
            SELF_DUAL,
        )

    # Unit anti-diagonal Gram with C_i equal to the dual of C_{s-i+1}.
    if not square:
        record("thm-self-dual", False, "A is not square")
    elif adiag is None:
        record("thm-self-dual", False, "A*A^t is not anti-diagonal")
    else:
        non_units = [i for i in range(s) if not adiag[i].is_unit()]
        if non_units:
            i = non_units[0]
            record(
                "thm-self-dual", False,
                f"lambda_{i + 1} = {adiag[i]} is not a unit",
            )
        else:
            verdict: Optional[bool] = True
            detail = (
                "A*A^t = adiag(" + ",".join(str(v) for v in adiag) + ") with unit "
                "entries and C_i equals the dual of C_(s-i+1) for every i"
            )
            for i in range(s):
                if not codes[i].is_orthogonal_to(codes[s - 1 - i]):
                    verdict = False
                    detail = f"C_{i + 1} is not contained in the dual of C_{s - i}"
                    break
                own, partner = sizes(i), sizes(s - 1 - i)
                if own is None or partner is None:
                    verdict = None
                    detail = f"comparing C_{i + 1} with the dual of C_{s - i} exceeds the budget"
                elif own[0] != partner[1]:
                    verdict = False
                    detail = (
                        f"C_{i + 1} is strictly smaller than the dual of C_{s - i} "
                        f"({own[0]} vs {partner[1]} words)"
                    )
                    break
            record("thm-self-dual", verdict, detail, SELF_DUAL)

    # The four cases forcing [C_1 ... C_s]A = [C_1 ... C_s].
    def chain_holds(ascending: bool) -> Optional[bool]:
        order = range(s - 1) if ascending else range(s - 1, 0, -1)
        try:
            for i in order:
                if ascending:
                    if not codes[i].is_subcode(codes[i + 1]):
                        return False
                else:
                    if not codes[i].is_subcode(codes[i - 1]):
                        return False
            return True
        except BudgetExceededError:
            return None

    zero_raw = ring._rzero
    upper = all(
        a._raw_rows[i][j] == zero_raw for i in range(s) for j in range(a.cols) if i > j
    )
    lower = square and all(
        a._raw_rows[i][j] == zero_raw for i in range(s) for j in range(s) if i < j
    )
    diagonal_matrix = upper and lower

    shape_excuse = "A is not square" if not square else "A is singular"
    if not (square and nonsingular):
        for k in (1, 2, 3):
            record(f"lemma-ca-{k}", False, shape_excuse)
    else:
        if not upper:
            record("lemma-ca-1", False, "A is not upper triangular")
        else:
            chain = chain_holds(ascending=True)
            if chain is True:
                record(
                    "lemma-ca-1", True,
                    "A is non-singular upper triangular and C_1 through C_s form "
                    "an ascending chain",
                    EQUIVALENCE,
                )
            elif chain is False:
                record("lemma-ca-1", False, "the input codes do not form an ascending chain")
            else:
                record("lemma-ca-1", None, "chain check exceeds the budget")
        if not lower:
            record("lemma-ca-2", False, "A is not lower triangular")
        else:
            chain = chain_holds(ascending=False)
            if chain is True:
                record(
                    "lemma-ca-2", True,
                    "A is non-singular lower triangular and C_1 through C_s form "
                    "a descending chain",
                    EQUIVALENCE,
                )
            elif chain is False:
                record("lemma-ca-2", False, "the input codes do not form a descending chain")
            else:
                record("lemma-ca-2", None, "chain check exceeds the budget")
        if diagonal_matrix:
            record("lemma-ca-3", True, "A is non-singular diagonal", EQUIVALENCE)
        else:
            record("lemma-ca-3", False, "A is not diagonal")

    if not (square and nonsingular):
        record("lemma-ca-4", False, shape_excuse)
    else:
        try:
            all_equal = all(codes[0] == codes[i] for i in range(1, s))
        except BudgetExceededError:
            record("lemma-ca-4", None, "code comparison exceeds the budget")
        else:
            if all_equal:
                record(
                    "lemma-ca-4", True,
                    "A is non-singular and all input codes are equal",
                    EQUIVALENCE,
                )
            else:
                record("lemma-ca-4", False, "the input codes are not all equal")

    # Equivalence with the identity-matrix product, then property transfer.
    lemma_held = any(
        r.holds is True for r in results if r.condition_id.startswith("lemma-ca-")
    )
    if not (square and nonsingular):
        record("thm-self-mpc", False, shape_excuse)
    elif lemma_held:
        _conclude_transfer(
            record, "the product equals the plain concatenation (via a chain/shape case)",
            s, self_orth, sizes, conclusions,
        )
    else:
        try:
            identity_spec = MPCSpec(codes, Matrix.identity(ring, s))
            equal = build_mpc(spec, limit) == build_mpc(identity_spec, limit)
        except BudgetExceededError:
            record("thm-self-mpc", None, "literal set comparison exceeds the budget")
        else:
            if equal:
                _conclude_transfer(
                    record, "the product equals the plain concatenation (literal set equality)",
                    s, self_orth, sizes, conclusions,
                )
            else:
                record(
                    "thm-self-mpc", False,
                    "the product differs from the plain concatenation",
                )

    return MPCReport(gram, tuple(results), tuple(conclusions))


def _all_inputs_self_dual(s, self_orth, sizes):
    """Tri-state check that every input code is self-dual."""
    verdict: Optional[bool] = True
    detail = ""
    for i in range(s):
        if not self_orth[i]:
            return False, f"C_{i + 1} is not self-orthogonal"
        size = sizes(i)
        if size is None:
            verdict = None
            detail = f"the dual of C_{i + 1} exceeds the budget"
        elif size[0] != size[1]:
            return False, f"C_{i + 1} is self-orthogonal but not self-dual"
    return verdict, detail


def _conclude_transfer(record, how, s, self_orth, sizes, conclusions):
    """Record thm-self-mpc as holding and transfer input properties."""
    record("thm-self-mpc", True, how, EQUIVALENCE)
    if all(self_orth):
        conclusions.append(Conclusion(SELF_ORTHOGONAL, "thm-self-mpc"))
    all_sd, _ = _all_inputs_self_dual(s, self_orth, sizes)
    if all_sd is True:
        conclusions.append(Conclusion(SELF_DUAL, "thm-self-mpc"))
