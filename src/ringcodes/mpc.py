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
as a diagnostic artifact.  Every condition is decided from generator
pairs and echelon forms (:mod:`ringcodes.code`), which cost no budget, so
every verdict is true or false, and none assumes that the ring is
Frobenius.

Products, theorem duals and the distance bound hold no budget of their
own: each charge is checked against the enclosing
:func:`ring.enumeration_budget` when it is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .code import LinearCode, _min_weight, span
from .errors import (
    InconsistentInputError,
    InvalidParameterError,
    NotApplicableError,
    NotInvertibleError,
    RingMismatchError,
    ShapeError,
    UndefinedDistanceError,
)
from .matrix import GramShape, Matrix, _gram_shape, _profile
from .ring import _LIMIT, charge

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
    holds: bool
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
        held = {c.condition_id for c in self.conditions if c.holds}
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


def _flatten(ring, a_row: tuple, raw: tuple) -> tuple:
    """(a_1 x || a_2 x || ... || a_l x) for a raw row x of length m and a
    raw matrix row (a_1, ..., a_l): the column-major wire convention."""
    vec: list = []
    for a_j in a_row:
        vec += ring._vscale(a_j, raw)
    return tuple(vec)


def build_mpc(spec: MPCSpec) -> LinearCode:
    """The product code of length m*l, as the span of the input
    generators' images.

    The combining map is linear, so that span equals the full set of
    flattened products; no iteration over codeword tuples is needed.  The
    product keeps its inputs, so under a non-singular A its size and dual
    size are read off them (:meth:`LinearCode.cardinality`).
    """
    ring = spec.ring
    gens = [
        _flatten(ring, a_row, g)
        for a_row, code in zip(spec.matrix._raw_rows, spec.codes)
        for g in code._gen_raws
    ]
    product = LinearCode._from_raws(ring, spec.m * spec.l, gens)
    product._factors = spec.codes, spec.matrix
    return product


def _require_dual_theorem(a: Matrix) -> None:
    """Refuse the dual theorem unless A is square and non-singular, by A's
    remembered rank (:meth:`Matrix.has_full_rank`): the refusals of
    :func:`mpc_dual_theorem` and of ``verify --use-dual-theorem``."""
    if a.rows != a.cols:
        raise NotApplicableError("the dual construction requires a square matrix")
    if not a.has_full_rank():
        raise NotApplicableError(
            "the dual construction requires a non-singular matrix; "
            "A does not have full rank, so det(A) is not a unit"
        )


def mpc_dual_theorem(spec: MPCSpec) -> LinearCode:
    """The dual of the matrix-product code, built as the matrix-product
    of the input duals under the inverse-transpose matrix.

    Requires a square non-singular combining matrix.  The inverse
    (:meth:`Matrix.adjugate_inverse`) decides that and records A's rank,
    which the refusals read (:func:`_require_dual_theorem`), before any
    input dual is charged; each is :meth:`LinearCode.dual`.  Its size
    alone is ``build_mpc(spec)._dual_size()``, which needs none of this.
    """
    a = spec.matrix
    try:
        inverse = a.adjugate_inverse()
    except (ShapeError, NotInvertibleError):
        inverse = None  # refused below
    _require_dual_theorem(a)
    duals = tuple(c.dual() for c in spec.codes)
    return build_mpc(MPCSpec(duals, inverse.transpose()))


def row_codes(a: Matrix) -> list[LinearCode]:
    """Codes generated by the first i rows of a full-rank matrix, i = 1..s."""
    if not a.has_full_rank():
        raise NotApplicableError("row codes are defined for full-rank matrices only")
    rows = a.entries
    return [span(a.ring, a.cols, rows[: i + 1]) for i in range(a.rows)]


def row_code_min_distances(a: Matrix) -> tuple[int, ...]:
    """Minimum distances of the row codes, each from the echelon form of
    the first i rows by small-support tests, else by its p-torsion
    subcodes (:func:`code._min_weight`), exact whether or not the rows are
    independent.  C_{i-1} lies in C_i, so d(C_{i-1}) is the ceiling of
    d(C_i): a search stops at it, and after a distance of 1 the later row
    codes build no torsion basis.  Charged the nominal sum of |R|^i, the
    coefficient tuples of the first i rows, up front, whatever the
    ceilings save."""
    ring = a.ring
    _charge_row_scan(ring.cardinality, a.rows)
    rows, deltas = None, []
    for i, row in enumerate(a._raw_rows, 1):
        rows = ring._span_echelon([row], rows)
        best = _min_weight(ring, rows, a.cols, deltas[-1] if deltas else None)
        if best is None:
            raise UndefinedDistanceError(f"the first {i} rows generate the zero code")
        deltas.append(best)
    return tuple(deltas)


def _charge_row_scan(card: int, rows: int) -> None:
    """Refuse a row-code scan of ``rows`` rows over ``card`` elements whose
    nominal cost, the sum of card^i for i = 1..rows, exceeds the budget.

    Past 64 rows, and past as many rows as the budget has bits, the cost
    exceeds the budget on any ring (card^rows >= 2^rows); the exact sum,
    which can be too long to form, is then not computed.
    """
    too_long = rows > max(_LIMIT.get().bit_length(), 64)
    need = None if too_long else sum(card**i for i in range(1, rows + 1))
    charge(need, "row-code scans need {need} coefficient tuples, budget is {limit}")


def min_distance_lower_bound(spec: MPCSpec) -> int:
    """min over i of d(C_i) * d(C_{R_i}) for a full-rank combining matrix.

    Each d(C_i) and the row scan (:func:`row_code_min_distances`) are
    charged.
    """
    if not spec.matrix.has_full_rank():
        raise NotApplicableError(
            "the distance bound is defined for full-rank matrices only"
        )
    input_distances = [c.min_distance() for c in spec.codes]
    deltas = row_code_min_distances(spec.matrix)
    return min(d * delta for d, delta in zip(input_distances, deltas))


def mpc_generator_matrix(spec: MPCSpec, generator_matrices: Sequence[Matrix]) -> Matrix:
    """Block matrix with block (i, j) equal to a_{i,j} * G_i.

    Each G_i must have independent rows spanning C_i (independence is the
    caller's assertion; the span is verified here).  The rows of the
    result span the matrix-product code under the column-major flattening,
    so the result has sum(rank C_i) rows and l*m columns.
    """
    ring = spec.ring
    if not spec.matrix.has_full_rank():
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
        if span(ring, spec.m, g.entries) != spec.codes[i]:
            raise InconsistentInputError(
                f"rows of generator matrix {i + 1} do not span input code {i + 1}"
            )
    return Matrix._from_raws(ring, [
        _flatten(ring, a_row, raw)
        for a_row, g in zip(spec.matrix._raw_rows, generator_matrices)
        for raw in g._raw_rows
    ])


def _report(gram: GramShape, rows: list, transfers: Sequence[str] = ()) -> MPCReport:
    """The report of ``rows`` (id, holds, detail, implied property): each
    held row's property, then each of ``transfers`` by thm-self-mpc."""
    conclusions = [Conclusion(prop, cid) for cid, holds, _, prop in rows if holds]
    conclusions += [Conclusion(prop, "thm-self-mpc") for prop in transfers]
    results = tuple(ConditionResult(cid, holds, detail) for cid, holds, detail, _ in rows)
    return MPCReport(gram, results, tuple(conclusions))


def check_conditions(spec: MPCSpec) -> MPCReport:
    """Evaluate every sufficient condition and collect implied conclusions.

    All conditions are evaluated (no short-circuiting): the report is a
    diagnostic artifact.  Sizes, subcode and equality tests come from the
    codes' echelon forms, dual sizes included, which are never charged, so
    no budget applies.  A fact that two conditions read is decided once.

    thm-self-mpc compares C_A with the plain concatenation C_I =
    C_1 x ... x C_s only under a non-singular A, where y -> yA is a
    bijection from C_1 x ... x C_s onto C_A, so |C_A| = |C_I| and the two
    are equal iff C_A lies in C_I.  Block j of the image of a generator g
    of C_i is a_ij g, so that holds iff each such a_ij g lies in C_j: one
    containment test against each C_j's own echelon form, and no echelon
    form of either product.
    """
    a = spec.matrix
    codes = spec.codes
    s = spec.s

    gram_matrix = a.gram()
    diag, adiag = _profile(gram_matrix, False), _profile(gram_matrix, True)
    gram = _gram_shape(diag, adiag)

    self_orth = [c.is_self_orthogonal() for c in codes]
    square = a.rows == a.cols
    nonsingular = square and a.is_nonsingular()
    # A*A^t = I forces det(A)^2 = 1, so an orthogonal A is non-singular.
    orthogonal = square and gram_matrix == Matrix.identity(a.ring, s)
    # Whether C_i is orthogonal to C_(s-i+1), for thm-self-orth-2 and
    # thm-self-dual, which need an anti-diagonal Gram; the relation is
    # symmetric, so each pair is tested once.
    tested = range((s + 1) // 2) if adiag is not None else ()
    half = [codes[i].is_orthogonal_to(codes[s - 1 - i]) for i in tested]
    partners = half + half[: s // 2][::-1]
    # The first input that is not self-dual (s if none), for cor-orthog-3
    # and thm-self-mpc, which need a non-singular A.
    not_dual = next((
        i for i, c in enumerate(codes) if not self_orth[i] or c.cardinality != c._dual_size()
    ), s) if nonsingular else None

    rows: list[tuple[str, bool, str, str]] = []

    # (Anti-)diagonal Gram: every input with nonzero lambda_i must meet a
    # requirement; the first input that does not is reported.
    gram_rules = (
        ("thm-self-orth-1", "diagonal", "diag", diag, self_orth,
         "lambda_{i} = {lam} is nonzero but C_{i} is not self-orthogonal",
         "every input with nonzero lambda is self-orthogonal"),
        ("thm-self-orth-2", "anti-diagonal", "adiag", adiag, partners,
         "lambda_{i} = {lam} is nonzero but C_{i} is not orthogonal to C_{j}",
         "C_i is orthogonal to C_(s-i+1) wherever lambda_i is nonzero"),
    )
    for condition_id, shape, name, lambdas, meets, failure, success in gram_rules:
        if lambdas is None:
            rows.append((condition_id, False, f"A*A^t is not {shape}", SELF_ORTHOGONAL))
            continue
        bad = next((i for i in range(s) if not lambdas[i].is_zero() and not meets[i]), None)
        if bad is None:
            detail = f"A*A^t = {name}({','.join(map(str, lambdas))}); {success}"
        else:
            detail = failure.format(i=bad + 1, j=s - bad, lam=lambdas[bad])
        rows.append((condition_id, bad is None, detail, SELF_ORTHOGONAL))

    # Orthogonal matrix plus all-self-orthogonal / all-self-dual inputs.
    orth_detail = dual_detail = "A is not orthogonal"
    if orthogonal:
        orth_detail = "A is orthogonal and every input code is self-orthogonal"
        if not all(self_orth):
            orth_detail = f"C_{self_orth.index(False) + 1} is not self-orthogonal"
        dual_detail = "A is orthogonal and every input code is self-dual"
        if not_dual < s:
            dual_detail = (
                f"C_{not_dual + 1} is self-orthogonal but not self-dual" if self_orth[not_dual]
                else f"C_{not_dual + 1} is not self-orthogonal"
            )
    rows.append(("cor-orthog-2", orthogonal and all(self_orth), orth_detail, SELF_ORTHOGONAL))
    rows.append(("cor-orthog-3", orthogonal and not_dual == s, dual_detail, SELF_DUAL))

    # Unit anti-diagonal Gram with C_i equal to the dual of C_{s-i+1}.
    verdict, detail = False, "A is not square"
    if square and adiag is None:
        detail = "A*A^t is not anti-diagonal"
    elif square and not all(units := [v.is_unit() for v in adiag]):
        i = units.index(False)
        detail = f"lambda_{i + 1} = {adiag[i]} is not a unit"
    elif square:
        verdict, detail = True, (
            f"A*A^t = adiag({','.join(map(str, adiag))}) with unit entries and "
            "C_i equals the dual of C_(s-i+1) for every i"
        )
        for i in range(s):
            if not partners[i]:
                verdict, detail = False, f"C_{i + 1} is not contained in the dual of C_{s - i}"
                break
            own, partner = codes[i].cardinality, codes[s - 1 - i]._dual_size()
            if own != partner:
                verdict, detail = False, (
                    f"C_{i + 1} is strictly smaller than the dual of C_{s - i} "
                    f"({own} vs {partner} words)"
                )
                break
    rows.append(("thm-self-dual", verdict, detail, SELF_DUAL))

    # The rest (lemma-ca-1 through thm-self-mpc) needs a non-singular square A.
    if not nonsingular:
        excuse = "A is not square" if not square else "A is singular"
        rest = CONDITION_IDS[CONDITION_IDS.index("lemma-ca-1"):]
        rows += [(condition_id, False, excuse, EQUIVALENCE) for condition_id in rest]
        return _report(gram, rows)

    # The four cases forcing [C_1 ... C_s]A = [C_1 ... C_s].
    raw, zero = a._raw_rows, a.ring._rzero
    upper = all(raw[i][j] == zero for i in range(s) for j in range(i))
    lower = all(raw[i][j] == zero for i in range(s) for j in range(i + 1, s))
    chain_rules = (
        ("lemma-ca-1", upper, "upper", "an ascending chain",
         [(codes[i], codes[i + 1]) for i in range(s - 1)]),
        ("lemma-ca-2", lower, "lower", "a descending chain",
         [(codes[i + 1], codes[i]) for i in range(s - 1)]),
    )
    for condition_id, triangular, side, chain_name, pairs in chain_rules:
        if not triangular:
            rows.append((condition_id, False, f"A is not {side} triangular", EQUIVALENCE))
            continue
        holds = all(c.is_subcode(d) for c, d in pairs)
        rows.append((condition_id, holds, (
            f"A is non-singular {side} triangular and C_1 through C_s form {chain_name}"
            if holds else f"the input codes do not form {chain_name}"
        ), EQUIVALENCE))
    diagonal = upper and lower
    detail = "A is non-singular diagonal" if diagonal else "A is not diagonal"
    rows.append(("lemma-ca-3", diagonal, detail, EQUIVALENCE))
    all_equal = all(codes[0] == c for c in codes[1:])
    rows.append(("lemma-ca-4", all_equal, (
        "A is non-singular and all input codes are equal"
        if all_equal else "the input codes are not all equal"
    ), EQUIVALENCE))

    # Equivalence with the identity-matrix product (by containment, see
    # above), then property transfer.
    lemma_held = any(holds for cid, holds, _, _ in rows if cid.startswith("lemma-ca-"))
    vscale = a.ring._vscale
    equal = lemma_held or all(
        codes[j]._spans([vscale(raw[i][j], g) for i in range(s) for g in codes[i]._gen_raws])
        for j in range(s)
    )
    how = "via a chain/shape case" if lemma_held else "literal set equality"
    rows.append(("thm-self-mpc", equal, (
        f"the product equals the plain concatenation ({how})"
        if equal else "the product differs from the plain concatenation"
    ), EQUIVALENCE))
    transfers = [SELF_ORTHOGONAL] * all(self_orth) + [SELF_DUAL] * (not_dual == s)
    return _report(gram, rows, transfers if equal else ())
