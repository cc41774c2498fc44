"""Dense matrix algebra over a finite commutative ring.

Everything here is division-free and valid in the presence of zero
divisors: determinants and inverses come from the characteristic
polynomial (:func:`ring._charpoly_raw`) and Cayley-Hamilton, and full rank
from the size of the row span, read off its echelon form over Z/n
(:func:`ring.echelon`) but charged for all of R^s.
Matrices are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    CertificateError,
    NotInvertibleError,
    RingMismatchError,
    ShapeError,
)
from .ring import Ring, RingElement, _charpoly_raw, charge, echelon_size, resolve_budget

DIAGONAL = "diagonal"
ANTI_DIAGONAL = "anti-diagonal"
OTHER = "other"


@dataclass(frozen=True)
class GramShape:
    """Classification of A*A^t: diagonal, anti-diagonal, or neither.

    ``lambdas`` holds the (anti-)diagonal entries, position i carrying
    the entry at (i, i) resp. (i, s-i+1); it is None for ``other``.
    """

    tag: str
    lambdas: Optional[tuple[RingElement, ...]]

    def to_json_dict(self) -> dict:
        return {
            "tag": self.tag,
            "lambdas": None if self.lambdas is None else [str(v) for v in self.lambdas],
        }


class Matrix:
    """An s x l matrix of ring elements."""

    __slots__ = ("ring", "rows", "cols", "entries", "_raw_rows")

    def __init__(self, ring: Ring, entries: Sequence[Sequence]):
        rows = [tuple(ring.element(e) for e in row) for row in entries]
        if not rows or not rows[0]:
            raise ShapeError("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ShapeError("all rows must have the same length")
        self.ring = ring
        self.rows = len(rows)
        self.cols = width
        self.entries = tuple(rows)
        self._raw_rows = tuple(tuple(e.raw for e in row) for row in rows)

    @staticmethod
    def identity(ring: Ring, s: int) -> "Matrix":
        one, zero = ring.one, ring.zero
        return Matrix(ring, [[one if i == j else zero for j in range(s)] for i in range(s)])

    def entry(self, i: int, j: int) -> RingElement:
        return self.entries[i][j]

    def row(self, i: int) -> tuple[RingElement, ...]:
        return self.entries[i]

    def transpose(self) -> "Matrix":
        return Matrix(self.ring, list(zip(*self.entries)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ring != other.ring:
            raise RingMismatchError("matrix product needs a common ring")
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        ring = self.ring
        cols = list(zip(*other._raw_rows))
        out = [
            [RingElement(ring, ring._vdot(row, col)) for col in cols]
            for row in self._raw_rows
        ]
        return Matrix(ring, out)

    def scale(self, scalar) -> "Matrix":
        s = self.ring.element(scalar)
        return Matrix(self.ring, [[s * e for e in row] for row in self.entries])

    def gram(self) -> "Matrix":
        return self @ self.transpose()

    def _require_square(self, what: str) -> None:
        if self.rows != self.cols:
            raise ShapeError(f"{what} needs a square matrix, got {self.rows}x{self.cols}")

    def determinant(self) -> RingElement:
        """(-1)^s c_s from the characteristic polynomial t^s + c_1 t^(s-1) +
        ... + c_s (:func:`_charpoly_raw`); no division involved."""
        self._require_square("determinant")
        return self._determinant(_charpoly_raw(self.ring, self._raw_rows))

    def _determinant(self, poly: list) -> RingElement:
        ring = self.ring
        return RingElement(ring, poly[-1] if self.rows % 2 == 0 else ring._rneg(poly[-1]))

    def is_nonsingular(self) -> bool:
        self._require_square("non-singularity")
        return self.determinant().is_unit()

    def adjugate_inverse(self) -> "Matrix":
        """det(A)^-1 * adj(A) by Cayley-Hamilton, A^-1 = -c_s^-1 (A^(s-1) +
        c_1 A^(s-2) + ... + c_(s-1) I); verified against A before returning."""
        self._require_square("inversion")
        ring = self.ring
        poly = _charpoly_raw(ring, self._raw_rows)
        det = self._determinant(poly)
        if not det.is_unit():
            raise NotInvertibleError(
                f"matrix is singular: det = {det} is not a unit in {ring.description()}"
            )
        s = self.rows
        acc = Matrix.identity(ring, s)
        for c in poly[1:s]:
            acc = Matrix(ring, [
                [e + RingElement(ring, c) if i == j else e for j, e in enumerate(row)]
                for i, row in enumerate((acc @ self).entries)
            ])
        inverse = acc.scale(-RingElement(ring, poly[-1]).invert())
        if (self @ inverse) != Matrix.identity(ring, s):
            raise CertificateError("adjugate inverse failed its self-check")
        return inverse

    def classify_gram(self) -> GramShape:
        """Shape of A*A^t."""
        g = self.gram()
        return _gram_shape(_diagonal_profile(g), _antidiagonal_profile(g))

    def is_orthogonal(self) -> bool:
        """True iff A*A^t = I, i.e. A = (A^-1)^t.

        No separate non-singularity test is needed: A*A^t = I forces
        det(A)^2 = 1, so det(A) is a unit.
        """
        self._require_square("orthogonality")
        return self.gram() == Matrix.identity(self.ring, self.rows)

    def has_full_rank(self, budget: Optional[int] = None) -> bool:
        """True iff x*A = 0 forces x = 0, that is iff the row span of A has
        |R|^s words; charged the nominal |R|^s candidates."""
        ring = self.ring
        candidates = ring.cardinality**self.rows
        refusal = "full-rank scan needs {need} candidate vectors, budget is {limit}"
        charge(candidates, resolve_budget(budget), refusal)
        rows = ring._span_echelon(self._raw_rows)
        return echelon_size(ring.characteristic, rows) == candidates

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self._raw_rows == other._raw_rows
        )

    def __hash__(self) -> int:
        return hash((self.ring, self._raw_rows))

    def __str__(self) -> str:
        return "[" + ",".join(
            "[" + ",".join(str(e) for e in row) + "]" for row in self.entries
        ) + "]"

    def __repr__(self) -> str:
        return f"<Matrix {self} over {self.ring.description()}>"


def _diagonal_profile(g: Matrix) -> Optional[tuple[RingElement, ...]]:
    """Diagonal entries of g if all off-diagonal entries vanish, else None."""
    s = g.rows
    zero = g.ring._rzero
    for i in range(s):
        for j in range(s):
            if i != j and g._raw_rows[i][j] != zero:
                return None
    return tuple(g.entries[i][i] for i in range(s))


def _antidiagonal_profile(g: Matrix) -> Optional[tuple[RingElement, ...]]:
    """Entries at (i, s-i+1) if everything off the anti-diagonal vanishes."""
    s = g.rows
    zero = g.ring._rzero
    for i in range(s):
        for j in range(s):
            if j != s - 1 - i and g._raw_rows[i][j] != zero:
                return None
    return tuple(g.entries[i][s - 1 - i] for i in range(s))


def _gram_shape(diag, adiag) -> GramShape:
    """Ties (e.g. s = 1, or a zero Gram) are reported as diagonal."""
    if diag is not None:
        return GramShape(DIAGONAL, diag)
    if adiag is not None:
        return GramShape(ANTI_DIAGONAL, adiag)
    return GramShape(OTHER, None)
