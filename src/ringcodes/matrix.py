"""Dense matrix algebra over a finite commutative ring.

Everything here is division-free and valid in the presence of zero
divisors: determinants come from Laplace expansion, inverses from the
adjugate, and full rank is decided by exhaustively scanning the left
kernel.  Matrices are immutable after construction and all operations
are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .errors import (
    BudgetExceededError,
    CertificateError,
    NotInvertibleError,
    RingMismatchError,
    ShapeError,
)
from .ring import IntegerResidueRing, Ring, RingElement, resolve_budget

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
        """Laplace expansion along the first row; no division involved."""
        self._require_square("determinant")
        ring = self.ring
        return RingElement(ring, _det_raw(ring, self._raw_rows))

    def is_nonsingular(self) -> bool:
        self._require_square("non-singularity")
        return self.determinant().is_unit()

    def adjugate_inverse(self) -> "Matrix":
        """det(A)^-1 * adj(A); verified against A before returning."""
        self._require_square("inversion")
        ring = self.ring
        det = self.determinant()
        if not det.is_unit():
            raise NotInvertibleError(
                f"matrix is singular: det = {det} is not a unit in {ring.description()}"
            )
        det_inv = det.invert()
        s = self.rows
        adj = [[None] * s for _ in range(s)]
        for i in range(s):
            for j in range(s):
                minor = [
                    [self._raw_rows[r][c] for c in range(s) if c != j]
                    for r in range(s)
                    if r != i
                ]
                cof = RingElement(ring, _det_raw(ring, minor)) if minor else ring.one
                if (i + j) % 2:
                    cof = -cof
                adj[j][i] = det_inv * cof
        inverse = Matrix(ring, adj)
        if (self @ inverse) != Matrix.identity(ring, s):
            raise CertificateError("adjugate inverse failed its self-check")
        return inverse

    def classify_gram(self) -> GramShape:
        """Shape of A*A^t."""
        g = self.gram()
        return _gram_shape(_diagonal_profile(g), _antidiagonal_profile(g))

    def is_orthogonal(self) -> bool:
        """True iff A is non-singular with A*A^t = I, i.e. A = (A^-1)^t."""
        self._require_square("orthogonality")
        return self.gram() == Matrix.identity(self.ring, self.rows) and self.is_nonsingular()

    def has_full_rank(self, budget: Optional[int] = None) -> bool:
        """True iff x*A = 0 forces x = 0, by scanning all of R^s."""
        limit = resolve_budget(budget)
        ring = self.ring
        candidates = ring.cardinality**self.rows
        if candidates > limit:
            raise BudgetExceededError(
                f"full-rank scan needs {candidates} candidate vectors, budget is {limit}"
            )
        raw_cols = tuple(zip(*self._raw_rows))
        if isinstance(ring, IntegerResidueRing):
            n = ring.n
            for x in product(range(n), repeat=self.rows):
                if not any(x):
                    continue
                if all(sum(a * b for a, b in zip(x, col)) % n == 0 for col in raw_cols):
                    return False
            return True
        zero = ring._rzero
        raws = list(ring._iter_raw())
        zero_vec = (zero,) * self.rows
        for x in product(raws, repeat=self.rows):
            if x == zero_vec:
                continue
            if all(ring._vdot(x, col) == zero for col in raw_cols):
                return False
        return True

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


def _det_raw(ring: Ring, rows) -> object:
    """Determinant of raw rows by first-row Laplace expansion."""
    size = len(rows)
    if size == 1:
        return rows[0][0]
    if size == 2:
        return ring._rsub(
            ring._rmul(rows[0][0], rows[1][1]), ring._rmul(rows[0][1], rows[1][0])
        )
    acc = ring._rzero
    for j, top in enumerate(rows[0]):
        if top == ring._rzero:
            continue
        minor = [
            tuple(row[c] for c in range(size) if c != j) for row in rows[1:]
        ]
        term = ring._rmul(top, _det_raw(ring, minor))
        acc = ring._radd(acc, ring._rneg(term) if j % 2 else term)
    return acc


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
