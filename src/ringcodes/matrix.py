"""Dense matrix algebra over a finite commutative ring.

Everything here is valid in the presence of zero divisors.  Non-singularity
is full rank, the size of the row span read off its echelon form over Z/n
(:func:`ring.echelon`) free of charge, and the inverse is read off the
echelon form of [M | I] (:func:`ring.augmented`) and checked over Z/n.
A matrix holds its rows of raws only; elements are built when read.
Matrices are immutable after construction and all operations are pure.
The full-rank answer is computed on first use and never changed;
recomputing it gives the same answer, so the object is freely shareable
without a lock.  An inverse, and the transpose of a square matrix, start
with the answer already known.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import NotInvertibleError, RingMismatchError, ShapeError
from .records import Record
from .ring import Ring, RingElement

DIAGONAL = "diagonal"
ANTI_DIAGONAL = "anti-diagonal"
OTHER = "other"


class GramShape(Record):
    """Classification of A*A^t: diagonal, anti-diagonal, or neither.

    ``lambdas`` holds the (anti-)diagonal entries, position i carrying
    the entry at (i, i) resp. (i, s-i+1); it is None for ``other``.
    """

    __slots__ = ("tag", "lambdas")
    tag: str
    lambdas: Optional[tuple[RingElement, ...]]

    def to_json_dict(self) -> dict:
        return {
            "tag": self.tag,
            "lambdas": None if self.lambdas is None else [str(v) for v in self.lambdas],
        }


class Matrix:
    """An s x l matrix over a ring, stored as rows of raws (:class:`Ring`),
    as :class:`LinearCode` stores its generators; :attr:`entries`,
    :meth:`row` and :meth:`entry` build the elements when read."""

    __slots__ = ("ring", "rows", "cols", "_raw_rows", "_full")

    def __init__(self, ring: Ring, entries: Sequence[Sequence]):
        self._adopt(ring, [[ring._coerce_raw(e) for e in row] for row in entries])

    @classmethod
    def _from_raws(cls, ring: Ring, raw_rows) -> "Matrix":
        """From rows of raws, which the constructor misreads on towers."""
        matrix = cls.__new__(cls)
        matrix._adopt(ring, raw_rows)
        return matrix

    def _adopt(self, ring: Ring, raw_rows) -> None:
        """Take nonempty rows of raws, all of one length, as the entries."""
        raw_rows = tuple(map(tuple, raw_rows))
        if not raw_rows or not raw_rows[0]:
            raise ShapeError("matrix needs at least one row and one column")
        if any(len(row) != len(raw_rows[0]) for row in raw_rows):
            raise ShapeError("all rows must have the same length")
        self.ring, self._raw_rows = ring, raw_rows
        self.rows, self.cols = len(raw_rows), len(raw_rows[0])
        self._full: Optional[bool] = None

    @staticmethod
    def identity(ring: Ring, s: int) -> "Matrix":
        one, zero = ring._rone, ring._rzero
        return Matrix._from_raws(
            ring, [[one if i == j else zero for j in range(s)] for i in range(s)]
        )

    @property
    def entries(self) -> tuple[tuple[RingElement, ...], ...]:
        return tuple(self.row(i) for i in range(self.rows))

    def entry(self, i: int, j: int) -> RingElement:
        return RingElement(self.ring, self._raw_rows[i][j])

    def row(self, i: int) -> tuple[RingElement, ...]:
        ring = self.ring
        return tuple(RingElement(ring, raw) for raw in self._raw_rows[i])

    def transpose(self) -> "Matrix":
        """A^t; a square A^t has full rank iff A has (det(A^t) = det(A))."""
        out = Matrix._from_raws(self.ring, zip(*self._raw_rows))
        if self.rows == self.cols:
            out._full = self._full
        return out

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
        return Matrix._from_raws(
            ring, [[ring._vdot(row, col) for col in cols] for row in self._raw_rows]
        )

    def scale(self, scalar) -> "Matrix":
        ring = self.ring
        s = ring._coerce_raw(scalar)
        return Matrix._from_raws(ring, [ring._vscale(s, row) for row in self._raw_rows])

    def gram(self) -> "Matrix":
        return self @ self.transpose()

    def _require_square(self, what: str) -> None:
        if self.rows != self.cols:
            raise ShapeError(f"{what} needs a square matrix, got {self.rows}x{self.cols}")

    def is_nonsingular(self) -> bool:
        """det(A) is a unit iff A has full rank (McCoy, Amer. Math. Monthly 1942)."""
        self._require_square("non-singularity")
        return self.has_full_rank()

    def adjugate_inverse(self) -> "Matrix":
        """A^-1 = det(A)^-1 adj(A), read off the echelon form of [M | I] and
        checked row by row over Z/n (:meth:`Ring._inverse_rows`)."""
        self._require_square("inversion")
        inverse = self._inverse()
        if inverse is None:
            raise NotInvertibleError(
                "matrix is singular: A does not have full rank, so det(A) is not a unit "
                f"in {self.ring.description()}"
            )
        return inverse

    def _inverse(self) -> Optional["Matrix"]:
        """A^-1 of a square A, or None if A is singular, from one echelon
        form of [M | I], which decides the rank as well: it is remembered."""
        rows = self.ring._inverse_rows(self._raw_rows)
        self._full = rows is not None
        if rows is None:
            return None
        inverse = Matrix._from_raws(self.ring, rows)
        inverse._full = True
        return inverse

    def classify_gram(self) -> GramShape:
        """Shape of A*A^t."""
        g = self.gram()
        return _gram_shape(_profile(g, False), _profile(g, True))

    def is_orthogonal(self) -> bool:
        """True iff A*A^t = I, i.e. A = (A^-1)^t.

        No separate non-singularity test is needed: A*A^t = I forces
        det(A)^2 = 1, so det(A) is a unit.
        """
        self._require_square("orthogonality")
        return _orthogonal(_profile(self.gram(), False))

    def has_full_rank(self) -> bool:
        """True iff x*A = 0 forces x = 0, that is iff the row span of A has
        |R|^s words; for a square A, iff A is non-singular.  Remembered."""
        if self._full is None:
            self._full = self.ring._full_rank(self._raw_rows)
        return self._full

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.ring == other.ring and self._raw_rows == other._raw_rows

    def __hash__(self) -> int:
        return hash((self.ring, self._raw_rows))

    def __str__(self) -> str:
        fmt = self.ring._format_raw
        return "[" + ",".join(
            "[" + ",".join(map(fmt, row)) + "]" for row in self._raw_rows
        ) + "]"

    def __repr__(self) -> str:
        return f"<Matrix {self} over {self.ring.description()}>"


def _profile(g: Matrix, anti: bool) -> Optional[tuple[RingElement, ...]]:
    """The entries of the square g at (i, i), or at (i, s-i+1) if ``anti``,
    when every other entry vanishes; else None."""
    s, zero = g.rows, g.ring._rzero
    at = [s - 1 - i if anti else i for i in range(s)]
    for i, row in enumerate(g._raw_rows):
        if any(x != zero for j, x in enumerate(row) if j != at[i]):
            return None
    return tuple(g.entry(i, at[i]) for i in range(s))


def _orthogonal(diag) -> bool:
    """Whether A*A^t = I, read off the diagonal profile of A's Gram
    (:func:`_profile`): it exists and every lambda is 1."""
    return diag is not None and all(lam.raw == lam.ring._rone for lam in diag)


def _gram_shape(diag, adiag) -> GramShape:
    """Ties (e.g. s = 1, or a zero Gram) are reported as diagonal."""
    if diag is not None:
        return GramShape(DIAGONAL, diag)
    if adiag is not None:
        return GramShape(ANTI_DIAGONAL, adiag)
    return GramShape(OTHER, None)
