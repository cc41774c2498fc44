"""Linear codes over a finite commutative ring.

A :class:`LinearCode` is the submodule of R^m generated by a finite list
of vectors.  The full codeword set is materialized lazily by closure:
for each generator g the orbit R*g is added to the running span, which
is exact because a sum of submodules is the set of elementwise sums.
Materialization happens once behind a lock; afterwards the object is
immutable and freely shareable.

Self-duality is decided by counting (|C| * |C^perp| = |R|^m, see
:meth:`LinearCode.dual_cardinality`).  Duals themselves are computed by
brute force (every vector of R^m is tested against the generators,
sufficient by bilinearity): that scan is the oracle for the counting and
for the closed-form results elsewhere, and the ``dual`` command's method.
All exhaustive work is capped by an enumeration budget, 10^7 by default.
"""

from __future__ import annotations

import threading
from itertools import product
from typing import Iterable, Optional, Sequence

from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    RingMismatchError,
    ShapeError,
    UndefinedDistanceError,
)
from .ring import IntegerResidueRing, Ring, RingElement, resolve_budget


def _coerce_vector(ring: Ring, length: int, vector: Sequence) -> tuple:
    if isinstance(vector, (list, tuple)):
        coords = vector
    else:
        raise InvalidParameterError(f"expected a coordinate sequence, got {vector!r}")
    if len(coords) != length:
        raise ShapeError(f"vector has {len(coords)} coordinates, expected {length}")
    return tuple(ring._coerce_raw(c) for c in coords)


def inner_product(x: Sequence[RingElement], y: Sequence[RingElement]) -> RingElement:
    """Euclidean inner product x_1*y_1 + ... + x_m*y_m."""
    xs = tuple(x)
    ys = tuple(y)
    if not xs or not ys:
        raise ShapeError("inner product needs nonempty vectors")
    ring = xs[0].ring
    if any(e.ring != ring for e in xs[1:]) or any(e.ring != ring for e in ys):
        raise RingMismatchError("inner product needs a common ring")
    if len(xs) != len(ys):
        raise ShapeError(f"length mismatch: {len(xs)} vs {len(ys)}")
    return RingElement(ring, ring._vdot(tuple(e.raw for e in xs), tuple(e.raw for e in ys)))


def hamming_weight(x: Sequence[RingElement]) -> int:
    """Number of nonzero coordinates."""
    return sum(1 for e in x if not e.is_zero())


class LinearCode:
    """An R-submodule of R^m given by a finite generating set."""

    def __init__(
        self,
        ring: Ring,
        length: int,
        generators: Iterable[Sequence],
        budget: Optional[int] = None,
    ):
        if length < 1:
            raise InvalidParameterError("code length must be >= 1")
        self.ring = ring
        self.length = length
        self.budget = resolve_budget(budget)
        self._gen_raws = tuple(_coerce_vector(ring, length, g) for g in generators)
        self._raw_words: Optional[frozenset] = None
        self._lock = threading.Lock()

    @classmethod
    def _from_raw_words(
        cls, ring: Ring, length: int, raw_words: frozenset, budget: Optional[int] = None
    ) -> "LinearCode":
        code = cls.__new__(cls)
        code.ring = ring
        code.length = length
        code.budget = resolve_budget(budget)
        code._gen_raws = tuple(sorted(raw_words))
        code._raw_words = raw_words
        code._lock = threading.Lock()
        return code

    # -- materialization ----------------------------------------------------

    def _words(self, budget: Optional[int] = None) -> frozenset:
        if self._raw_words is not None:
            return self._raw_words
        with self._lock:
            if self._raw_words is None:
                self._raw_words = self._close_span(
                    self.budget if budget is None else resolve_budget(budget)
                )
        return self._raw_words

    def _close_span(self, limit: int) -> frozenset:
        ring = self.ring
        words = {(ring._rzero,) * self.length}
        spent = 0
        for g in self._gen_raws:
            if g in words:
                continue
            spent += ring.cardinality
            orbit = {ring._vscale(lam, g) for lam in ring._iter_raw()}
            spent += len(words) * len(orbit)
            if spent > limit:
                raise BudgetExceededError(
                    f"span closure needs more than {limit} vector operations"
                )
            words = {ring._vadd(w, h) for w in words for h in orbit}
        return frozenset(words)

    # -- views ---------------------------------------------------------------

    @property
    def generators(self) -> tuple[tuple[RingElement, ...], ...]:
        ring = self.ring
        return tuple(tuple(RingElement(ring, c) for c in g) for g in self._gen_raws)

    def codewords(self) -> frozenset:
        ring = self.ring
        return frozenset(
            tuple(RingElement(ring, c) for c in w) for w in self._words()
        )

    @property
    def cardinality(self) -> int:
        return len(self._words())

    def contains(self, vector: Sequence) -> bool:
        return _coerce_vector(self.ring, self.length, vector) in self._words()

    def sorted_codewords(self) -> list[tuple[RingElement, ...]]:
        ring = self.ring
        return [
            tuple(RingElement(ring, c) for c in w) for w in sorted(self._words())
        ]

    # -- predicates -----------------------------------------------------------

    def is_self_orthogonal(self) -> bool:
        """C is a subset of its dual; by bilinearity it suffices to test
        the generator pairs."""
        ring = self.ring
        zero = ring._rzero
        gens = self._gen_raws
        for i, g in enumerate(gens):
            for h in gens[i:]:
                if ring._vdot(g, h) != zero:
                    return False
        return True

    def is_orthogonal_to(self, other: "LinearCode") -> bool:
        """True iff C is a subset of other's dual (all generator pairs
        orthogonal)."""
        self._check_compatible(other)
        ring = self.ring
        zero = ring._rzero
        return all(
            ring._vdot(g, h) == zero for g in self._gen_raws for h in other._gen_raws
        )

    def is_subcode(self, other: "LinearCode") -> bool:
        """True iff every generator of C lies in other's codeword set."""
        self._check_compatible(other)
        words = other._words()
        return all(g in words for g in self._gen_raws)

    def is_self_dual(self, budget: Optional[int] = None) -> bool:
        """Self-orthogonal with |C| = |C^perp|, decided by counting (see
        :meth:`dual_cardinality`); no vector of R^m is scanned."""
        return self.is_self_orthogonal() and self.dual_cardinality(budget) == self.cardinality

    def _check_compatible(self, other: "LinearCode") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("codes live over different rings")
        if self.length != other.length:
            raise ShapeError(f"length mismatch: {self.length} vs {other.length}")

    # -- dual ------------------------------------------------------------------

    def dual_cardinality(self, budget: Optional[int] = None) -> int:
        """|C^perp| = |R|^m / |C|, from the span closure alone.

        Every ring this package builds is Frobenius (Z/n is, and monic
        quotient towers keep it), and over a finite Frobenius ring
        |C| * |C^perp| = |R|^m (Wood, Amer. J. Math. 121, 1999).
        ``budget`` caps the closure if it has not run yet.
        """
        return self.ring.cardinality**self.length // len(self._words(budget))

    def dual_bruteforce(self, budget: Optional[int] = None) -> "LinearCode":
        """All x in R^m orthogonal to every generator, by full enumeration.

        The result's generator list is its entire codeword set, sorted.
        """
        ring = self.ring
        m = self.length
        limit = resolve_budget(self.budget if budget is None else budget)
        total = ring.cardinality**m
        if total > limit:
            raise BudgetExceededError(
                f"dual enumeration needs {total} candidate vectors, budget is {limit}"
            )
        gens = [g for g in self._gen_raws if any(c != ring._rzero for c in g)]
        if isinstance(ring, IntegerResidueRing):
            n = ring.n
            words = [
                cand
                for cand in product(range(n), repeat=m)
                if all(sum(a * b for a, b in zip(cand, g)) % n == 0 for g in gens)
            ]
        else:
            zero = ring._rzero
            raws = list(ring._iter_raw())
            words = [
                cand
                for cand in product(raws, repeat=m)
                if all(ring._vdot(cand, g) == zero for g in gens)
            ]
        return LinearCode._from_raw_words(ring, m, frozenset(words), limit)

    # -- metrics -----------------------------------------------------------------

    def min_distance(self) -> int:
        """Minimum Hamming weight over nonzero codewords."""
        zero = self.ring._rzero
        best = None
        for w in self._words():
            weight = sum(1 for c in w if c != zero)
            if weight and (best is None or weight < best):
                best = weight
                if best == 1:
                    break
        if best is None:
            raise UndefinedDistanceError(
                "minimum distance is undefined for the zero code"
            )
        return best

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.length == other.length
            and self._words() == other._words()
        )

    def __repr__(self) -> str:
        if self._raw_words is not None:
            return (
                f"<LinearCode over {self.ring.description()} length {self.length} "
                f"with {len(self._raw_words)} words>"
            )
        return (
            f"<LinearCode over {self.ring.description()} length {self.length} "
            f"with {len(self._gen_raws)} generators>"
        )


def span(
    ring: Ring,
    length: int,
    generators: Iterable[Sequence],
    budget: Optional[int] = None,
) -> LinearCode:
    """The linear code generated by ``generators`` inside R^length."""
    return LinearCode(ring, length, generators, budget)
