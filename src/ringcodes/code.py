"""Linear codes over a finite commutative ring.

A :class:`LinearCode` is the submodule of R^m generated by a finite list
of vectors.  Every ring here is a free Z/n-module with basis
``ring._basis``, so C is the Z/n-span of the vectors b*g over basis raws
b and generators g.  One echelon form of that span modulo n
(:func:`ring.echelon`), computed on first use and never changed, decides
its size, containment and equality, free of charge.  Recomputing it
gives the same span, so the object is freely shareable without a lock;
the minimum distance, the dual's size and self-orthogonality are kept
next to it in the same way.

A matrix-product code C_A (:func:`mpc.build_mpc`) also keeps its input
codes and matrix.  When A is square and non-singular, y -> yA is a
bijection from C_1 x ... x C_s onto C_A, and C_A^perp is the product of
the C_i^perp under (A^-1)^t (Blackmore and Norton, AAECC 2001; the proof
holds over any commutative ring), so |C_A| = prod |C_i| and
|C_A^perp| = prod |C_i^perp| are read off the inputs and C_A's own echelon
form is built only when something else asks for it.

Words are enumerated only to list them, or to weigh p-torsion subcodes
for a distance that small supports miss (:func:`_min_weight`); each
subcode is C mod p when C is free at p, v_p(|C|) = v_p(n) * rank(C mod p),
and a kernel otherwise (:func:`_torsion_basis`).  A distance search is
bounded from above by the lightest word it knows: a basis row of a
torsion subcode, or for a row code the previous row code's distance
(:func:`mpc.row_code_min_distances`); it tests and weighs only below
that ceiling.  Both walks are charged |C|, read from the echelon form
before they start, whatever the ceiling saves.  The dual is the
kernel of x -> (<x, g_i>)_i, so its size is n^(m*width) over the size of
that map's image, another echelon form (:meth:`LinearCode._dual_size`);
this decides self-duality free of charge over any finite commutative
ring.  The dual as a code, a kernel over Z/n (:func:`ring.augmented`),
and its oracle :meth:`LinearCode.dual_bruteforce`, a plain scan of R^m,
are charged the nominal |R|^m.

A code holds no budget: every charge is checked against the enclosing
:func:`ring.enumeration_budget` when it is made (10^7 outside any block).
"""

from __future__ import annotations

import math
from itertools import combinations, product
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import InvalidParameterError, RingMismatchError, ShapeError, UndefinedDistanceError
from .ring import Ring, RingElement, augmented, charge, echelon, echelon_size, echelon_words
from .ring import MAX_DIGITS, TOO_LONG, _prime_divisors, _valuation, reduced


def _coerce_vector(ring: Ring, length: int, vector: Sequence) -> tuple:
    if isinstance(vector, (list, tuple)):
        coords = vector
    else:
        raise InvalidParameterError(f"expected a coordinate sequence, got {vector!r}")
    _check_length(coords, length)
    return tuple(ring._coerce_raw(c) for c in coords)


def _check_length(coords: Sequence, length: int) -> None:
    if len(coords) != length:
        raise ShapeError(f"vector has {len(coords)} coordinates, expected {length}")


#: Refusals, formatted by :func:`ring.charge`.
_WALK_REFUSAL = "enumerating the code needs {need} words, budget is {limit}"
_DUAL_REFUSAL = "dual enumeration needs {need} candidate vectors, budget is {limit}"


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


def _torsion_basis(n: int, p: int, rows: dict, size: int) -> list:
    """C[p] = {c in C : pc = 0} for C the Z/n-span of the echelon form
    ``rows`` of vectors of ``size`` coordinates, divided by n/p: its reduced
    echelon form over F_p (:func:`ring.reduced`), leading 1s first, sorted.

    With p^e the p-part of n and the p-part of C a sum of Z/p^a_i, (n/p)C
    has one Z/p for each a_i = e and C[p] one for each summand, so
    C[p] = (n/p)C, which divided by n/p is C mod p, iff every a_i = e (C is
    free at p).  A word of the p-part of order below p^e has every
    coordinate divisible by p, so C mod p has rank #{a_i = e}, and the test
    is v_p(|C|) = e * rank(C mod p).  Otherwise C[p] is read off a kernel
    (:func:`_torsion_kernel`).  Over Z/p the echelon form of C already
    has unit pivots, and C[p] = C."""
    if n == p:
        return sorted(reduced(p, rows).items())
    gens = list(rows.values())
    form = echelon(p, [[x % p for x in g] for g in gens])
    if _valuation(echelon_size(n, rows), p) != _valuation(n, p) * len(form):
        form = echelon(p, _torsion_kernel(n, p, gens, size))
    return sorted(reduced(p, form).items())


def _torsion_kernel(n: int, p: int, gens: list, size: int) -> list:
    """C[p] divided by n/p, spanned over F_p, for C the Z/n-span of ``gens``:
    the image of the kernel of x -> pxG, whose rows (0, x) lead past
    ``size`` in :func:`ring.augmented` of pG."""
    pg = [tuple(p * x % n for x in g) for g in gens]
    kernel = [h[size:] for c, h in augmented(n, pg).items() if c >= size]
    return [[sum(map(mul, x, col)) % n // (n // p) for col in zip(*gens)] for x in kernel]


def _min_weight(
    ring: Ring, rows: dict, length: int, ceiling: Optional[int] = None
) -> Optional[int]:
    """Least weight of a nonzero word in the span C of an echelon form of
    raw vectors of ``length`` entries (None if none), at most ``ceiling``,
    the weight of a word of C the caller already knows.

    A word c of additive order N_c and a prime p | N_c give (N_c/p)c != 0,
    killed by p, inside supp(c).  So, over the primes p dividing the
    exponent of C (which divides |C|), a set S of entries holds a nonzero
    word of C iff it holds one of some C[p] (:func:`_torsion_basis`, a
    closed form exactly when C is free at p), and d(C) is the
    least d(C[p]).  Each row h of a reduced basis of C[p] is the word
    (n/p)h of C, so the ceiling drops to the least row weight, and only
    lighter words are sought.  In the reduced basis a word inside S
    combines only the rows leading in S, so S holds one iff those rows are
    dependent outside S.  Sizes |S| = 1, 2, ... below the ceiling are
    tested while the tests number at most the words of the C[p] up to
    scalars; past that, those words are weighed.  Nothing here is charged:
    the callers charge |C| (or the row scan) whatever the ceiling.
    """
    if not rows:
        return None
    if ceiling == 1:  # a nonzero word weighs at least 1
        return 1
    n, width, zero = ring.characteristic, ring.width, ring._rzero
    size = length * width
    exponent = math.lcm(*(n // math.gcd(h[c], n) for c, h in rows.items()))
    bases = [(p, _torsion_basis(n, p, rows, size)) for p in _prime_divisors(exponent)]
    ceiling = min([ceiling or length] + [
        length - ring._unflat(h).count(zero) for _, basis in bases for _, h in basis
    ])
    blocks = [i // width for i in range(size)]
    count = sum((p ** len(basis) - 1) // (p - 1) for p, basis in bases)
    floor, tested = 1, 0
    while floor < ceiling and (tested := tested + math.comb(length, floor)) <= count:
        for s in combinations(range(length), floor):
            for p, basis in bases:
                led = [h for c, h in basis if c // width in s]
                outside = [[x for x, b in zip(h, blocks) if b not in s] for h in led]
                if len(echelon(p, outside)) < len(led):
                    return floor
        floor += 1
    if floor == ceiling:  # no support below the ceiling holds a word
        return ceiling
    best = ceiling
    for p, basis in bases:
        for j, (c, head) in enumerate(basis):
            for w in echelon_words(p, dict(basis[j + 1 :]), size):
                weight = length - ring._unflat([(x + y) % p for x, y in zip(head, w)]).count(zero)
                if weight < best:
                    best = weight
                    if best == floor:
                        return best
    return best


class LinearCode:
    """An R-submodule of R^m given by a finite generating set."""

    def __init__(self, ring: Ring, length: int, generators: Iterable[Sequence]):
        if length < 1:
            raise InvalidParameterError("code length must be >= 1")
        # |R|^m is formed only when it has at most twice the bits of TOO_LONG.
        card = ring.cardinality
        if (card.bit_length() - 1) * length >= TOO_LONG.bit_length() or card**length >= TOO_LONG:
            raise InvalidParameterError(
                f"code length {length} is too long: |R|^{length} has more than "
                f"{MAX_DIGITS} digits"
            )
        self.ring = ring
        self.length = length
        self._gen_raws = tuple(_coerce_vector(ring, length, g) for g in generators)
        self._span: Optional[dict] = None
        self._distance: Optional[int] = None
        self._dual_count: Optional[int] = None
        self._orthogonal: Optional[bool] = None
        #: (input codes, A) for a matrix-product code, set by its builder.
        self._factors: Optional[tuple] = None

    @classmethod
    def _from_raws(cls, ring: Ring, length: int, gen_raws, rows=None) -> "LinearCode":
        """A code from raw generator vectors, which the public constructor
        would misread as coefficient data, and optionally the echelon form
        of their span, already paid for.  Each generator must have
        ``length`` coordinates."""
        code = cls(ring, length, ())
        code._gen_raws = tuple(gen_raws)
        for g in code._gen_raws:
            _check_length(g, length)
        code._span = rows
        return code

    # -- echelon form ---------------------------------------------------------

    def _module(self) -> dict:
        """The echelon form of C over Z/n (:func:`ring.echelon`), uncharged."""
        if self._span is None:
            self._span = self.ring._span_echelon(self._gen_raws)
        return self._span

    def _inputs(self) -> Optional[tuple]:
        """The input codes C_i of a product under a square non-singular A
        (its remembered rank), whose sizes and dual sizes multiply to C's;
        else None."""
        if self._factors is None:
            return None
        codes, a = self._factors
        return codes if a.rows == a.cols and a.has_full_rank() else None

    def _walked(self, rows: dict) -> dict:
        """``rows``, once the walk over every word of their span, counted
        from the echelon form, fits the budget."""
        charge(echelon_size(self.ring.characteristic, rows), _WALK_REFUSAL)
        return rows

    def _spans(self, vectors) -> bool:
        """True iff every raw vector lies in C."""
        ring, n = self.ring, self.ring.characteristic
        rows = self._module()
        grown = echelon(n, [ring._flat(v) for v in vectors], rows)
        return echelon_size(n, grown) == echelon_size(n, rows)

    def _close_span(self) -> frozenset:
        """Every word of C, from the echelon form, charged |C|.  Only listing
        words needs this."""
        ring = self.ring
        flat = echelon_words(
            ring.characteristic, self._walked(self._module()), self.length * ring.width
        )
        return frozenset(ring._unflat(w) for w in flat)

    def _least_words(self, count: int) -> list:
        """The ``count`` least words of C, sorted (all, if C has fewer; flat
        and raw words sort alike).  The echelon rows at columns >= c span
        the words zero before c (:func:`ring.echelon`), which sort first, so
        only the smallest such trailing form holding ``count`` is listed,
        and charged its size."""
        ring, n = self.ring, self.ring.characteristic
        rows, tail = self._module(), {}
        for c in sorted(rows, reverse=True):
            if echelon_size(n, tail) >= count:
                break
            tail[c] = rows[c]
        flat = sorted(echelon_words(n, self._walked(tail), self.length * ring.width))[:count]
        return [ring._unflat(w) for w in flat]

    # -- views ---------------------------------------------------------------

    @property
    def generators(self) -> tuple[tuple[RingElement, ...], ...]:
        ring = self.ring
        return tuple(tuple(RingElement(ring, c) for c in g) for g in self._gen_raws)

    def codewords(self) -> frozenset:
        ring = self.ring
        return frozenset(
            tuple(RingElement(ring, c) for c in w) for w in self._close_span()
        )

    @property
    def cardinality(self) -> int:
        """|C|: prod |C_i| for a product under a non-singular matrix
        (:meth:`_inputs`), else the size of the echelon form."""
        codes = self._inputs()
        if codes is not None:
            return math.prod(c.cardinality for c in codes)
        return echelon_size(self.ring.characteristic, self._module())

    def contains(self, vector: Sequence) -> bool:
        return self._spans([_coerce_vector(self.ring, self.length, vector)])

    def sorted_codewords(self) -> list[tuple[RingElement, ...]]:
        ring = self.ring
        return [
            tuple(RingElement(ring, c) for c in w)
            for w in sorted(self._close_span())
        ]

    # -- predicates -----------------------------------------------------------

    def is_self_orthogonal(self) -> bool:
        """C is a subset of its dual; by bilinearity it suffices to test
        the generator pairs, once: the answer is remembered."""
        if self._orthogonal is None:
            ring = self.ring
            zero = ring._rzero
            gens = self._gen_raws
            for i, g in enumerate(gens):
                for h in gens[i:]:
                    if ring._vdot(g, h) != zero:
                        self._orthogonal = False
                        return False
            self._orthogonal = True
        return self._orthogonal

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
        """True iff every generator of C lies in other."""
        self._check_compatible(other)
        return other._spans(self._gen_raws)

    def is_self_dual(self) -> bool:
        """Self-orthogonal, so C is inside C^perp, and as large as C^perp
        (:meth:`_dual_size`); exact over any finite commutative ring, and no
        vector of R^m is scanned."""
        return self.is_self_orthogonal() and self._dual_size() == self.cardinality

    def _check_compatible(self, other: "LinearCode") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("codes live over different rings")
        if self.length != other.length:
            raise ShapeError(f"length mismatch: {self.length} vs {other.length}")

    # -- dual ------------------------------------------------------------------

    def _dual_size(self) -> int:
        """|C^perp|, uncharged and remembered.  C^perp is the kernel of
        x -> (<x, g_i>)_i, over Z/n a map from the n^(m*width) flat vectors
        onto the span of the b*(g_1[j], ..., g_k[j]), so |C^perp| is
        n^(m*width) over that span's size; its echelon form has at most
        k*width rows.  A product under a non-singular matrix takes
        prod |C_i^perp| instead (:meth:`_inputs`)."""
        if self._dual_count is None:
            codes = self._inputs()
            if codes is not None:
                self._dual_count = math.prod(c._dual_size() for c in codes)
            else:
                ring, n = self.ring, self.ring.characteristic
                image = ring._span_echelon(zip(*self._gen_raws))
                self._dual_count = n ** (self.length * ring.width) // echelon_size(n, image)
        return self._dual_count

    def dual(self) -> "LinearCode":
        """C^perp, the kernel of x -> (<x, g_i>)_i, with at most m*width
        generators: over Z/n the map is a matrix K, and the rows of
        :func:`ring.augmented` of K that lead past K are the (0, x) with
        xK = 0.  Charged |R|^m, like its oracle :meth:`dual_bruteforce`."""
        ring, m = self.ring, self.length
        charge(ring.cardinality**m, _DUAL_REFUSAL)
        columns = list(zip(*self._gen_raws)) or [()] * m
        skip = len(self._gen_raws) * ring.width
        form = augmented(ring.characteristic, ring._zn_rows(columns))
        kernel = {c - skip: h[skip:] for c, h in sorted(form.items()) if c >= skip}
        return self._from_raws(ring, m, map(ring._unflat, kernel.values()), kernel)

    def dual_bruteforce(self) -> "LinearCode":
        """All x in R^m orthogonal to every generator, by scanning all of
        R^m; the oracle for :meth:`dual` and :meth:`is_self_dual`.

        The result's generator list is its entire codeword set, sorted.
        """
        ring = self.ring
        charge(ring.cardinality**self.length, _DUAL_REFUSAL)
        vdot, zero = ring._vdot, ring._rzero
        words = [
            x
            for x in product(ring._iter_raw(), repeat=self.length)
            if all(vdot(x, g) == zero for g in self._gen_raws)
        ]
        rows = echelon(ring.characteristic, map(ring._flat, words))
        return self._from_raws(ring, self.length, words, rows)

    # -- metrics -----------------------------------------------------------------

    def min_distance(self) -> int:
        """Minimum Hamming weight over nonzero codewords, charged |C| on every
        call, from small supports or p-torsion subcodes (:func:`_min_weight`),
        weighed on the first call that the charge lets through."""
        rows = self._walked(self._module())
        if self._distance is None:
            self._distance = _min_weight(self.ring, rows, self.length)
        best = self._distance
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
            and self.cardinality == other.cardinality
            and other._spans(self._gen_raws)
        )

    def __repr__(self) -> str:
        return (
            f"<LinearCode over {self.ring.description()} length {self.length} "
            f"with {len(self._gen_raws)} generators>"
        )


def span(ring: Ring, length: int, generators: Iterable[Sequence]) -> LinearCode:
    """The linear code generated by ``generators`` inside R^length."""
    return LinearCode(ring, length, generators)
