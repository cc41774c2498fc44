"""Exact arithmetic in finite commutative rings with identity.

Two constructions cover everything the package needs: integer residue
rings Z/n and quotient extensions S[x]/(f) of an already-built ring S by
a monic polynomial f.  Stacking extensions yields towers such as
``Z/9[x]/(x^2+x+2)[y]/(y^2+6)``, which realize Galois rings and
extensions of Galois rings.

Elements are stored in canonical form (least nonnegative residues for
Z/n, reduced low-to-high coefficient tuples for extensions), so equality
and hashing are structural.  Rings and elements are immutable and hold no
mutating caches; every operation is a pure function, safe to share across
concurrent workers.

Units are decided algebraically, never by exhaustive search: by gcd for
Z/n, and for S[v]/(f) by the norm.  With f monic the extension is a free
S-module with basis 1, v, ..., v^(d-1), and a is a unit iff the
determinant of multiplication by a is a unit of S (McDonald, *Finite
Rings with Identity*, 1974); the inverse is read off the adjugate.  In a
finite commutative ring every non-unit is a zero divisor (0 included), so
the zero divisors are exactly the non-units.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator, Optional, Sequence

from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    NotInvertibleError,
    RingMismatchError,
)

#: Cap on exhaustive-enumeration work (candidate vectors / closure steps).
DEFAULT_ENUMERATION_BUDGET = 10_000_000

#: Variable names assigned to successive extension levels, innermost first.
VARIABLE_NAMES = ("x", "y", "z", "w", "t", "u", "v")


def resolve_budget(budget: Optional[int]) -> int:
    if budget is None:
        return DEFAULT_ENUMERATION_BUDGET
    if not isinstance(budget, int) or budget < 1:
        raise InvalidParameterError("enumeration budget must be a positive integer")
    return budget


def _det_raw(ring: "Ring", rows) -> object:
    """Determinant of square raw rows by first-row Laplace expansion; no
    division, so valid in the presence of zero divisors."""
    if len(rows) == 1:
        return rows[0][0]
    acc = ring._rzero
    for j, top in enumerate(rows[0]):
        if top != ring._rzero:
            acc = ring._radd(acc, ring._rmul(top, _cofactor_raw(ring, rows, 0, j)))
    return acc


def _cofactor_raw(ring: "Ring", rows, i: int, j: int) -> object:
    """(-1)^(i+j) times the determinant of ``rows`` without row i and column j."""
    minor = [row[:j] + row[j + 1 :] for r, row in enumerate(rows) if r != i]
    det = _det_raw(ring, minor) if minor else ring._rone
    return ring._rneg(det) if (i + j) % 2 else det


class Ring:
    """A finite commutative ring with identity.

    Concrete subclasses are :class:`IntegerResidueRing` and
    :class:`QuotientExtensionRing`.  Ring equality is structural: two
    rings are equal exactly when they were built by the same construction
    tree, and elements of equal rings interoperate freely.  Isomorphic
    but differently presented rings are deliberately distinct.

    Internally elements travel as canonical *raw* payloads (ints for Z/n,
    nested coefficient tuples for extensions); the ``_r*``/``_v*`` methods
    operate on raws so that exhaustive kernels stay off the
    :class:`RingElement` wrapper.
    """

    cardinality: int
    characteristic: int
    depth: int
    _rzero: object
    _rone: object
    _hash: int

    # -- raw kernel, provided by subclasses --------------------------------

    def _radd(self, a, b):
        raise NotImplementedError

    def _rmul(self, a, b):
        raise NotImplementedError

    def _rneg(self, a):
        raise NotImplementedError

    def _rsub(self, a, b):
        return self._radd(a, self._rneg(b))

    def _rfrom_int(self, k: int):
        raise NotImplementedError

    def _iter_raw(self) -> Iterator:
        raise NotImplementedError

    def _coerce_raw(self, value):
        raise NotImplementedError

    def _format_raw(self, raw) -> str:
        raise NotImplementedError

    # -- raw vector helpers (overridden for speed on Z/n) -------------------

    def _vadd(self, xs: tuple, ys: tuple) -> tuple:
        return tuple(self._radd(a, b) for a, b in zip(xs, ys))

    def _vscale(self, lam, xs: tuple) -> tuple:
        return tuple(self._rmul(lam, a) for a in xs)

    def _vdot(self, xs: tuple, ys: tuple):
        acc = self._rzero
        for a, b in zip(xs, ys):
            acc = self._radd(acc, self._rmul(a, b))
        return acc

    def _orthogonal_vectors(self, forms: Sequence[tuple], k: int) -> Iterator[tuple]:
        """Every x in R^k with x . f = 0 for each f in ``forms``, in
        lexicographic order.

        Meet in the middle (Horowitz-Sahni): x = (u, w) with w the last
        k // 2 coordinates.  Each w is tabulated under its negated tail
        values w . f_tail, each u looks up its head values u . f_head: about
        |R|^ceil(k/2) + |R|^floor(k/2) dot products plus the output instead
        of |R|^k candidate tests, and only the smaller half is stored.
        Forms beyond the first k (say, every word of a dual) are tested on
        the matches, so a long list costs at most the plain scan's tests.
        """
        p = k - k // 2
        raws = list(self._iter_raw())
        vdot, rneg, zero = self._vdot, self._rneg, self._rzero
        heads = [f[:p] for f in forms[:k]]
        tails = [f[p:] for f in forms[:k]]
        rest = forms[k:]
        table: dict = {}
        for w in product(raws, repeat=k - p):
            table.setdefault(tuple(rneg(vdot(w, t)) for t in tails), []).append(w)
        for u in product(raws, repeat=p):
            for w in table.get(tuple(vdot(u, h) for h in heads), ()):
                x = u + w
                if all(vdot(x, f) == zero for f in rest):
                    yield x

    # -- public surface -----------------------------------------------------

    def element(self, value) -> "RingElement":
        """Coerce ``value`` (int, element, or coefficient data) into this ring."""
        return RingElement(self, self._coerce_raw(value))

    def from_int(self, k: int) -> "RingElement":
        return RingElement(self, self._rfrom_int(k))

    def elements(self) -> Iterator["RingElement"]:
        """All elements exactly once, in lexicographic canonical order.

        A fresh iterator is produced on every call; nothing is cached.
        """
        for raw in self._iter_raw():
            yield RingElement(self, raw)

    def find_square_root_of_minus_one(
        self, budget: Optional[int] = None
    ) -> Optional["RingElement"]:
        """First u in enumeration order with u*u = -1, or None.

        The search is charged the nominal |R| candidates up front.
        """
        limit = resolve_budget(budget)
        if self.cardinality > limit:
            raise BudgetExceededError(
                f"square-root search needs {self.cardinality} candidate elements, "
                f"budget is {limit}"
            )
        minus_one = self._rneg(self._rone)
        for raw in self._iter_raw():
            if self._rmul(raw, raw) == minus_one:
                return RingElement(self, raw)
        return None

    def description(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.description()

    def __repr__(self) -> str:
        return f"<Ring {self.description()}>"

    def __hash__(self) -> int:
        return self._hash


class IntegerResidueRing(Ring):
    """The ring Z/n of integers modulo n, for n >= 2."""

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 2:
            raise InvalidParameterError(f"modulus must be an integer >= 2, got {n!r}")
        self.n = n
        self.cardinality = n
        self.characteristic = n
        self.depth = 0
        self._rzero = 0
        self._rone = 1 % n
        self._hash = hash(("Z/", n))
        self.zero = RingElement(self, 0)
        self.one = RingElement(self, self._rone)

    def _radd(self, a, b):
        return (a + b) % self.n

    def _rmul(self, a, b):
        return (a * b) % self.n

    def _rneg(self, a):
        return (-a) % self.n

    def _rsub(self, a, b):
        return (a - b) % self.n

    def _rfrom_int(self, k: int):
        return k % self.n

    def _iter_raw(self):
        return iter(range(self.n))

    def _coerce_raw(self, value):
        if isinstance(value, RingElement):
            if value.ring is self or value.ring == self:
                return value.raw
            raise RingMismatchError(
                f"element of {value.ring.description()} is not in {self.description()}"
            )
        if isinstance(value, int):
            return value % self.n
        raise InvalidParameterError(f"cannot interpret {value!r} as an element of Z/{self.n}")

    def _format_raw(self, raw) -> str:
        return str(raw)

    def _vadd(self, xs, ys):
        n = self.n
        return tuple((a + b) % n for a, b in zip(xs, ys))

    def _vscale(self, lam, xs):
        n = self.n
        return tuple((lam * a) % n for a in xs)

    def _vdot(self, xs, ys):
        return sum(a * b for a, b in zip(xs, ys)) % self.n

    def _is_unit_raw(self, raw) -> bool:
        return math.gcd(raw, self.n) == 1

    def _invert_raw(self, raw):
        return pow(raw, -1, self.n)

    def description(self) -> str:
        return f"Z/{self.n}"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, IntegerResidueRing) and other.n == self.n

    __hash__ = Ring.__hash__


class QuotientExtensionRing(Ring):
    """S[v]/(f) for a ring S and a monic polynomial f of degree >= 1.

    Elements are coefficient tuples over the base, length deg(f), low
    degree first.  The extension variable is the next unused name from
    ``VARIABLE_NAMES`` (x, then y, ...).  No irreducibility of f is
    checked or required: whether the result is a Galois ring is the
    caller's concern.
    """

    def __init__(self, base: Ring, modulus: Sequence):
        if not isinstance(base, Ring):
            raise InvalidParameterError("base must be a Ring")
        coeffs = [base._coerce_raw(c) for c in modulus]
        while coeffs and coeffs[-1] == base._rzero:
            coeffs.pop()
        if len(coeffs) < 2:
            raise InvalidParameterError("modulus must have degree >= 1")
        if coeffs[-1] != base._rone:
            raise InvalidParameterError(
                f"modulus must be monic, got leading coefficient {base._format_raw(coeffs[-1])}"
            )
        if base.depth >= len(VARIABLE_NAMES):
            raise InvalidParameterError(
                f"extension towers deeper than {len(VARIABLE_NAMES)} levels are unsupported"
            )
        self.base = base
        self.modulus = tuple(coeffs)
        self.degree = len(coeffs) - 1
        self.variable = VARIABLE_NAMES[base.depth]
        self.depth = base.depth + 1
        self.cardinality = base.cardinality**self.degree
        self.characteristic = base.characteristic
        d = self.degree
        self._rzero = (base._rzero,) * d
        one = [base._rzero] * d
        one[0] = base._rone
        self._rone = tuple(one)
        # x^(d+t) mod f as degree-<d coefficient rows, for t = 0 .. d-2.
        rows = [tuple(base._rneg(c) for c in self.modulus[:d])]
        for _ in range(d - 2):
            prev = rows[-1]
            top = prev[d - 1]
            shifted = (base._rzero,) + prev[: d - 1]
            rows.append(
                tuple(
                    base._radd(shifted[i], base._rmul(top, rows[0][i]))
                    for i in range(d)
                )
            )
        self._power_rows = tuple(rows)
        self._hash = hash(("ext", base, self.modulus))
        self.zero = RingElement(self, self._rzero)
        self.one = RingElement(self, self._rone)

    def generator(self) -> "RingElement":
        """The residue class of the extension variable."""
        raw = [self.base._rzero] * self.degree
        if self.degree == 1:
            # v is congruent to -f0 when f = v + f0.
            raw[0] = self.base._rneg(self.modulus[0])
        else:
            raw[1] = self.base._rone
        return RingElement(self, tuple(raw))

    def _radd(self, a, b):
        base = self.base
        return tuple(base._radd(x, y) for x, y in zip(a, b))

    def _rneg(self, a):
        base = self.base
        return tuple(base._rneg(x) for x in a)

    def _rmul(self, a, b):
        base = self.base
        d = self.degree
        if d == 1:
            return (base._rmul(a[0], b[0]),)
        zero = base._rzero
        conv = [zero] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai == zero:
                continue
            for j, bj in enumerate(b):
                if bj == zero:
                    continue
                conv[i + j] = base._radd(conv[i + j], base._rmul(ai, bj))
        out = conv[:d]
        for t in range(d - 1):
            ck = conv[d + t]
            if ck == zero:
                continue
            row = self._power_rows[t]
            for i in range(d):
                if row[i] != zero:
                    out[i] = base._radd(out[i], base._rmul(ck, row[i]))
        return tuple(out)

    def _norm_rows(self, a) -> list:
        """Rows a, a*v, ..., a*v^(d-1): the matrix of multiplication by a
        on the basis 1, v, ..., v^(d-1), whose determinant is the norm."""
        v, rows = self.generator().raw, [a]
        for _ in range(self.degree - 1):
            rows.append(self._rmul(rows[-1], v))
        return rows

    def _is_unit_raw(self, raw) -> bool:
        return self.base._is_unit_raw(_det_raw(self.base, self._norm_rows(raw)))

    def _invert_raw(self, raw):
        """Inverse of a unit: det^-1 times the first row of adj(M), the b
        with b*M = (1, 0, ..., 0)."""
        base = self.base
        rows = self._norm_rows(raw)
        det_inv = base._invert_raw(_det_raw(base, rows))
        return tuple(
            base._rmul(det_inv, _cofactor_raw(base, rows, j, 0))
            for j in range(self.degree)
        )

    def _rfrom_int(self, k: int):
        raw = [self.base._rzero] * self.degree
        raw[0] = self.base._rfrom_int(k)
        return tuple(raw)

    def _iter_raw(self):
        base_raws = list(self.base._iter_raw())
        return product(base_raws, repeat=self.degree)

    def _reduce_poly(self, coeffs: list) -> tuple:
        """Remainder of an arbitrary-degree coefficient list modulo f.

        f is monic, so synthetic division needs no base-ring inversions.
        """
        base = self.base
        d = self.degree
        work = list(coeffs)
        for k in range(len(work) - 1, d - 1, -1):
            c = work[k]
            if c == base._rzero:
                continue
            for i in range(d + 1):
                work[k - d + i] = base._rsub(work[k - d + i], base._rmul(c, self.modulus[i]))
        work = work[:d]
        while len(work) < d:
            work.append(base._rzero)
        return tuple(work)

    def _coerce_raw(self, value):
        if isinstance(value, RingElement):
            owner = value.ring
            if owner is self or owner == self:
                return value.raw
            if owner == self.base:
                raw = [self.base._rzero] * self.degree
                raw[0] = value.raw
                return tuple(raw)
            raise RingMismatchError(
                f"element of {owner.description()} is not in {self.description()}"
            )
        if isinstance(value, int):
            return self._rfrom_int(value)
        if isinstance(value, (list, tuple)):
            coeffs = [self.base._coerce_raw(c) for c in value]
            return self._reduce_poly(coeffs)
        raise InvalidParameterError(
            f"cannot interpret {value!r} as an element of {self.description()}"
        )

    def _format_terms(self, coeffs) -> list:
        """Nonzero terms of a low-to-high coefficient list, highest first."""
        base = self.base
        parts = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if c == base._rzero:
                continue
            if i == 0:
                parts.append(base._format_raw(c))
                continue
            power = self.variable if i == 1 else f"{self.variable}^{i}"
            if c == base._rone:
                parts.append(power)
            else:
                cs = base._format_raw(c)
                if "+" in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{power}")
        return parts

    def _format_raw(self, raw) -> str:
        return "+".join(self._format_terms(raw)) or "0"

    def description(self) -> str:
        modulus = "+".join(self._format_terms(self.modulus))
        return f"{self.base.description()}[{self.variable}]/({modulus})"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, QuotientExtensionRing)
            and other.modulus == self.modulus
            and other.base == self.base
        )

    __hash__ = Ring.__hash__


class RingElement:
    """An element of a :class:`Ring`, always in canonical form."""

    __slots__ = ("ring", "raw")

    def __init__(self, ring: Ring, raw):
        self.ring = ring
        self.raw = raw

    def _coerce_other(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            if other.ring is self.ring or other.ring == self.ring:
                return other
            raise RingMismatchError(
                f"cannot combine elements of {self.ring.description()} "
                f"and {other.ring.description()}"
            )
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce_other(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._radd(self.raw, other.raw))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce_other(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._rsub(self.raw, other.raw))

    def __rsub__(self, other):
        other = self._coerce_other(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._rsub(other.raw, self.raw))

    def __mul__(self, other):
        other = self._coerce_other(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._rmul(self.raw, other.raw))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, self.ring._rneg(self.raw))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.invert() ** (-exponent)
        result = self.ring.one
        base = self
        while exponent > 0:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, RingElement):
            return self.raw == other.raw and (
                other.ring is self.ring or other.ring == self.ring
            )
        if isinstance(other, int):
            return self.raw == self.ring._rfrom_int(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ring._hash, self.raw))

    def __bool__(self) -> bool:
        return self.raw != self.ring._rzero

    def is_zero(self) -> bool:
        return self.raw == self.ring._rzero

    def is_unit(self) -> bool:
        """True iff some b satisfies self * b = 1."""
        return self.ring._is_unit_raw(self.raw)

    def invert(self) -> "RingElement":
        """The multiplicative inverse; raises NotInvertibleError for non-units."""
        if not self.is_unit():
            raise NotInvertibleError(f"{self} is not a unit in {self.ring.description()}")
        return RingElement(self.ring, self.ring._invert_raw(self.raw))

    def is_zero_divisor(self) -> bool:
        """True iff some b != 0 satisfies self * b = 0 (so 0 qualifies); in a
        finite commutative ring these are exactly the non-units."""
        return not self.is_unit()

    def __str__(self) -> str:
        return self.ring._format_raw(self.raw)

    def __repr__(self) -> str:
        return f"<{self.ring._format_raw(self.raw)} in {self.ring.description()}>"


def make_integer_residue_ring(n: int) -> IntegerResidueRing:
    """The ring Z/n of integers modulo n (n >= 2)."""
    return IntegerResidueRing(n)


def make_quotient_extension(base: Ring, modulus: Sequence) -> QuotientExtensionRing:
    """The quotient S[v]/(f) with f given as low-to-high coefficients.

    ``modulus`` entries may be ints or base elements; the leading
    coefficient must reduce to 1.
    """
    return QuotientExtensionRing(base, modulus)


def is_probable_prime(n: int) -> bool:
    """Deterministic trial-division primality test; fine at this scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


#: Default degree-2 moduli for Galois rings GR(p^n, 2): coefficients of
#: x^2 + x + c, low degree first, with the smallest c >= 1 that leaves
#: the polynomial without roots modulo p (hence basic irreducible).
DEFAULT_DEGREE2_CONSTANTS = {2: 1, 3: 2, 5: 1, 7: 3, 11: 1, 13: 2, 17: 1, 19: 2, 23: 1}


def galois_ring(p: int, n: int, r: int) -> Ring:
    """The Galois ring GR(p^n, r) with a default modulus.

    Only r = 1 (plain Z/p^n) and r = 2 (via the shipped degree-2 modulus
    table) are supported; any other basic irreducible modulus can be used
    directly through :func:`make_quotient_extension`.
    """
    if not is_probable_prime(p):
        raise InvalidParameterError(f"p must be prime, got {p}")
    if n < 1 or r < 1:
        raise InvalidParameterError("n and r must be positive")
    base = IntegerResidueRing(p**n)
    if r == 1:
        return base
    if r == 2:
        try:
            c = DEFAULT_DEGREE2_CONSTANTS[p]
        except KeyError:
            raise InvalidParameterError(
                f"no default degree-2 modulus shipped for p = {p}"
            ) from None
        return QuotientExtensionRing(base, (c, 1, 1))
    raise InvalidParameterError(
        f"no default modulus shipped for extension degree {r}; "
        "construct the ring with make_quotient_extension"
    )
