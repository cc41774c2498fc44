"""Exact arithmetic in finite commutative rings with identity.

Two constructions cover everything the package needs: integer residue
rings Z/n and quotient extensions S[x]/(f) of an already-built ring S by
a monic polynomial f.  Stacking extensions yields towers such as
``Z/9[x]/(x^2+x+2)[y]/(y^2+6)``, which realize Galois rings and
extensions of Galois rings.

Elements are stored in canonical form (least nonnegative residues for
Z/n, flat tuples of Z/n coordinates for extensions), so equality and
hashing are structural.  Rings and elements are immutable and hold no
mutating caches; every operation is a pure function, safe to share across
concurrent workers.

Spans are decided algebraically, never by exhaustive search: R^m is a
free Z/n-module, and one echelon form modulo n (:func:`echelon`) gives
their sizes and kernels.  Units are a span question too: a is a unit iff
aR = R, one echelon count (gcd on Z/n).  In a finite commutative ring
every non-unit is a zero divisor (0 included), so the zero divisors are
exactly the non-units.  Inverses of units and of matrices are read off
the reduced echelon form of [M | I] (:func:`augmented`, :func:`reduced`).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain, combinations_with_replacement, product
from operator import mul
from typing import Iterator, Optional, Sequence

from .errors import (
    BudgetExceededError,
    CertificateError,
    InvalidParameterError,
    NotInvertibleError,
    RingMismatchError,
)

#: Cap on exhaustive-enumeration work (candidate vectors / closure steps).
DEFAULT_ENUMERATION_BUDGET = 10_000_000

#: Variable names assigned to successive extension levels, innermost first.
VARIABLE_NAMES = ("x", "y", "z", "w", "t", "u", "v")

#: Cap on the Z/n coordinates of an extension element: its product table
#: holds width^2 entries of up to width terms.
MAX_WIDTH = 64

#: Python's default cap on converting between an int and a decimal string.
MAX_DIGITS = 4300

#: The least int of more than MAX_DIGITS digits.
TOO_LONG = 10**MAX_DIGITS

#: Refusals echo an integer of up to this many digits, or a text of up to
#: this many characters; a longer one is named by its length.
_ECHO_DIGITS = 40


def _echo(text: str, long: str = "a text of") -> str:
    """``repr(text)`` for a refusal, or past _ECHO_DIGITS characters
    ``long`` and the length: "a text of 100000 characters"."""
    if len(text) <= _ECHO_DIGITS:
        return repr(text)
    return f"{long} {len(text)} characters"


#: The limit every charge of the current request is checked against.
_LIMIT: ContextVar[int] = ContextVar("enumeration_budget", default=DEFAULT_ENUMERATION_BUDGET)


@contextmanager
def enumeration_budget(limit: Optional[int] = None) -> Iterator[int]:
    """Check every charge made inside the block against ``limit``, 10^7
    when None, as :func:`decimal.localcontext` scopes a precision.

    The limit is local to the thread or task, and the enclosing one is
    restored when the block exits, normally or by an exception.  Outside
    any block the limit is 10^7."""
    if limit is None:
        limit = DEFAULT_ENUMERATION_BUDGET
    elif not isinstance(limit, int) or limit < 1:
        raise InvalidParameterError("enumeration budget must be a positive integer")
    token = _LIMIT.set(limit)
    try:
        yield limit
    finally:
        _LIMIT.reset(token)


def charge(cost: Optional[int], refusal: str) -> None:
    """Raise every :class:`BudgetExceededError` of the package: ``refusal``
    formatted with ``need`` and ``limit`` when ``cost`` exceeds the
    enclosing :func:`enumeration_budget`.  A cost of None, too long to
    form, or of more than MAX_DIGITS digits, too long to print, is named
    "more than <limit>", and one of more than _ECHO_DIGITS digits by its
    digit count."""
    limit = _LIMIT.get()
    if cost is None or cost > limit:
        if cost is None or cost >= TOO_LONG:
            need = f"more than {limit}"
        elif cost >= 10**_ECHO_DIGITS:
            need = f"a {len(str(cost))}-digit number of"
        else:
            need = cost
        raise BudgetExceededError(refusal.format(need=need, limit=limit))


def check_width(base: "Ring", degree: int) -> None:
    """Refuse an extension of ``base`` of this degree: more than
    ``MAX_WIDTH`` coordinates."""
    if base.width * degree > MAX_WIDTH:
        raise InvalidParameterError(
            f"extensions with more than {MAX_WIDTH} coordinates over "
            f"Z/{base.characteristic} are unsupported, got {base.width * degree}"
        )


def square_and_multiply(base, exponent: int, one, times=mul):
    """base^exponent for an exponent >= 0 by ``times`` (the values' own
    ``*`` by default): one squaring per bit but the last, and one
    multiplication per set bit but the lowest, whose power starts the
    product (``one`` for 0)."""
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else times(result, base)
        exponent >>= 1
        if exponent:
            base = times(base, base)
    return one if result is None else result


def echelon(n: int, vectors, rows: Optional[dict] = None) -> dict:
    """Echelon form, as {leading column: row}, of the Z/n-span of
    ``vectors`` and of ``rows`` (which is not modified).

    Howell's rule (Linear and Multilinear Algebra 20, 1986): a vector is
    combined with the row at its leading column by extended-gcd row
    operations, and with every row h set at column c, (n/gcd(h_c, n))*h
    is inserted too.  Then the rows at columns >= c span every vector of
    the span that is zero before c, so its words are the sums of
    lambda_c h_c over 0 <= lambda_c < n/gcd(h_c, n), each once.
    """
    rows = dict(rows or {})
    todo = list(vectors)
    while todo:
        v = todo.pop()
        for c, x in enumerate(v):
            if x:
                break
        else:
            continue
        h = rows.get(c)
        if h is None:
            rows[c] = h = tuple(v)
        else:
            a, b = h[c], v[c]
            g = math.gcd(a, b)
            ag, bg = a // g, b // g
            # [[s, t], [b/g, -a/g]] is unimodular, so the span is kept.
            todo.append(tuple([(bg * x - ag * y) % n for x, y in zip(h, v)]))
            if g == a:
                continue
            s = pow(ag, -1, bg)
            t = (g - s * a) // b
            rows[c] = h = tuple([(s * x + t * y) % n for x, y in zip(h, v)])
        k = n // math.gcd(h[c], n)
        if k < n:  # else h_c is a unit and k*h = 0
            todo.append(tuple([k * x % n for x in h]))
    return rows


def echelon_size(n: int, rows: dict) -> int:
    """Number of words in the span of an :func:`echelon` form."""
    return math.prod(n // math.gcd(h[c], n) for c, h in rows.items())


def augmented(n: int, rows: list) -> dict:
    """:func:`echelon` of [M | I] for the rows of M over Z/n.  Its rows that
    lead past M are the (0, x) with xM = 0 and span that kernel, so a square
    M is invertible iff none does, and then each column holds a unit pivot."""
    k = len(rows)
    return echelon(n, [tuple(h) + (0,) * r + (1,) + (0,) * (k - 1 - r) for r, h in enumerate(rows)])


def reduced(n: int, form: dict) -> dict:
    """An :func:`echelon` form of the same span with each unit pivot scaled
    to 1 and cleared from the other rows, as tuples."""
    out = {}
    for c in sorted(form, reverse=True):
        h = form[c]
        for d, g in out.items():
            if h[d] and g[d] == 1:  # 1 is the scaled unit pivot; others are not units
                h = [(x - h[d] * y) % n for x, y in zip(h, g)]
        if math.gcd(h[c], n) == 1:
            inverse = pow(h[c], -1, n)
            h = [inverse * x % n for x in h]
        out[c] = tuple(h)
    return out


def echelon_words(n: int, rows: dict, length: int) -> Iterator[tuple]:
    """Every word of the span of an :func:`echelon` form of vectors of
    ``length`` coordinates, once each, holding only about the square root
    of their number: the sums over the rows of fewest multiples."""
    zero = (0,) * length
    levels = sorted(
        ([tuple(lam * x % n for x in h) for lam in range(n // math.gcd(h[c], n))]
         for c, h in rows.items()),
        key=len,
    )
    size, tails = echelon_size(n, rows), [zero]
    while levels and len(tails) ** 2 < size:
        multiples = levels.pop(0)
        tails = [tuple([(x + y) % n for x, y in zip(w, v)]) for w in tails for v in multiples]
    for combo in product(*levels):
        head = zero
        for v in combo:
            head = tuple([(x + y) % n for x, y in zip(head, v)])
        for w in tails:
            yield tuple([(x + y) % n for x, y in zip(head, w)])


class Ring:
    """A finite commutative ring with identity.

    Concrete subclasses are :class:`IntegerResidueRing` and
    :class:`QuotientExtensionRing`.  Ring equality is structural: two
    rings are equal exactly when they were built by the same construction
    tree, and elements of equal rings interoperate freely.  Isomorphic
    but differently presented rings are deliberately distinct.

    Internally elements travel as canonical *raw* payloads: ints for Z/n,
    and for extensions one flat tuple of ``width`` coordinates in Z/n (see
    :class:`QuotientExtensionRing`); the ``_r*``/``_v*`` methods operate on
    raws so that exhaustive kernels stay off the :class:`RingElement`
    wrapper.
    """

    cardinality: int
    characteristic: int
    depth: int
    width: int
    _rzero: object
    _rone: object
    _hash: int
    #: The raws of the tower variables, by name, for the notation parser.
    _variables: dict

    # -- raw kernel, provided by subclasses (with _vdot and _zn_rows) -------

    def _radd(self, a, b):
        raise NotImplementedError

    def _rmul(self, a, b):
        raise NotImplementedError

    def _rneg(self, a):
        raise NotImplementedError

    def _rsub(self, a, b):
        return self._radd(a, self._rneg(b))

    def _rpow(self, a, exponent: int):
        return square_and_multiply(a, exponent, self._rone, self._rmul)

    def _rfrom_int(self, k: int):
        raise NotImplementedError

    def _iter_raw(self) -> Iterator:
        raise NotImplementedError

    def _coerce_raw(self, value):
        raise NotImplementedError

    def _format_raw(self, raw) -> str:
        raise NotImplementedError

    # -- raw vector helpers (overridden for speed on Z/n) -------------------

    def _vscale(self, lam, xs: tuple) -> tuple:
        return tuple(self._rmul(lam, a) for a in xs)

    def _flat(self, xs: tuple) -> tuple:
        """The Z/n coordinates of a raw vector, ``width`` per entry."""
        return tuple(chain.from_iterable(xs))

    def _unflat(self, flat: Sequence[int]) -> tuple:
        """The raw vector of a flat coordinate vector."""
        w = self.width
        return tuple(tuple(flat[i : i + w]) for i in range(0, len(flat), w))

    def _span_echelon(self, vectors, rows: Optional[dict] = None) -> dict:
        """:func:`echelon` of ``rows`` and the R-span of raw vectors."""
        return echelon(self.characteristic, self._zn_rows(vectors), rows)

    def _full_rank(self, raw_rows) -> bool:
        """True iff x*A = 0 forces x = 0: the rows A of raws span |R|^rows words."""
        rows = self._span_echelon(raw_rows)
        return echelon_size(self.characteristic, rows) == self.cardinality ** len(raw_rows)

    def _is_unit_raw(self, raw) -> bool:
        """a is a unit iff aR = R."""
        return self._full_rank([(raw,)])

    def _inverse_rows(self, raw_rows) -> Optional[list]:
        """The rows of A^-1 for a square A of raws, or None if A is singular:
        over Z/n, x -> xA is M (:meth:`_zn_rows`), and row i of A^-1 is row
        i*width of M^-1, read off the :func:`reduced` :func:`augmented` form.
        Each row r_i is checked to give r_i A = e_i, as flat(r_i) M =
        flat(e_i) over Z/n (over a commutative ring A^-1 A = I forces
        A A^-1 = I); a failure raises :class:`CertificateError`."""
        n, width, size = self.characteristic, self.width, len(raw_rows) * self.width
        matrix = self._zn_rows(raw_rows)
        form = augmented(n, matrix)
        if max(form) >= size:
            return None
        rows = reduced(n, form)
        inverse = [rows[i][size:] for i in range(0, size, width)]
        one, columns = self._flat((self._rone,)), list(zip(*matrix))
        for i, x in enumerate(inverse):
            unit = (0,) * (i * width) + one + (0,) * (size - (i + 1) * width)
            if tuple(sum(map(mul, x, col)) % n for col in columns) != unit:
                raise CertificateError("the inverse read off [M | I] failed its self-check")
        return [self._unflat(x) for x in inverse]

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

    def find_square_root_of_minus_one(self) -> Optional["RingElement"]:
        """First u in enumeration order with u*u = -1, or None.

        The search is charged the nominal |R| candidates up front.
        """
        refusal = "square-root search needs {need} candidate elements, budget is {limit}"
        charge(self.cardinality, refusal)
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
        self.width = 1
        self._basis = (1,)
        self._variables = {}
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

    def _vscale(self, lam, xs):
        n = self.n
        return tuple((lam * a) % n for a in xs)

    def _vdot(self, xs, ys):
        return sum(map(mul, xs, ys)) % self.n

    def _zn_rows(self, vectors):
        """The flat b*g for every raw vector g and basis raw b, in that order:
        over Z/n, the rows of x -> xG, whose span is the R-span of G.  On
        Z/n the one basis raw is 1, so the rows are the vectors."""
        return [tuple(g) for g in vectors]

    def _flat(self, xs):
        return tuple(xs)

    def _unflat(self, flat):
        return tuple(flat)

    def _is_unit_raw(self, raw) -> bool:
        # The echelon count in closed form: the span of a has n/gcd(a, n) words.
        return math.gcd(raw, self.n) == 1

    def description(self) -> str:
        return f"Z/{self.n}"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, IntegerResidueRing) and other.n == self.n

    __hash__ = Ring.__hash__


class QuotientExtensionRing(Ring):
    """S[v]/(f) for a ring S and a monic polynomial f of degree >= 1.

    An element a_0 + a_1 v + ... + a_(d-1) v^(d-1) is stored as the
    concatenation of its base coefficients, each flat in turn: ``width``
    coordinates in Z/n, whose lexicographic order is the nested order.
    Addition is coordinatewise mod n; multiplication reads one table of the
    nonzero coordinates (k, c) of e_i * e_j for the coordinate basis e_i.
    e_i * e_j is (b b') v^k for base basis raws b, b', so each base pair
    fills its entries for k = 0, ..., 2d - 2 by repeated multiplication by
    v.  Dot products reduce mod n once, and :meth:`_zn_rows` reads each
    coordinate's multiplication matrix off the table.
    The extension variable is the next unused name from
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
        d = len(coeffs) - 1
        check_width(base, d)
        self.base = base
        self.modulus = tuple(coeffs)
        self.degree = d
        self.width = base.width * d
        self.variable = VARIABLE_NAMES[base.depth]
        self.depth = base.depth + 1
        self.cardinality = base.cardinality**d
        self.characteristic = base.characteristic
        self._rzero = (0,) * self.width
        self._rone = (1,) + self._rzero[1:]
        # The coordinate basis e_0, ..., e_(width-1) as raws.
        w, bw, n = self.width, base.width, self.characteristic
        self._basis = tuple(self._rzero[:i] + (1,) + self._rzero[i + 1 :] for i in range(w))
        # e_(t*bw+i) * e_(u*bw+j) = (b_i b_j) v^(t+u), for i <= j and by
        # symmetry.  Multiplication by v moves each block up one and folds
        # coordinate q of the top block into -(b_q f_0 || ... || b_q f_(d-1)),
        # row q of base._zn_rows.
        fold = [[-x % n for x in row] for row in base._zn_rows([coeffs[:d]])]
        pairs = base._zn_rows([(b,) for b in base._basis])  # b_i b_j at i*bw + j
        self._table = table = [[()] * w for _ in range(w)]
        for i, j in combinations_with_replacement(range(bw), 2):
            poly, k = list(pairs[i * bw + j]) + [0] * (w - bw), 0
            while True:
                entry = tuple([(c, x) for c, x in enumerate(poly) if x])
                for t in range(max(0, k - d + 1), min(k, d - 1) + 1):
                    table[t * bw + i][(k - t) * bw + j] = entry
                    table[(k - t) * bw + j][t * bw + i] = entry
                if k == 2 * d - 2:
                    break
                top, poly, k = poly[w - bw :], [0] * bw + poly[: w - bw], k + 1
                for x, row in zip(top, fold):
                    if x:
                        poly = [(y + x * r) % n for y, r in zip(poly, row)]
        self._hash = hash(("ext", base, self.modulus))
        self.zero = RingElement(self, self._rzero)
        self.one = RingElement(self, self._rone)
        # v is e_bw, or v * 1 = -f_0 (fold row 0, as b_0 = 1) when d = 1.
        pad = self._rzero[bw:]
        self._variables = {name: base._flat((raw,)) + pad for name, raw in base._variables.items()}
        self._variables[self.variable] = self._basis[bw] if d > 1 else tuple(fold[0])

    def generator(self) -> "RingElement":
        """The residue class of the extension variable."""
        return RingElement(self, self._variables[self.variable])

    def _radd(self, a, b):
        n = self.characteristic
        return tuple([(x + y) % n for x, y in zip(a, b)])

    def _rneg(self, a):
        n = self.characteristic
        return tuple([-x % n for x in a])

    def _rmul(self, a, b):
        return self._vdot((a,), (b,))

    def _vdot(self, xs, ys):
        n, out = self.characteristic, [0] * self.width
        for a, b in zip(xs, ys):
            for ai, row in zip(a, self._table):
                if ai:
                    for bj, entries in zip(b, row):
                        if bj:
                            p = ai * bj
                            for k, c in entries:
                                out[k] += p * c
        return tuple([x % n for x in out])

    def _zn_rows(self, vectors):
        # Row i of multiplication by a raw a is e_i * a: row i of the table
        # weighted by a's coordinates.
        n, w, out = self.characteristic, self.width, []
        for g in vectors:
            rows = [[0] * (w * len(g)) for _ in range(w)]
            for offset, a in zip(range(0, w * len(g), w), g):
                for acc, row in zip(rows, self._table):
                    for aj, entries in zip(a, row):
                        if aj:
                            for k, c in entries:
                                acc[offset + k] += aj * c
            out += [tuple([x % n for x in acc]) for acc in rows]
        return out

    def _rfrom_int(self, k: int):
        return (k % self.characteristic,) + self._rzero[1:]

    def _iter_raw(self):
        return product(range(self.characteristic), repeat=self.width)

    def _reduce_poly(self, coeffs: list) -> tuple:
        """Flat raw of the remainder of a base-raw coefficient list of any
        degree modulo f.

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
        return base._flat(work[:d] + [base._rzero] * (d - len(work)))

    def _coerce_raw(self, value):
        if isinstance(value, RingElement):
            owner = value.ring
            if owner is self or owner == self:
                return value.raw
            if owner == self.base:
                return self._reduce_poly([value.raw])
            raise RingMismatchError(
                f"element of {owner.description()} is not in {self.description()}"
            )
        if isinstance(value, int):
            return self._rfrom_int(value)
        if isinstance(value, (list, tuple)):
            return self._reduce_poly([self.base._coerce_raw(c) for c in value])
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
        return "+".join(self._format_terms(self.base._unflat(raw))) or "0"

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
        return RingElement(self.ring, self.ring._rpow(self.raw, exponent))

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
        inverse = self.ring._inverse_rows([(self.raw,)])
        if inverse is None:
            raise NotInvertibleError(f"{self} is not a unit in {self.ring.description()}")
        return RingElement(self.ring, inverse[0][0])

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


def _prime_divisors(k: int) -> set:
    """The primes dividing k, by trial division up to sqrt(k)."""
    primes, q = set(), 2
    while q * q <= k:
        while k % q == 0:
            primes.add(q)
            k //= q
        q += 1
    return primes | {k} - {1}


def _valuation(k: int, p: int) -> int:
    """The exponent of the prime p in k != 0."""
    e = 0
    while k % p == 0:
        k //= p
        e += 1
    return e


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
    if not (p >= 2 and _prime_divisors(p) == {p}):
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
