"""The benchmark's own finite-ring arithmetic.

Deliberately independent of ``ringcodes``: the request generator uses it
to format inputs, and the oracle uses it to compute expected answers.
Every element is an int ``0 .. size-1`` whose order is the order in
which the program enumerates ring elements (residues for Z/n; for
S[v]/(f), coefficient tuples low degree first, compared
lexicographically, so the constant coefficient is most significant).
Extensions do arithmetic through add/mul tables built on first use.
"""

from __future__ import annotations

from itertools import product

VARIABLES = ("x", "y", "z", "w", "t", "u", "v")


class Zn:
    """Z/n with plain modular arithmetic."""

    depth = 0

    def __init__(self, n: int):
        self.n = n
        self.size = n
        self.text = f"Z/{n}"
        self.zero = 0
        self.one = 1 % n

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.n

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.n

    def neg(self, a: int) -> int:
        return (-a) % self.n

    def from_int(self, k: int) -> int:
        return k % self.n

    def fmt(self, a: int) -> str:
        return str(a)


class Ext:
    """S[v]/(f) for monic f, given as base-ring ints low degree first."""

    def __init__(self, base, modulus):
        self.base = base
        self.modulus = tuple(modulus)
        self.degree = d = len(modulus) - 1
        self.depth = base.depth + 1
        self.var = VARIABLES[base.depth]
        self.size = base.size**d
        self.zero = 0
        self.one = self.encode([base.one] + [base.zero] * (d - 1))
        self._add = self._mul = None
        self.text = f"{base.text}[{self.var}]/({self._terms(self.modulus, d + 1)})"

    def encode(self, coeffs) -> int:
        e = 0
        for c in coeffs:
            e = e * self.base.size + c
        return e

    def decode(self, e: int) -> list:
        out = []
        for _ in range(self.degree):
            e, c = divmod(e, self.base.size)
            out.append(c)
        return out[::-1]

    def _poly_mul(self, a, b) -> int:
        base, d = self.base, self.degree
        conv = [base.zero] * (2 * d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] = base.add(conv[i + j], base.mul(x, y))
        for k in range(2 * d - 2, d - 1, -1):
            c = conv[k]
            if c == base.zero:
                continue
            # Subtract c * v^(k-d) * f, which clears degree k as f is monic.
            for i in range(d + 1):
                conv[k - d + i] = base.add(
                    conv[k - d + i], base.neg(base.mul(c, self.modulus[i]))
                )
        return self.encode(conv[:d])

    def _tables(self):
        if self._add is None:
            base = self.base
            polys = [self.decode(e) for e in range(self.size)]
            self._add = [
                [self.encode([base.add(x, y) for x, y in zip(a, b)]) for b in polys]
                for a in polys
            ]
            self._mul = [[self._poly_mul(a, b) for b in polys] for a in polys]
        return self._add, self._mul

    def add(self, a: int, b: int) -> int:
        return self._tables()[0][a][b]

    def mul(self, a: int, b: int) -> int:
        return self._tables()[1][a][b]

    def neg(self, a: int) -> int:
        return self.encode([self.base.neg(c) for c in self.decode(a)])

    def from_int(self, k: int) -> int:
        return self.encode([self.base.from_int(k)] + [self.base.zero] * (self.degree - 1))

    def _terms(self, coeffs, top: int) -> str:
        """Canonical text of sum(coeffs[i] * v^i) for i < top, highest first."""
        base, var = self.base, self.var
        parts = []
        for i in range(top - 1, -1, -1):
            c = coeffs[i]
            if c == base.zero:
                continue
            if i == 0:
                parts.append(base.fmt(c))
                continue
            power = var if i == 1 else f"{var}^{i}"
            if c == base.one:
                parts.append(power)
            else:
                cs = base.fmt(c)
                parts.append(f"({cs})*{power}" if "+" in cs else f"{cs}*{power}")
        return "+".join(parts) if parts else "0"

    def fmt(self, a: int) -> str:
        return self._terms(self.decode(a), self.degree)


# -- helpers shared by the generator and the oracle ---------------------------------


def is_unit(ring, a: int) -> bool:
    return any(ring.mul(a, b) == ring.one for b in range(ring.size))


def is_zero_divisor(ring, a: int) -> bool:
    return any(b != ring.zero and ring.mul(a, b) == ring.zero for b in range(ring.size))


def sqrt_minus_one(ring):
    """First u in enumeration order with u*u = -1, or None."""
    minus_one = ring.neg(ring.one)
    for u in range(ring.size):
        if ring.mul(u, u) == minus_one:
            return u
    return None


def dot(ring, x, y) -> int:
    acc = ring.zero
    for a, b in zip(x, y):
        acc = ring.add(acc, ring.mul(a, b))
    return acc


def det(ring, a) -> int:
    """Determinant by first-row Laplace expansion."""
    if len(a) == 1:
        return a[0][0]
    acc = ring.zero
    for j, top in enumerate(a[0]):
        minor = tuple(row[:j] + row[j + 1:] for row in a[1:])
        term = ring.mul(top, det(ring, minor))
        acc = ring.add(acc, ring.neg(term) if j % 2 else term)
    return acc


def scale(ring, r: int, x) -> tuple:
    return tuple(ring.mul(r, a) for a in x)


def fmt_vector(ring, x) -> str:
    return "(" + ",".join(ring.fmt(a) for a in x) + ")"


def fmt_matrix(ring, rows) -> str:
    return "[" + ",".join("[" + ",".join(ring.fmt(a) for a in row) + "]" for row in rows) + "]"


def fmt_generators(ring, gens) -> str:
    return "{ " + ", ".join(fmt_vector(ring, g) for g in gens) + " }"


def all_vectors(ring, length: int):
    return product(range(ring.size), repeat=length)
