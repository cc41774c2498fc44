"""Deliberately naive reference implementations used as test oracles.

Everything here favors the dumbest correct algorithm over speed and
avoids the shortcuts the library takes (flat coordinates with a product
table, units by echelon counts, inverses by [M | I], characteristic
polynomials, generator-only orthogonality tests, echelon forms over Z/n,
support tests and torsion subcodes for minimum distances, one regular
expression for tokens), so agreement between the two is meaningful.
"""

from itertools import product

from ringcodes.errors import NotationError
from ringcodes.ring import MAX_DIGITS, echelon_words


def naive_span(ring, length, generators):
    """Fixpoint closure under pairwise addition and all scalar multiples."""
    zero = tuple(ring.zero for _ in range(length))
    words = {zero}
    words.update(tuple(ring.element(c) for c in g) for g in generators)
    scalars = list(ring.elements())
    changed = True
    while changed:
        changed = False
        snapshot = list(words)
        for w in snapshot:
            for v in snapshot:
                cand = tuple(a + b for a, b in zip(w, v))
                if cand not in words:
                    words.add(cand)
                    changed = True
            for s in scalars:
                cand = tuple(s * a for a in w)
                if cand not in words:
                    words.add(cand)
                    changed = True
    return frozenset(words)


def orbit_closure(code):
    """The raw codewords of ``code``, by adding the orbit R*g of each
    generator g to the running span S as a set of elementwise sums."""
    ring = code.ring
    words = {(ring._rzero,) * code.length}
    for g in code._gen_raws:
        if g in words:
            continue
        orbit = {ring._vscale(lam, g) for lam in ring._iter_raw()}
        words = {tuple(map(ring._radd, w, h)) for w in words for h in orbit}
    return frozenset(words)


def naive_is_unit(a):
    """Some b has a*b = 1, by scanning every element of the ring."""
    return any(a * b == a.ring.one for b in a.ring.elements())


def naive_is_zero_divisor(a):
    """Some b != 0 has a*b = 0, by scanning every element of the ring."""
    return any(not b.is_zero() and (a * b).is_zero() for b in a.ring.elements())


def naive_inner(ring, x, y):
    acc = ring.zero
    for a, b in zip(x, y):
        acc = acc + a * b
    return acc


def naive_dual(code):
    """All vectors orthogonal to *every* codeword, by double enumeration."""
    ring = code.ring
    words = code.codewords()
    elems = list(ring.elements())
    zero = ring.zero
    out = set()
    for cand in product(elems, repeat=code.length):
        if all(naive_inner(ring, cand, w) == zero for w in words):
            out.add(cand)
    return frozenset(out)


def mpc_by_product(codes, matrix):
    """Flattened products over the full cartesian product of codeword sets."""
    ring = matrix.ring
    m = codes[0].length
    out = set()
    for combo in product(*[list(c.codewords()) for c in codes]):
        word = []
        for j in range(matrix.cols):
            block = [ring.zero] * m
            for i, ci in enumerate(combo):
                aij = matrix.entry(i, j)
                block = [b + aij * c for b, c in zip(block, ci)]
            word.extend(block)
        out.add(tuple(word))
    return frozenset(out)


def pairwise_min_distance(code):
    """min over distinct codeword pairs of the Hamming distance."""
    words = list(code.codewords())
    best = None
    for i, x in enumerate(words):
        for y in words[i + 1 :]:
            d = sum(1 for a, b in zip(x, y) if a != b)
            if best is None or d < best:
                best = d
    return best


def stream_min_weight(ring, rows, length):
    """Least weight of a nonzero word in the span of an echelon form of raw
    vectors of ``length`` entries (None if none), by streaming every word
    once; stops at weight 1.  The walk is ``ring.echelon_words``, which
    test_echelon checks against ``naive_span`` and ``orbit_closure``."""
    zero, best = ring._rzero, None
    for w in echelon_words(ring.characteristic, rows, length * ring.width):
        weight = length - ring._unflat(w).count(zero)
        if weight and (best is None or weight < best):
            best = weight
            if best == 1:
                break
    return best


def element_words(code):
    """Codewords as tuples of raw payloads, via the public view."""
    return {tuple(c.raw for c in w) for w in code.codewords()}


def nested(ring, raw):
    """A raw as nested low-to-high coefficient lists, one level per extension."""
    if ring.depth == 0:
        return raw
    if ring.base.depth == 0:
        return list(raw)
    w = ring.base.width
    return [nested(ring.base, raw[i * w : (i + 1) * w]) for i in range(ring.degree)]


def flat(ring, value):
    """The raw of a nested value: the inverse of :func:`nested`."""
    if ring.depth == 0:
        return value
    out = []
    for coeff in value:
        part = flat(ring.base, coeff)
        out.extend(part if ring.base.depth else [part])
    return tuple(out)


def nested_add(ring, a, b):
    if ring.depth == 0:
        return (a + b) % ring.characteristic
    return [nested_add(ring.base, x, y) for x, y in zip(a, b)]


def nested_neg(ring, a):
    if ring.depth == 0:
        return -a % ring.characteristic
    return [nested_neg(ring.base, x) for x in a]


def nested_mul(ring, a, b):
    """Schoolbook product of nested polynomials, then long division by the
    monic modulus, recursing into the base at every level."""
    if ring.depth == 0:
        return a * b % ring.characteristic
    base, d = ring.base, ring.degree
    conv = [nested(base, base._rzero)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] = nested_add(base, conv[i + j], nested_mul(base, x, y))
    f = [nested(base, c) for c in ring.modulus]
    for k in range(2 * d - 2, d - 1, -1):
        top = conv[k]
        for i in range(d + 1):
            conv[k - d + i] = nested_add(
                base, conv[k - d + i], nested_neg(base, nested_mul(base, top, f[i]))
            )
    return conv[:d]


def _laplace(ring, rows):
    """Determinant of a list of element rows by first-row Laplace expansion
    over public element operations: about s! products, fine up to 5 x 5."""
    if len(rows) == 1:
        return rows[0][0]
    acc = ring.zero
    for j, top in enumerate(rows[0]):
        term = top * _laplace(ring, [row[:j] + row[j + 1 :] for row in rows[1:]])
        acc = acc - term if j % 2 else acc + term
    return acc


def laplace_det(matrix):
    return _laplace(matrix.ring, [list(row) for row in matrix.entries])


# Element-level matrix algebra on lists of element rows, the oracle of the
# raw-row :class:`Matrix`.


def element_identity(ring, s):
    return [[ring.one if i == j else ring.zero for j in range(s)] for i in range(s)]


def element_transpose(rows):
    return [list(col) for col in zip(*rows)]


def element_product(ring, a, b):
    return [[naive_inner(ring, row, col) for col in zip(*b)] for row in a]


def element_scale(lam, rows):
    return [[lam * e for e in row] for row in rows]


def element_str(rows):
    return "[" + ",".join("[" + ",".join(str(e) for e in row) + "]" for row in rows) + "]"


def laplace_inverse(ring, rows):
    """det^-1 times the transposed cofactor matrix, with det^-1 found by
    scanning the ring."""
    s = len(rows)
    det = _laplace(ring, rows)
    det_inv = next(b for b in ring.elements() if det * b == ring.one)

    def cofactor(i, j):
        if s == 1:
            return ring.one
        minor = [row[:j] + row[j + 1 :] for k, row in enumerate(rows) if k != i]
        c = _laplace(ring, minor)
        return -c if (i + j) % 2 else c

    return [[det_inv * cofactor(j, i) for j in range(s)] for i in range(s)]


def char_tokenize(text):
    """The notation's tokens as (kind, text, line, column), the last of
    kind "end", by a loop over characters; a refusal raises NotationError."""
    tokens = []
    line, column = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        if ch.isdecimal():  # exactly the digits int() accepts
            start = i
            while i < len(text) and text[i].isdecimal():
                i += 1
            if i - start > MAX_DIGITS:
                raise NotationError(
                    f"integer literals may have at most {MAX_DIGITS} digits", line, column
                )
            tokens.append(("int", text[start:i], line, column))
            column += i - start
            continue
        if ch.isalpha():
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("name", text[start:i], line, column))
            column += i - start
            continue
        if ch in "+-*^()[]/{},":
            tokens.append((ch, ch, line, column))
            column += 1
            i += 1
            continue
        raise NotationError(f"unexpected character {ch!r}", line, column)
    tokens.append(("end", "", line, column))
    return tokens
