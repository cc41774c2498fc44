"""Deliberately naive reference implementations used as test oracles.

Everything here favors the dumbest correct algorithm over speed and
avoids the shortcuts the library takes (flat coordinates with a product
table, units by echelon counts, inverses by [M | I], characteristic
polynomials, generator-only orthogonality tests, echelon forms over Z/n,
support tests and torsion subcodes for minimum distances, a product's
sizes read off its inputs, blockwise containment for thm-self-mpc, one
regular expression for tokens, expressions evaluated straight to raws),
so agreement between the two is meaningful.
"""

from itertools import product, zip_longest
from math import gcd

from ringcodes import LinearCode, Matrix, MPCSpec, build_mpc
from ringcodes.errors import InvalidParameterError, NotationError, RingMismatchError
from ringcodes.ring import (
    MAX_DIGITS,
    MAX_WIDTH,
    VARIABLE_NAMES,
    check_width,
    make_integer_residue_ring,
    make_quotient_extension,
    square_and_multiply,
)


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


def factor_free(code):
    """A copy of ``code`` that knows only its generators: a product's copy
    takes its size and dual size from its own echelon forms, not from its
    inputs."""
    return LinearCode._from_raws(code.ring, code.length, code._gen_raws)


def literal_self_mpc(spec):
    """thm-self-mpc's question, [C_1 ... C_s]A = [C_1 ... C_s]I, by
    comparing the two products as sets: the echelon forms of both, with no
    size read off the inputs."""
    plain = build_mpc(MPCSpec(spec.codes, Matrix.identity(spec.ring, spec.s)))
    return factor_free(build_mpc(spec)) == factor_free(plain)


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
    once; stops at weight 1.  The words are built by their definition: for
    each row h leading at column c, one multiple lambda h with
    0 <= lambda < n / gcd(h_c, n), summed over the rows."""
    n, zero, best = ring.characteristic, ring._rzero, None
    multiples = [[[lam * x for x in h] for lam in range(n // gcd(h[c], n))]
                 for c, h in rows.items()]
    for combo in product(*multiples):
        w = [sum(xs) % n for xs in zip([0] * (length * ring.width), *combo)]
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
    return nested_poly(ring, conv)


def nested_poly(ring, coeffs):
    """The nested value of c_0 + c_1 v + c_2 v^2 + ... for a list of nested
    base values of any length: long division by the monic modulus."""
    base, d = ring.base, ring.degree
    work = list(coeffs) + [nested(base, base._rzero)] * (d - len(coeffs))
    f = [nested(base, c) for c in ring.modulus]
    for k in range(len(work) - 1, d - 1, -1):
        top = work[k]
        for i in range(d + 1):
            work[k - d + i] = nested_add(
                base, work[k - d + i], nested_neg(base, nested_mul(base, top, f[i]))
            )
    return work[:d]


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


# -- the notation's expressions, evaluated with the values' own operators ---------
#
# A recursive descent (expression -> term -> factor -> atom) over the tokens
# of char_tokenize, each carrying its line and column, that computes with
# RingElement operators for elements and with _Poly, polynomials of
# elements, for moduli: the oracle of the raw evaluator in notation.py.


def _shown(text, long="a text of"):
    """A refusal's echo of ``text``: quoted up to 40 characters, else
    named by its length."""
    return repr(text) if len(text) <= 40 else f"{long} {len(text)} characters"


class _Tokens:
    def __init__(self, text):
        self.tokens = char_tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses of the expression being parsed

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def fail(self, message, tok):
        raise NotationError(message, tok[2], tok[3])

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok[0] != kind:
            shown = tok[1] if tok[0] != "end" else "end of input"
            self.fail(f"expected {what or kind!r}, found {_shown(shown)}", tok)
        return self.next()


class _Poly:
    """A polynomial in one fresh variable with base-ring element
    coefficients, trimmed; a product or power past the width cap is
    refused where it occurs."""

    def __init__(self, ring, coeffs):
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.ring = ring
        self.coeffs = list(coeffs)

    def __add__(self, other):
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=self.ring.zero)
        return _Poly(self.ring, [x + y for x, y in pairs])

    def __neg__(self):
        return _Poly(self.ring, [-c for c in self.coeffs])

    def __mul__(self, other):
        out = [self.ring.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        product = _Poly(self.ring, out)
        check_width(self.ring, len(product.coeffs) - 1)
        return product

    def __pow__(self, exponent):
        degree = (len(self.coeffs) - 1) * exponent
        if self.ring.width * degree > MAX_WIDTH and self.coeffs[-1].is_unit():
            check_width(self.ring, degree)
        return square_and_multiply(self, exponent, _Poly(self.ring, [self.ring.one]))


def _environment(ring):
    """The tower variables as elements of ``ring``, built by coercion."""
    if ring.depth == 0:
        return {}
    env = {name: ring.element(value) for name, value in _environment(ring.base).items()}
    env[ring.variable] = ring.element([0, 1])
    return env


def _expression(stream, scope):
    value = _term(stream, scope)
    while stream.peek()[0] in ("+", "-"):
        op = stream.next()[0]
        rhs = _term(stream, scope)
        value = value + (rhs if op == "+" else -rhs)
    return value


def _term(stream, scope):
    value = _factor(stream, scope)
    while stream.peek()[0] == "*":
        stream.next()
        value = value * _factor(stream, scope)
    return value


def _factor(stream, scope):
    negations = 0
    while stream.peek()[0] == "-":
        stream.next()
        negations += 1
    value = _atom(stream, scope)
    if stream.peek()[0] == "^":
        stream.next()
        tok = stream.expect("int", "a nonnegative integer exponent")
        exponent = int(tok[1])
        if exponent.bit_length() > 64:
            stream.fail("exponents must be below 2^64", tok)
        value = value**exponent
    return -value if negations % 2 else value


def _atom(stream, scope):
    literal, env = scope
    tok = stream.peek()
    if tok[0] == "int":
        stream.next()
        return literal(int(tok[1]))
    if tok[0] == "name":
        if tok[1] not in env:
            stream.fail(f"unknown variable {_shown(tok[1], 'of')}", tok)
        stream.next()
        return env[tok[1]]
    if tok[0] == "(":
        if stream.depth == 100:
            stream.fail("parentheses may nest at most 100 deep", tok)
        stream.next()
        stream.depth += 1
        value = _expression(stream, scope)
        stream.expect(")")
        stream.depth -= 1
        return value
    stream.fail(f"expected a number, variable, or parenthesized expression, found {tok[1]!r}", tok)


def _ring(stream):
    tok = stream.expect("name", "'Z'")
    if tok[1] != "Z":
        stream.fail("ring descriptions start with 'Z/'", tok)
    stream.expect("/")
    n = int(stream.expect("int", "a modulus")[1])
    try:
        ring = make_integer_residue_ring(n)
    except InvalidParameterError as exc:
        stream.fail(str(exc), tok)
    while stream.peek()[0] == "[":
        stream.next()
        if ring.depth == len(VARIABLE_NAMES):
            stream.fail(f"extension towers deeper than {len(VARIABLE_NAMES)} levels are "
                        "unsupported", stream.peek())
        var = stream.expect("name", "a variable name")
        expected = VARIABLE_NAMES[ring.depth]
        if var[1] != expected:
            stream.fail(f"extension level {ring.depth + 1} must use variable {expected!r}, "
                        f"found {_shown(var[1])}", var)
        stream.expect("]")
        stream.expect("/")
        anchor = stream.expect("(")
        base = ring
        env = {name: _Poly(base, [value]) for name, value in _environment(base).items()}
        env[var[1]] = _Poly(base, [base.zero, base.one])
        try:
            poly = _expression(stream, (lambda k: _Poly(base, [base.from_int(k)]), env))
            stream.expect(")")
            ring = make_quotient_extension(base, poly.coeffs)
        except (InvalidParameterError, RingMismatchError) as exc:
            stream.fail(str(exc), anchor)
    return ring


def _whole(text, rule):
    stream = _Tokens(text)
    value = rule(stream)
    stream.expect("end", "end of input")
    return value


def oracle_parse_ring(text):
    """The ring of a description, or the NotationError refusing it."""
    return _whole(text, _ring)


def oracle_parse_element(text, ring):
    """The element of an expression in ``ring``, or the NotationError
    refusing it."""
    scope = (ring.from_int, _environment(ring))
    return _whole(text, lambda stream: _expression(stream, scope))
