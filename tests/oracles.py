"""Deliberately naive reference implementations used as test oracles.

Everything here favors the dumbest correct algorithm over speed and
avoids the shortcuts the library takes (units by the norm, generator-only
orthogonality tests, orbit-based closure, streaming row scans), so
agreement between the two is meaningful.
"""

from itertools import product


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


def element_words(code):
    """Codewords as tuples of raw payloads, via the public view."""
    return {tuple(c.raw for c in w) for w in code.codewords()}
