"""Expected answers for benchmark requests, from naive enumeration.

Nothing here imports ``ringcodes``.  Codes are materialized from the
definition (every R-combination of the generators), products from the
definition (every tuple of input codewords pushed through the matrix),
dual sizes by counting every vector of R^m that is orthogonal to the
generators, and distances by scanning every word.  ``expected`` maps a
request's structured spec to a verdict; ``observe`` maps the program's
exit code and output to a verdict of the same form, so checking a
request is one equality test.
"""

from __future__ import annotations

import json
from collections import defaultdict
from itertools import product

from arith import all_vectors, det, dot, is_unit, is_zero_divisor, sqrt_minus_one

DEFAULT_BUDGET = 10_000_000

SO, SD, EQ = "SelfOrthogonal", "SelfDual", "Equivalence"

#: Expectation counts of each scenario; every one holds for the parameters
#: the mixes use (the paper's worked examples and lemmas).
SCENARIO_EXPECTATIONS = {
    "ex1": 7,
    "ex2": 4,
    "z25-selfdual": 6,
    "prime-square": 6,
    "lemma-diag1": 2,
    "lemma-adiag1": 4,
    "lemma-adiag3": 2,
}

_HYPOTHESES = {
    "diag1": ("2 is not a zero divisor", "u is not a zero divisor"),
    "adiag1a": ("u^2 = -1",),
    "adiag1b": ("u^2 = -1", "2 is not a zero divisor"),
    "adiag3": ("2 is a unit", "u^2 = -1"),
    "block": ("2 is a unit", "u^2 = -1"),
}

REFUSED = {"exit": 2, "error": "error"}
VIOLATED = {"exit": 2, "error": "hypothesis"}


# -- naive code arithmetic ------------------------------------------------------------


def words(ring, length, gens) -> frozenset:
    """Every R-linear combination of ``gens``, one generator at a time."""
    out = {(ring.zero,) * length}
    for g in gens:
        multiples = {tuple(ring.mul(r, b) for b in g) for r in range(ring.size)}
        out = {tuple(ring.add(a, b) for a, b in zip(w, h)) for w in out for h in multiples}
    return frozenset(out)


def dual_size(ring, length, gens) -> int:
    """Number of x in R^length with x.g = 0 for every g in ``gens``."""
    counts = {(ring.zero,) * len(gens): 1}
    for j in range(length):
        nxt = defaultdict(int)
        col = [g[j] for g in gens]
        for state, n in counts.items():
            for r in range(ring.size):
                key = tuple(ring.add(s, ring.mul(r, c)) for s, c in zip(state, col))
                nxt[key] += n
        counts = nxt
    return counts.get((ring.zero,) * len(gens), 0)


def min_weight(ws):
    weights = [sum(1 for c in w if c) for w in ws]
    nonzero = [x for x in weights if x]
    return min(nonzero) if nonzero else None


def orthogonal(ring, xs, ys) -> bool:
    return all(dot(ring, x, y) == ring.zero for x in xs for y in ys)


def mat_mul_t(ring, a, b):
    """a * b^t."""
    return tuple(tuple(dot(ring, r, c) for c in b) for r in a)


def product_words(ring, code_words, a) -> frozenset:
    """Column-major flattenings (sum_i a_i1 c_i || ... || sum_i a_il c_i)."""
    m = len(next(iter(code_words[0])))
    out = set()
    for combo in product(*code_words):
        word = []
        for j in range(len(a[0])):
            block = [ring.zero] * m
            for i, c in enumerate(combo):
                block = [ring.add(x, ring.mul(a[i][j], y)) for x, y in zip(block, c)]
            word += block
        out.add(tuple(word))
    return frozenset(out)


def product_generators(ring, codes, a):
    return [
        tuple(ring.mul(a[i][j], x) for j in range(len(a[0])) for x in g)
        for i, gens in enumerate(codes)
        for g in gens
    ]


def full_rank(ring, a) -> bool:
    for x in all_vectors(ring, len(a)):
        if any(x) and all(
            dot(ring, x, [row[j] for row in a]) == ring.zero for j in range(len(a[0]))
        ):
            return False
    return True


def row_distances(ring, a):
    """Minimum weight of each code spanned by the first i rows."""
    out = []
    for i in range(1, len(a) + 1):
        best = None
        for x in all_vectors(ring, i):
            w = sum(
                1 for j in range(len(a[0]))
                if dot(ring, x, [a[k][j] for k in range(i)]) != ring.zero
            )
            if w and (best is None or w < best):
                best = w
                if best == 1:
                    break
        out.append(best)
    return out


def _diagonal(ring, g):
    s = len(g)
    if all(g[i][j] == ring.zero for i in range(s) for j in range(s) if i != j):
        return [g[i][i] for i in range(s)]
    return None


def _antidiagonal(ring, g):
    s = len(g)
    if all(g[i][j] == ring.zero for i in range(s) for j in range(s) if j != s - 1 - i):
        return [g[i][s - 1 - i] for i in range(s)]
    return None


def gram_shape(ring, g):
    """Tag and entries of a Gram matrix, diagonal winning ties."""
    diag = _diagonal(ring, g)
    if diag is not None:
        return "diagonal", diag
    adiag = _antidiagonal(ring, g)
    if adiag is not None:
        return "anti-diagonal", adiag
    return "other", None


def _gram_json(ring, g):
    tag, lambdas = gram_shape(ring, g)
    return {"tag": tag, "lambdas": None if lambdas is None else [ring.fmt(v) for v in lambdas]}


# -- requests -----------------------------------------------------------------------


def _conclusions(ring, codes, code_words, duals, a):
    """Every (property, justified_by) pair the paper's conditions yield."""
    s, l = len(a), len(a[0])
    g = mat_mul_t(ring, a, a)
    diag, adiag = _diagonal(ring, g), _antidiagonal(ring, g)
    so = [orthogonal(ring, c, c) for c in codes]
    sd = [so[i] and len(code_words[i]) == duals[i] for i in range(s)]
    square = s == l
    nonsingular = square and is_unit(ring, det(ring, a))
    identity = tuple(tuple(ring.one if i == j else ring.zero for j in range(s)) for i in range(s))
    out = []
    if diag is not None and all(diag[i] == ring.zero or so[i] for i in range(s)):
        out.append((SO, "thm-self-orth-1"))
    if adiag is not None and all(
        adiag[i] == ring.zero or orthogonal(ring, codes[i], codes[s - 1 - i]) for i in range(s)
    ):
        out.append((SO, "thm-self-orth-2"))
    if nonsingular and g == identity:
        if all(so):
            out.append((SO, "cor-orthog-2"))
        if all(sd):
            out.append((SD, "cor-orthog-3"))
    if square and adiag is not None and all(is_unit(ring, v) for v in adiag) and all(
        orthogonal(ring, codes[i], codes[s - 1 - i])
        and len(code_words[i]) == duals[s - 1 - i]
        for i in range(s)
    ):
        out.append((SD, "thm-self-dual"))
    if nonsingular:
        upper = all(a[i][j] == ring.zero for i in range(s) for j in range(s) if i > j)
        lower = all(a[i][j] == ring.zero for i in range(s) for j in range(s) if i < j)
        lemmas = []
        if upper and all(code_words[i] <= code_words[i + 1] for i in range(s - 1)):
            lemmas.append("lemma-ca-1")
        if lower and all(code_words[i + 1] <= code_words[i] for i in range(s - 1)):
            lemmas.append("lemma-ca-2")
        if upper and lower:
            lemmas.append("lemma-ca-3")
        if all(w == code_words[0] for w in code_words):
            lemmas.append("lemma-ca-4")
        out += [(EQ, lemma) for lemma in lemmas]
        if lemmas or product_words(ring, code_words, a) == product_words(
            ring, code_words, identity
        ):
            out.append((EQ, "thm-self-mpc"))
            if all(so):
                out.append((SO, "thm-self-mpc"))
            if all(sd):
                out.append((SD, "thm-self-mpc"))
    return sorted(list(c) for c in out)


def _verify(spec):
    ring, m, codes, a = spec["ring"], spec["length"], spec["codes"], spec["matrix"]
    code_words = [words(ring, m, gens) for gens in codes]
    duals = [dual_size(ring, m, gens) for gens in codes]
    prod = product_words(ring, code_words, a)
    gens = product_generators(ring, codes, a)
    n = m * len(a[0])
    is_so = orthogonal(ring, gens, gens)
    out = {
        "exit": 0,
        "gram": _gram_json(ring, mat_mul_t(ring, a, a)),
        "conclusions": _conclusions(ring, codes, code_words, duals, a),
        "length": n,
        "cardinality": len(prod),
    }
    if spec["theorem"]:
        if len(a) != len(a[0]) or not is_unit(ring, det(ring, a)):
            return dict(REFUSED)
        out["dual_theorem"] = dual_size(ring, n, gens)
    is_sd = is_so and len(prod) == dual_size(ring, n, gens)
    out["expect"] = [["self-orthogonal", is_so], ["self-dual", is_sd]]
    out["exit"] = 0 if is_so and is_sd else 1
    return out


def _dual(spec):
    ring, m = spec["ring"], spec["length"]
    if ring.size**m > (spec["budget"] or DEFAULT_BUDGET):
        return dict(REFUSED)
    return {"exit": 0, "dual_cardinality": dual_size(ring, m, spec["gens"])}


def _construct(spec):
    ring, family = spec["ring"], spec["family"]
    u = spec["u"] if spec["u"] is not None else sqrt_minus_one(ring)
    if u is None:
        return dict(VIOLATED)
    one, zero = ring.one, ring.zero
    minus_one = ring.neg(one)
    two = ring.from_int(2)
    holds = {
        "2 is not a zero divisor": not is_zero_divisor(ring, two),
        "u is not a zero divisor": not is_zero_divisor(ring, u),
        "u^2 = -1": ring.mul(u, u) == minus_one,
        "2 is a unit": is_unit(ring, two),
    }
    if not all(holds[h] for h in _HYPOTHESES[family]):
        return dict(VIOLATED)
    if family == "diag1":
        a = ((one, u, one), (minus_one, zero, one))
    elif family == "adiag1a":
        a = ((one, zero, u), (zero, one, u))
    elif family == "adiag1b":
        a = ((one, u, zero, one, u), (u, one, u, zero, one))
    elif family == "adiag3":
        a = ((one, u), (u, one))
    else:
        s = spec["s"]
        a = tuple(
            tuple(
                one if j == i else u if j == s - 1 - i and (s % 2 == 0 or i != s // 2)
                else zero
                for j in range(s)
            )
            for i in range(s)
        )
    if sum(ring.size**i for i in range(1, len(a) + 1)) > (spec["budget"] or DEFAULT_BUDGET):
        return dict(REFUSED)
    return {
        "exit": 0,
        "certificate": {
            "ring": ring.text,
            "matrix": [[ring.fmt(e) for e in row] for row in a],
            "gram": _gram_json(ring, mat_mul_t(ring, a, a)),
            "deltas": row_distances(ring, a),
            "hypotheses": list(_HYPOTHESES[family]),
        },
    }


def _distance(spec):
    ring, m, codes, a = spec["ring"], spec["length"], spec["codes"], spec["matrix"]
    code_words = [words(ring, m, gens) for gens in codes]
    if a is None:
        d = min_weight(code_words[0])
        return dict(REFUSED) if d is None else {"exit": 0, "min_distance": d}
    # Any closure over R charges at least |R| before its first word.
    if spec["budget"] is not None and spec["budget"] < ring.size:
        return dict(REFUSED)
    exact = min_weight(product_words(ring, code_words, a))
    if exact is None or not full_rank(ring, a):
        return dict(REFUSED)
    inputs = [min_weight(w) for w in code_words]
    if None in inputs:
        return dict(REFUSED)
    deltas = row_distances(ring, a)
    return {
        "exit": 0,
        "min_distance": exact,
        "lower_bound": min(d * delta for d, delta in zip(inputs, deltas)),
        "length": m * len(a[0]),
    }


def _reproduce(spec):
    n = SCENARIO_EXPECTATIONS[spec["scenario"].split(":", 1)[0]]
    return {"exit": 0, "passed": True, "expectations": n, "passed_count": n}


_EXPECTED = {
    "verify": _verify,
    "dual": _dual,
    "construct": _construct,
    "distance": _distance,
    "reproduce": _reproduce,
}


def expected(spec) -> dict:
    """The verdict a correct program gives for this request."""
    return _EXPECTED[spec["kind"]](spec)


def observe(spec, exit_code: int, stdout: str, stderr: str) -> dict:
    """The program's verdict, reduced to the fields ``expected`` predicts."""
    if exit_code == 2:
        kind = "hypothesis" if stderr.startswith("hypothesis violation") else "error"
        return {"exit": 2, "error": kind}
    try:
        data = json.loads(stdout)
    except ValueError:
        return {"exit": exit_code, "unparsable": stdout[:200]}
    kind = spec["kind"]
    out = {"exit": exit_code}
    if kind == "verify":
        report = data["report"]
        out["gram"] = report["gram"]
        out["conclusions"] = sorted(
            [c["property"], c["justified_by"]] for c in report["conclusions"]
        )
        out["length"] = data["product"]["length"]
        out["cardinality"] = data["product"]["cardinality"]
        if "dual_theorem_cardinality" in data:
            out["dual_theorem"] = data["dual_theorem_cardinality"]
        out["expect"] = [[e["property"], e["holds"]] for e in data["expectations"]]
    elif kind == "dual":
        out["dual_cardinality"] = data["dual_cardinality"]
    elif kind == "construct":
        out["certificate"] = data
    elif kind == "distance":
        out.update(data)
    else:
        out["passed"] = data["passed"]
        out["expectations"] = len(data["expectations"])
        out["passed_count"] = sum(1 for e in data["expectations"] if e["passed"])
    return out
