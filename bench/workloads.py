"""Seeded request mixes for the benchmark.

A workload is one pass: ``ROUNDS`` rounds of a fixed number of requests
of each class (``CLASS_COUNTS``), plus each of the workload's fixed
scenarios once.  Ring, shape and family are assigned by slot so that the
cost mix is the same for every seed; generators, matrices and order are
drawn from the seed.  Each request carries the argv the program
sees and a structured ``spec`` that only the oracle reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from arith import (
    Ext,
    Zn,
    det,
    dot,
    fmt_generators,
    fmt_matrix,
    is_unit,
    scale,
    sqrt_minus_one,
)

WORKLOADS = ("zn-verify", "ext-verify", "certify-distance")
DEFAULT_SEEDS = {"zn-verify": 1, "ext-verify": 2, "certify-distance": 3}

SCENARIOS = {
    "zn-verify": ("ex1", "ex2", "z25-selfdual"),
    # z25-selfdual is left out: its 390,625 Z/25 candidates would outnumber
    # every extension-ring candidate in the pass and hide the ring layer.
    "ext-verify": (
        "ex1",
        "ex2",
        "lemma-adiag1:Z/9[x]/(x^2+x+2)",
        "lemma-diag1:Z/9[x]/(x^2+x+2):x",
    ),
    "certify-distance": (
        "prime-square:5",
        "prime-square:13",
        "prime-square:17",
        "lemma-adiag3:Z/25",
    ),
}


_VERIFY_CLASSES = {
    "verify-iso": 6,
    "verify-random": 16,
    "verify-theorem": 6,
    "verify-theorem-rect": 3,
    "dual": 4,
    "dual-refusal": 3,
}
#: A pass is this many rounds of the class counts below, each with fresh
#: inputs, so that a pass holds over 100 requests and p90 has more than
#: ten beyond it.
ROUNDS = 3

#: Requests of each class in one round.  The scenarios take no input, so
#: a pass runs each of them once, not once per round.
CLASS_COUNTS = {
    "zn-verify": _VERIFY_CLASSES,
    "ext-verify": {**_VERIFY_CLASSES, "verify-random": 40},
    "certify-distance": {
        "construct": 30,
        "construct-violation": 2,
        "construct-refusal": 1,
        "distance-code": 6,
        "distance-product": 6,
        "distance-refusal": 1,
    },
}


@dataclass
class Request:
    cls: str
    argv: list
    spec: dict = field(default_factory=dict)


def _ext(base, *coeffs):
    return Ext(base, coeffs)


def _rings():
    """Every ring the mixes use; extension tables are built on first use."""
    f4 = _ext(Zn(2), 1, 1, 1)
    f9 = _ext(Zn(3), 2, 1, 1)
    return {
        # Verification rings: (ring, (verify length, matrix columns), dual length,
        # whether it has isotropic vectors of the verify length).
        "zn": [
            (Zn(9), (2, 2), 5, True),
            (Zn(12), (2, 2), 4, True),
            (Zn(13), (2, 2), 4, True),
            (Zn(16), (1, 3), 4, True),
            (Zn(20), (1, 3), 3, True),
            (Zn(25), (1, 3), 3, True),
        ],
        "ext": [
            (_ext(Zn(4), 1, 1, 1), (1, 3), 3, True),  # GR(4,2)
            (_ext(Zn(9), 2, 1, 1), (1, 2), 2, True),  # GR(9,2)
            (_ext(f9, 0, 0, f9.one), (1, 2), 2, True),  # Z/3[x]/(x^2+x+2)[y]/(y^2)
            # Z/2[x]/(x^2+x+1)[y]/(y^2+y+x) is a field: no isotropic vector of
            # length 1, and length 2 would mean 16^4 candidates per scan.
            (_ext(f4, f4.encode([0, 1]), f4.one, f4.one), (1, 3), 3, False),
        ],
        # Certification rings, all with a square root of -1 and 2 a unit, in
        # tiers of similar size so that each slot's cost is the same for
        # every seed.
        "z13": [Zn(13), Zn(17)],
        "z25": [Zn(25), Zn(29)],
        "z89": [Zn(85), Zn(89), Zn(97)],
        "distance": [Zn(5), Zn(13), Zn(17), Zn(25)],
        "ext25": [_ext(Zn(5), *f) for f in ((2, 0, 1), (0, 0, 1), (1, 0, 1), (1, 1, 1))],
        "ext81": [_ext(Zn(9), *f) for f in ((2, 1, 1), (1, 0, 1), (5, 1, 1))],
        # Rings without a square root of -1, where every family's
        # hypothesis check fails.
        "violating": [Zn(n) for n in (7, 9, 11, 15, 19, 21, 27, 33)],
    }


# -- random inputs ---------------------------------------------------------------


def _random_vector(ring, length, rng, nonzero=True):
    while True:
        v = tuple(rng.randrange(ring.size) for _ in range(length))
        if any(v) or not nonzero:
            return v


def _isotropic_set(ring, length, rng, want):
    """Up to ``want`` nonzero vectors, each orthogonal to itself and the rest."""
    non_units = [a for a in range(1, ring.size) if not is_unit(ring, a)]
    found = []
    for _ in range(2000):
        v = _random_vector(ring, length, rng)
        if non_units and rng.random() < 0.5:
            v = scale(ring, rng.choice(non_units), v)
        if not any(v) or v in found:
            continue
        if dot(ring, v, v) == ring.zero and all(dot(ring, v, w) == ring.zero for w in found):
            found.append(v)
            if len(found) == want:
                break
    if not found:
        raise ValueError(f"no isotropic vector of length {length} over {ring.text}")
    return found


def _random_matrix(ring, cols, rng, style):
    one, zero = ring.one, ring.zero
    u = sqrt_minus_one(ring)
    if style == "adiag" and u is not None:
        return ((one, u), (u, one)) if cols == 2 else ((one, zero, u), (zero, one, u))
    if style == "triangular":
        rows = [[rng.randrange(ring.size) for _ in range(cols)] for _ in range(2)]
        rows[0][0] = rows[1][1] = one
        rows[1][0] = zero
        return tuple(map(tuple, rows))
    if style == "identity":
        return tuple(tuple(one if i == j else zero for j in range(cols)) for i in range(2))
    return tuple(
        tuple(rng.randrange(ring.size) for _ in range(cols)) for _ in range(2)
    )


def _nonsingular_matrix(ring, rng):
    while True:
        a = _random_matrix(ring, 2, rng, rng.choice(("random", "adiag", "triangular")))
        if is_unit(ring, det(ring, a)):
            return a


def _verify_request(cls, ring, length, matrix, codes, theorem=False):
    argv = ["verify", "--ring", ring.text]
    for gens in codes:
        argv += ["--code", fmt_generators(ring, gens)]
    argv += ["--length", str(length), "--matrix", fmt_matrix(ring, matrix)]
    argv += ["--expect", "self-orthogonal", "--expect", "self-dual"]
    if theorem:
        argv.append("--use-dual-theorem")
    spec = {"kind": "verify", "ring": ring, "length": length, "codes": codes,
            "matrix": matrix, "theorem": theorem}
    return Request(cls, argv, spec)


def _dual_request(cls, ring, length, gens, budget=None):
    argv = ["dual", "--ring", ring.text, "--code", fmt_generators(ring, gens),
            "--length", str(length)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    spec = {"kind": "dual", "ring": ring, "length": length, "gens": gens, "budget": budget}
    return Request(cls, argv, spec)


def _scenario_request(name):
    return Request("scenario", ["reproduce", name], {"kind": "reproduce", "scenario": name})


def _free_vector(ring, length, rng):
    """A random vector with a unit coordinate, so its span has |R| words."""
    v = list(_random_vector(ring, length, rng, nonzero=False))
    unit = rng.randrange(ring.size)
    while not is_unit(ring, unit):
        unit = rng.randrange(ring.size)
    v[rng.randrange(length)] = unit
    return tuple(v)


def _free_codes(ring, length, rng):
    return tuple((_free_vector(ring, length, rng),) for _ in range(2))


def _verification_mix(table, counts, rng):
    iso_table = [entry for entry in table if entry[3]]
    out = []
    for i in range(counts["verify-iso"]):
        ring, (m, l), _, _ = iso_table[i % len(iso_table)]
        pool = _isotropic_set(ring, m, rng, 3)
        codes = tuple(
            tuple(rng.sample(pool, rng.randint(1, len(pool)))) for _ in range(2)
        )
        style = ("adiag", "random", "identity", "triangular")[i % 4]
        out.append(_verify_request(
            "verify-iso", ring, m, _random_matrix(ring, l, rng, style), codes))
    for i in range(counts["verify-random"]):
        ring, (m, l), _, _ = table[i % len(table)]
        style = ("random", "adiag", "triangular")[i % 3]
        out.append(_verify_request(
            "verify-random", ring, m, _random_matrix(ring, l, rng, style),
            _free_codes(ring, m, rng)))
    for i in range(counts["verify-theorem"]):
        ring = table[i % len(table)][0]
        m = 2 if ring.size <= 25 else 1
        out.append(_verify_request(
            "verify-theorem", ring, m, _nonsingular_matrix(ring, rng),
            _free_codes(ring, m, rng), True))
    for i in range(counts["verify-theorem-rect"]):
        ring = table[(2 * i + 1) % len(table)][0]
        out.append(_verify_request(
            "verify-theorem-rect", ring, 1, _random_matrix(ring, 3, rng, "random"),
            _free_codes(ring, 1, rng), True))
    for i in range(counts["dual"]):
        ring, _, length, _ = table[i % len(table)]
        out.append(_dual_request("dual", ring, length, (_free_vector(ring, length, rng),)))
    for i in range(counts["dual-refusal"]):
        ring, _, length, _ = table[(2 * i) % len(table)]
        gens = (_random_vector(ring, length + 1, rng),)
        out.append(_dual_request(
            "dual-refusal", ring, length + 1, gens, budget=ring.size**length))
    return out


# -- certify-distance ---------------------------------------------------------------


_FAMILIES = ("diag1", "adiag1a", "adiag1b", "adiag3", "block")
#: Ring tier of each construct slot, and the block size used in that slot.
_TIERS = ("z13", "z25", "z89", "ext25", "ext81", "ext81")
_BLOCK_SIZES = (5, 4, 3, 4, 2, 3)


def _roots_of_minus_one(ring):
    minus_one = ring.neg(ring.one)
    return [u for u in range(ring.size) if ring.mul(u, u) == minus_one]


def _construct_request(cls, family, ring, u=None, s=None, budget=None):
    argv = ["construct", family, "--ring", ring.text]
    if u is not None:
        argv += ["--u", ring.fmt(u)]
    if s is not None:
        argv += ["--s", str(s)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    spec = {"kind": "construct", "family": family, "ring": ring, "u": u,
            "s": 2 if s is None else s, "budget": budget}
    return Request(cls, argv, spec)


def _distance_request(cls, ring, length, codes, matrix=None, budget=None):
    argv = ["distance", "--ring", ring.text]
    for gens in codes:
        argv += ["--code", fmt_generators(ring, gens)]
    argv += ["--length", str(length)]
    if matrix is not None:
        argv += ["--matrix", fmt_matrix(ring, matrix)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    spec = {"kind": "distance", "ring": ring, "length": length, "codes": codes,
            "matrix": matrix, "budget": budget}
    return Request(cls, argv, spec)


def _certify_mix(table, rng):
    out = []
    for family in _FAMILIES:
        for slot, tier in enumerate(_TIERS):
            ring = rng.choice(table[tier])
            u = None
            if slot == 1:
                u = rng.choice(_roots_of_minus_one(ring))
            s = _BLOCK_SIZES[slot] if family == "block" else None
            out.append(_construct_request("construct", family, ring, u=u, s=s))
    for _ in range(CLASS_COUNTS["certify-distance"]["construct-violation"]):
        ring = rng.choice(table["violating"])
        out.append(_construct_request(
            "construct-violation", rng.choice(_FAMILIES), ring))
    ring = table["z13"][0]
    out.append(_construct_request(
        "construct-refusal", "block", ring, s=5, budget=ring.size**3))
    small_rings = table["distance"] + table["ext25"][:3]
    for i in range(CLASS_COUNTS["certify-distance"]["distance-code"]):
        ring = small_rings[i % len(small_rings)]
        length = 3 + i % 2
        gens = tuple(_random_vector(ring, length, rng) for _ in range(1 + i % 2))
        out.append(_distance_request("distance-code", ring, length, (gens,)))
    for i in range(CLASS_COUNTS["certify-distance"]["distance-product"]):
        ring = small_rings[i % len(small_rings)]
        length = 2 + i % 2
        codes = tuple((_random_vector(ring, length, rng),) for _ in range(2))
        style = ("adiag", "triangular", "adiag", "random")[i % 4]
        matrix = _random_matrix(ring, 2 + (i // 2) % 2, rng, style)
        out.append(_distance_request("distance-product", ring, length, codes, matrix))
    ring = table["z13"][1]
    codes = tuple((_random_vector(ring, 2, rng),) for _ in range(2))
    out.append(_distance_request(
        "distance-refusal", ring, 2, codes, _random_matrix(ring, 2, rng, "adiag"),
        budget=ring.size - 1))
    return out


def generate(workload: str, seed: int) -> list:
    """One pass of ``workload`` for ``seed``, in a seed-dependent order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    table = _rings()
    out = []
    for _ in range(ROUNDS):
        if workload == "certify-distance":
            out += _certify_mix(table, rng)
        else:
            out += _verification_mix(
                table["zn" if workload == "zn-verify" else "ext"], CLASS_COUNTS[workload], rng)
    out += [_scenario_request(name) for name in SCENARIOS[workload]]
    rng.shuffle(out)
    return out
