"""Every conclusion of the condition report holds on the product itself:
SelfOrthogonal by the generator test, SelfDual against the brute-force
dual, Equivalence against the identity-matrix product compared as a set
(:func:`oracles.literal_self_mpc`).  Run over Z/n, Galois rings, a
ramified tower and a non-chain tower."""

from itertools import product

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import literal_self_mpc
from ringcodes import (
    EQUIVALENCE,
    SELF_DUAL,
    SELF_ORTHOGONAL,
    Matrix,
    MPCSpec,
    build_mpc,
    check_conditions,
    galois_ring,
    inner_product,
    parse_ring,
    span,
)

FAMILIES = (
    "Z/4",
    "Z/12",
    "Z/25",
    "GR(4,2)",
    "GR(9,2)",
    "f9_tower",
    "Z/2[x]/(x^2)[y]/(y^2)",
)


@pytest.fixture(scope="module")
def families(z4, z12, z25, gr92, f9_tower):
    rings = {
        "Z/4": z4,
        "Z/12": z12,
        "Z/25": z25,
        "GR(4,2)": galois_ring(2, 2, 2),
        "GR(9,2)": gr92,
        "f9_tower": f9_tower,
        "Z/2[x]/(x^2)[y]/(y^2)": parse_ring("Z/2[x]/(x^2)[y]/(y^2)"),
    }
    return {name: (ring, list(ring.elements()), {}) for name, ring in rings.items()}


def _draw_gens(data, ring, elems, isotropic, m):
    """Up to two generators: free ones, or pairwise orthogonal isotropic
    ones, so that self-orthogonal and self-dual inputs turn up."""
    k = data.draw(st.integers(0, 2))
    if not data.draw(st.booleans()):
        return [data.draw(st.tuples(*[st.sampled_from(elems)] * m)) for _ in range(k)]
    if m not in isotropic:
        isotropic[m] = [
            v for v in product(elems, repeat=m) if inner_product(v, v).is_zero()
        ]
    gens = []
    for _ in range(k):
        pool = [
            v for v in isotropic[m] if all(inner_product(v, g).is_zero() for g in gens)
        ]
        gens.append(data.draw(st.sampled_from(pool)))
    return gens


def _draw_codes(data, ring, elems, isotropic, m):
    """Two input codes: equal, nested either way, or unrelated."""
    g1 = _draw_gens(data, ring, elems, isotropic, m)
    g2 = _draw_gens(data, ring, elems, isotropic, m)
    gens = data.draw(st.sampled_from([(g1, g1), (g1, g1 + g2), (g1 + g2, g1), (g1, g2)]))
    return tuple(span(ring, m, g) for g in gens)


def _draw_matrix(data, ring, elems):
    one, zero = ring.one, ring.zero
    units = [e for e in elems if e.is_unit()]
    entry = st.sampled_from(elems)
    unit = st.sampled_from(units)
    pool = [
        [[one, zero], [zero, one]],
        [[zero, one], [one, zero]],
        [[data.draw(unit), data.draw(entry)], [zero, data.draw(unit)]],
        [[data.draw(unit), zero], [data.draw(entry), data.draw(unit)]],
        [[data.draw(entry), zero], [zero, data.draw(entry)]],
        [[data.draw(entry) for _ in range(2)] for _ in range(2)],
    ]
    u = ring.find_square_root_of_minus_one()
    if u is not None:
        pool.append([[one, u], [u, one]])
    return Matrix(ring, data.draw(st.sampled_from(pool)))


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_report_conclusions_hold_on_the_product(family, families, data):
    ring, elems, isotropic = families[family]
    # Keeps the dual scan of the length-2m product at 81^2 candidates on the
    # 81-element rings and 25^4 on Z/25.
    m = 1 if ring.cardinality > 25 else data.draw(st.integers(1, 2))
    codes = _draw_codes(data, ring, elems, isotropic, m)
    spec = MPCSpec(codes, _draw_matrix(data, ring, elems))
    report = check_conditions(spec)
    mpc = build_mpc(spec)
    # Events show the conclusion mix under --hypothesis-show-statistics.
    event("concludes " + ",".join(sorted({c.property for c in report.conclusions})))
    if report.concludes(SELF_ORTHOGONAL):
        assert mpc.is_self_orthogonal()
    if report.concludes(SELF_DUAL):
        assert mpc == mpc.dual_bruteforce()
    if report.concludes(EQUIVALENCE):
        assert literal_self_mpc(spec)
