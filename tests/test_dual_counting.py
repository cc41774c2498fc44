"""Self-duality by counting, differentially tested against the brute-force
dual: |C| * |C^perp| = |R|^m over every ring family (Z/n, Galois rings,
a ramified tower and a non-chain tower), and the counting verdicts of
is_self_dual and of the condition report agree with the oracle."""

from itertools import product

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ringcodes import (
    BudgetExceededError,
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
    "Z/20",
    "Z/25",
    "GR(4,2)",
    "GR(9,2)",
    "f9_tower",
    "Z/2[x]/(x^2)[y]/(y^2)",
)

#: Caps the product-level checks of the report; the largest oracle scan
#: is 81^2 = 6561 candidates.
BUDGET = 6561


@pytest.fixture(scope="module")
def families(z4, z12, z20, z25, gr92, f9_tower):
    rings = {
        "Z/4": z4,
        "Z/12": z12,
        "Z/20": z20,
        "Z/25": z25,
        "GR(4,2)": galois_ring(2, 2, 2),
        "GR(9,2)": gr92,
        "f9_tower": f9_tower,
        "Z/2[x]/(x^2)[y]/(y^2)": parse_ring("Z/2[x]/(x^2)[y]/(y^2)"),
    }
    return {name: (ring, list(ring.elements()), {}) for name, ring in rings.items()}


def _draw_code(data, ring, elems, isotropic, m):
    """A code with up to three generators: free ones, or pairwise
    orthogonal self-orthogonal ones so that self-dual codes turn up."""
    k = data.draw(st.integers(0, 3))
    if not data.draw(st.booleans()):
        vector = st.tuples(*[st.sampled_from(elems)] * m)
        return span(ring, m, [data.draw(vector) for _ in range(k)])
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
    return span(ring, m, gens)


def _matrices(ring, elems, data):
    one, zero = ring.one, ring.zero
    pool = [
        Matrix.identity(ring, 2),
        Matrix(ring, [[zero, one], [one, zero]]),
        Matrix(ring, [[data.draw(st.sampled_from(elems)) for _ in range(2)] for _ in range(2)]),
    ]
    u = ring.find_square_root_of_minus_one()
    if u is not None:
        pool.append(Matrix(ring, [[one, u], [u, one]]))
    return pool


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_counting_agrees_with_bruteforce_dual(family, families, data):
    ring, elems, isotropic = families[family]
    m = data.draw(st.integers(1, 2))
    c1 = _draw_code(data, ring, elems, isotropic, m)
    d1 = c1.dual_bruteforce()
    if data.draw(st.booleans()):
        codes, duals = (c1, c1), (d1, d1)
    else:
        c2 = _draw_code(data, ring, elems, isotropic, m)
        codes, duals = (c1, c2), (d1, c2.dual_bruteforce())
    # Events show the verdict mix under --hypothesis-show-statistics.
    for c, dual in zip(codes, duals):
        assert c.cardinality * dual.cardinality == ring.cardinality**m
        assert c.dual_cardinality() == dual.cardinality
        assert c.is_self_dual() == (c == dual)
        event(f"self-dual={c == dual} m={m}")

    a = data.draw(st.sampled_from(_matrices(ring, elems, data)))
    # The two verdicts below need only the input closures, which run under
    # the codes' own budget.
    report = check_conditions(MPCSpec(codes, a), budget=BUDGET)
    g = a.gram()
    unit_adiag = all(
        g.entry(i, j).is_unit() if j == 1 - i else g.entry(i, j).is_zero()
        for i in range(2)
        for j in range(2)
    )
    assert report.condition("thm-self-dual").holds == (
        unit_adiag and codes[0] == duals[1] and codes[1] == duals[0]
    )
    assert report.condition("cor-orthog-3").holds == (
        a.is_orthogonal() and codes[0] == duals[0] and codes[1] == duals[1]
    )
    event(f"thm-self-dual={report.condition('thm-self-dual').holds}")
    event(f"cor-orthog-3={report.condition('cor-orthog-3').holds}")


def test_is_self_dual_needs_no_scan_budget(z25):
    # The 625 words of the product decide what the 25^4 = 390,625-candidate
    # dual scan decided, so a budget far below the scan suffices.
    c = span(z25, 2, [[1, 7]])
    mpc = build_mpc(MPCSpec((c, c), Matrix(z25, [[1, 7], [7, 1]])), budget=1000)
    assert mpc.is_self_dual(budget=1000)
    with pytest.raises(BudgetExceededError):
        mpc.dual_bruteforce(budget=1000)
