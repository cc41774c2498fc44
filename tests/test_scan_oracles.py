"""The plain scan of R^m behind dual_bruteforce, the oracle of every
dual, and the echelon full-rank test behind has_full_rank, differentially
tested against naive full scans by public element operations over every
ring family: Z/n, Galois rings, a ramified tower and a non-chain tower;
and the nominal budget charge of the scan (full rank is never charged)."""

from itertools import product

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from oracles import naive_dual, naive_inner
from ringcodes import (
    BudgetExceededError, Matrix, enumeration_budget, galois_ring, parse_ring, span,
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

#: Largest |R|^k a naive scan of R^k may take.
SCAN_CAP = 6561

#: Largest |R|^m * |C| the codeword-by-codeword oracle may take.
ORACLE_CAP = 20_000


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
    return {name: (ring, list(ring.elements())) for name, ring in rings.items()}


def _max_length(ring):
    k = 1
    while ring.cardinality ** (k + 1) <= SCAN_CAP:
        k += 1
    return k


def naive_full_rank(matrix):
    """True iff no nonzero x in R^s has x*A = 0, by public element operations."""
    ring = matrix.ring
    zero = ring.zero
    cols = list(zip(*(matrix.row(i) for i in range(matrix.rows))))
    for x in product(list(ring.elements()), repeat=matrix.rows):
        if any(not c.is_zero() for c in x) and all(
            naive_inner(ring, x, col) == zero for col in cols
        ):
            return False
    return True


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_dual_matches_naive_dual(family, families, data):
    ring, elems = families[family]
    m = data.draw(st.integers(1, min(3, _max_length(ring))))
    vector = st.tuples(*[st.sampled_from(elems)] * m)
    code = span(ring, m, data.draw(st.lists(vector, max_size=2)))
    assume(ring.cardinality**m * code.cardinality <= ORACLE_CAP)
    event(f"m={m}")
    assert code.dual_bruteforce().codewords() == naive_dual(code)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_full_rank_matches_naive_scan(family, families, data):
    ring, elems = families[family]
    s = data.draw(st.integers(1, _max_length(ring)))
    l = data.draw(st.integers(1, 3))
    entry = st.sampled_from(elems)
    rows = [[data.draw(entry) for _ in range(l)] for _ in range(s)]
    if l >= s and data.draw(st.booleans()):
        # A unit block makes full-rank inputs common.
        for i in range(s):
            rows[i][i] = ring.one
    a = Matrix(ring, rows)
    expected = naive_full_rank(a)
    event(f"full rank={expected}")
    assert a.has_full_rank() == expected


@pytest.mark.parametrize("family", FAMILIES)
def test_edge_cases(family, families):
    ring, elems = families[family]
    zero = ring.zero
    unit = elems[-1] if elems[-1].is_unit() else ring.one
    codes = [
        span(ring, 1, []),  # no generators
        span(ring, 2, [[zero, zero]]),  # an all-zero generator
        span(ring, 1, [[unit]]),  # k = 1
        span(ring, 1, [[elems[len(elems) // 2]]]),
    ]
    codes.append(codes[-1].dual_bruteforce())  # generators: every word
    if ring.cardinality**3 <= SCAN_CAP:
        codes.append(span(ring, 3, [[unit, zero, elems[1]]]))  # odd k
    for code in codes:
        assert code.dual_bruteforce().codewords() == naive_dual(code)

    matrices = [
        Matrix(ring, [[zero]]),
        Matrix(ring, [[zero, zero], [zero, zero]]),  # zero matrix
        Matrix(ring, [[unit]]),
        Matrix(ring, [elems[1:4]]),  # 1 x l
        Matrix(ring, [[elems[1]], [elems[2]]]),
    ]
    for a in matrices:
        assert a.has_full_rank() == naive_full_rank(a)


@pytest.mark.parametrize("family", FAMILIES)
def test_budget_stays_nominal(family, families):
    ring, elems = families[family]
    m = 2 if ring.cardinality**2 <= SCAN_CAP else 1
    total = ring.cardinality**m
    code = span(ring, m, [[elems[1]] * m])
    with pytest.raises(BudgetExceededError) as err, enumeration_budget(total - 1):
        code.dual_bruteforce()
    assert str(err.value) == (
        f"dual enumeration needs {total} candidate vectors, budget is {total - 1}"
    )
    with enumeration_budget(total):
        assert code.dual_bruteforce().cardinality * code.cardinality == total

