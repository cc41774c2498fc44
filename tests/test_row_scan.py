"""The single row-code scan behind row_code_min_distances, differentially
tested against materialized row codes over every ring family, including
rows that are not free and rows that generate the zero code."""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ringcodes import (
    BudgetExceededError,
    Matrix,
    UndefinedDistanceError,
    enumeration_budget,
    parse_ring,
    row_code_min_distances,
    row_codes,
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
    "Z/6[x]/(x^2+1)",
)

#: Row kinds; unit-led first and thrice, so that full-rank matrices are common.
KINDS = ("unit-led", "any", "unit-led", "not-free", "unit-led", "zero")

#: Largest nominal scan, sum of |R|^i over the levels, a drawn matrix may need.
SCAN_CAP = 7000


@pytest.fixture(scope="module")
def families(z4, z12, z25, gr92, f9_tower):
    rings = {
        "Z/4": z4,
        "Z/12": z12,
        "Z/25": z25,
        "GR(4,2)": parse_ring("Z/4[x]/(x^2+x+1)"),
        "GR(9,2)": gr92,
        "f9_tower": f9_tower,
        "Z/2[x]/(x^2)[y]/(y^2)": parse_ring("Z/2[x]/(x^2)[y]/(y^2)"),
        "Z/6[x]/(x^2+1)": parse_ring("Z/6[x]/(x^2+1)"),
    }
    return {name: (ring, list(ring.elements())) for name, ring in rings.items()}


def _scan_cost(ring, s):
    return sum(ring.cardinality**i for i in range(1, s + 1))


def _max_rows(ring):
    s = 1
    while _scan_cost(ring, s + 1) <= SCAN_CAP:
        s += 1
    return s


def materialized_distances(a):
    """min_distance of span(first i rows) for each i; None from the first
    level whose rows generate the zero code."""
    rows = [a.row(i) for i in range(a.rows)]
    out = []
    for i in range(1, a.rows + 1):
        code = span(a.ring, a.cols, rows[:i])
        if code.cardinality == 1:
            return None
        out.append(code.min_distance())
    return tuple(out)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_row_scan_matches_materialized_row_codes(family, families, data):
    ring, elems = families[family]
    zero_divisors = [e for e in elems if e.is_zero_divisor() and not e.is_zero()]
    s = data.draw(st.integers(1, _max_rows(ring)))
    l = data.draw(st.integers(1, 4))
    entry = st.sampled_from(elems)
    rows = []
    for _ in range(s):
        kind = data.draw(st.sampled_from(KINDS))
        row = [data.draw(entry) for _ in range(l)]
        if kind == "unit-led":
            row[len(rows) % l] = ring.one
        elif kind == "not-free":
            # Every entry a multiple of one nonzero zero divisor z: ann(z) kills it.
            z = data.draw(st.sampled_from(zero_divisors))
            row = [z * e for e in row]
        elif kind == "zero":
            row = [ring.zero] * l
        rows.append(row)
    a = Matrix(ring, rows)
    expected = materialized_distances(a)
    full_rank = a.has_full_rank()
    event(f"full rank={full_rank}, zero code={expected is None}")
    if expected is None:
        with pytest.raises(UndefinedDistanceError):
            row_code_min_distances(a)
        return
    assert row_code_min_distances(a) == expected
    if full_rank:
        assert tuple(c.min_distance() for c in row_codes(a)) == expected


@pytest.mark.parametrize("family", FAMILIES)
def test_row_scan_budget_stays_nominal(family, families):
    ring, elems = families[family]
    a = Matrix(ring, [[ring.one, elems[1]], [elems[1], ring.one]])
    total = _scan_cost(ring, 2)
    with pytest.raises(BudgetExceededError) as err, enumeration_budget(total - 1):
        row_code_min_distances(a)
    assert str(err.value) == (
        f"row-code scans need {total} coefficient tuples, budget is {total - 1}"
    )
    with enumeration_budget(total):
        assert row_code_min_distances(a) == materialized_distances(a)
