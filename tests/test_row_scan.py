"""The single row-code scan behind row_code_min_distances, differentially
tested against the word stream of each materialized row code over every
ring family, including rows that are not free, rows that generate the
zero code and the construct families' matrices.  The scan bounds each
search by the previous row code's distance; the stream shares nothing
with it."""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import stream_min_weight
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
    """The streamed minimum weight of span(first i rows) for each i; None
    from the first level whose rows generate the zero code."""
    rows = [a.row(i) for i in range(a.rows)]
    out = []
    for i in range(1, a.rows + 1):
        code = span(a.ring, a.cols, rows[:i])
        if code.cardinality == 1:
            return None
        out.append(stream_min_weight(a.ring, code._module(), a.cols))
    return tuple(out)


def _block(ring, u, s):
    return [[ring.one if j == i else u if j == s - 1 - i else ring.zero for j in range(s)]
            for i in range(s)]


#: The matrices of ``ringcodes construct``, for any u (constructions.py).
CONSTRUCT_SHAPES = {
    "diag1": lambda ring, u: [[ring.one, u, ring.one], [-ring.one, ring.zero, ring.one]],
    "adiag1a": lambda ring, u: [[ring.one, ring.zero, u], [ring.zero, ring.one, u]],
    "adiag1b": lambda ring, u: [[ring.one, u, ring.zero, ring.one, u],
                                [u, ring.one, u, ring.zero, ring.one]],
    "block-2": lambda ring, u: _block(ring, u, 2),
    "block-3": lambda ring, u: _block(ring, u, 3),
    "block-4": lambda ring, u: _block(ring, u, 4),
}


def _drawn_rows(ring, elems, data):
    s = data.draw(st.integers(1, _max_rows(ring)))
    l = data.draw(st.integers(1, 4))
    zero_divisors = [e for e in elems if e.is_zero_divisor() and not e.is_zero()]
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
    return rows


def _full_rank_shapes(ring, elems, shape):
    return [rows for rows in (shape(ring, u) for u in elems) if Matrix(ring, rows).has_full_rank()]


def _construct_rows(ring, elems, data):
    """A construct family's full-rank matrix, within the scan cap, for a
    drawn u (u = 1 gives one for every family)."""
    shapes = [
        (name, shape) for name, shape in CONSTRUCT_SHAPES.items()
        if len(shape(ring, ring.zero)) <= _max_rows(ring)
    ]
    name, shape = data.draw(st.sampled_from(shapes))
    event(f"construct {name}")
    return data.draw(st.sampled_from(_full_rank_shapes(ring, elems, shape)))


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_row_scan_matches_materialized_row_codes(family, families, data):
    ring, elems = families[family]
    draw = _construct_rows if data.draw(st.booleans()) else _drawn_rows
    a = Matrix(ring, draw(ring, elems, data))
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


#: Largest |R|^s of a construct family's matrix below, so that the stream
#: of its last row code stays short; block s = 4 fits rings of up to 16.
CONSTRUCT_CAP = 70_000


@pytest.mark.parametrize("shape", CONSTRUCT_SHAPES)
def test_row_scan_matches_every_construct_family(shape, families):
    # Every family with every ring it fits, for a few full-rank u each.
    checked = 0
    for ring, elems in families.values():
        if ring.cardinality ** len(CONSTRUCT_SHAPES[shape](ring, ring.zero)) > CONSTRUCT_CAP:
            continue
        matrices = _full_rank_shapes(ring, elems, CONSTRUCT_SHAPES[shape])
        for rows in matrices[:: max(1, len(matrices) // 3)]:
            a = Matrix(ring, rows)
            assert row_code_min_distances(a) == materialized_distances(a), rows
            checked += 1
    assert checked
