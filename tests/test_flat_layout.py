"""The flat element layout, its product table, non-singularity, the
inverse and the raw-row matrix layout, differentially tested against
nested-polynomial arithmetic, Laplace expansion and element-level matrix
algebra over every ring family."""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import (
    element_identity,
    element_product,
    element_scale,
    element_str,
    element_transpose,
    flat,
    laplace_det,
    laplace_inverse,
    nested,
    nested_add,
    nested_mul,
    nested_neg,
)
from ringcodes import (
    Matrix,
    MPCSpec,
    NotInvertibleError,
    RingElement,
    mpc_generator_matrix,
    parse_element,
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
    "Z/6[x]/(x^2+1)",
    "Z/12[x]/(x+5)",  # degree 1: every raw a 1-tuple
    "Z/4[x]/(x^3+x+1)",
)


@pytest.fixture(scope="module")
def families(z4, z12, z25, gr92, f9_tower):
    rings = {
        "Z/4": z4,
        "Z/12": z12,
        "Z/25": z25,
        "GR(4,2)": parse_ring("Z/4[x]/(x^2+x+1)"),
        "GR(9,2)": gr92,
        "f9_tower": f9_tower,
    }
    rings.update((name, parse_ring(name)) for name in FAMILIES if name not in rings)
    return {name: (ring, list(ring.elements())) for name, ring in rings.items()}


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_arithmetic_matches_nested_polynomials(family, families, data):
    ring, elems = families[family]
    for _ in range(8):
        a, b = data.draw(st.sampled_from(elems)), data.draw(st.sampled_from(elems))
        x, y = nested(ring, a.raw), nested(ring, b.raw)
        assert (a * b).raw == flat(ring, nested_mul(ring, x, y))
        assert (a + b).raw == flat(ring, nested_add(ring, x, y))
        assert (-a).raw == flat(ring, nested_neg(ring, x))


def _coordinate_basis(ring):
    """The raws e_i with one coordinate 1, built here rather than read off
    the ring."""
    if ring.depth == 0:
        return [1]
    return [tuple(int(k == i) for k in range(ring.width)) for i in range(ring.width)]


def _coordinates(ring, raw):
    return (raw,) if ring.depth == 0 else raw


#: Wider and deeper extensions than FAMILIES, whose tables take more steps
#: of the multiply-by-v recurrence, and towers whose fold rows are read off
#: the base's multiplication matrices: degree 1, and zero-divisor
#: coefficients.
TABLE_EXTRAS = (
    "Z/2[x]/(x^8+x^4+x^3+x+1)",
    "Z/25[x]/(x^3+2*x+7)[y]/(y^2+x*y+3)",
    "Z/2[x]/(x^2+x+1)[y]/(y^2+y+x)[z]/(z^3+y*z+x)",
    "Z/3[x]/(x^2+x+2)[y]/(y+x)",
    "Z/9[x]/(x^2+3)[y]/(y^2+3*x*y+3)",
)


@pytest.mark.parametrize(
    "family", [f for f in FAMILIES if f not in ("Z/4", "Z/12", "Z/25")] + list(TABLE_EXTRAS)
)
def test_product_table_matches_nested_products(family, families):
    # Exhaustive: every entry e_i * e_j of each extension's table.
    ring = families[family][0] if family in families else parse_ring(family)
    basis = _coordinate_basis(ring)
    assert len(ring._table) == len(basis)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            product = flat(ring, nested_mul(ring, nested(ring, a), nested(ring, b)))
            assert ring._table[i][j] == tuple((k, c) for k, c in enumerate(product) if c)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_zn_rows_match_element_products(family, families, data):
    ring, elems = families[family]
    m, k = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    vectors = [[data.draw(st.sampled_from(elems)) for _ in range(m)] for _ in range(k)]
    expected = []
    for g in vectors:
        for raw in _coordinate_basis(ring):
            b = RingElement(ring, raw)
            products = [b * a for a in g]
            assert all(
                p.raw == flat(ring, nested_mul(ring, nested(ring, raw), nested(ring, a.raw)))
                for p, a in zip(products, g)
            )
            expected.append(tuple(x for p in products for x in _coordinates(ring, p.raw)))
    assert ring._zn_rows([tuple(a.raw for a in g) for g in vectors]) == expected


@pytest.mark.parametrize("family", FAMILIES)
def test_enumeration_is_sorted_and_round_trips(family, families):
    ring, elems = families[family]
    raws = list(ring._iter_raw())
    assert raws == sorted(raws) == sorted(raws, key=lambda r: nested(ring, r))
    assert len(set(raws)) == ring.cardinality
    assert all(flat(ring, nested(ring, r)) == r for r in raws)
    for e in elems:
        assert parse_element(str(e), ring) == e


def _unitriangular(ring, elems, s, draw, lower):
    """An s x s triangular matrix with unit diagonal entries."""
    units = [e for e in elems if e.is_unit()]
    return Matrix(ring, [
        [
            draw(st.sampled_from(units)) if i == j
            else draw(st.sampled_from(elems)) if (i > j) == lower
            else ring.zero
            for j in range(s)
        ]
        for i in range(s)
    ])


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_determinant_and_inverse_match_laplace(family, families, data):
    ring, elems = families[family]
    s = data.draw(st.integers(1, 5))
    entry = st.sampled_from(elems)
    a = Matrix(ring, [[data.draw(entry) for _ in range(s)] for _ in range(s)])
    # L*U with unit diagonals is invertible, so the inverse path always runs.
    lu = _unitriangular(ring, elems, s, data.draw, True) @ _unitriangular(
        ring, elems, s, data.draw, False
    )
    identity = Matrix.identity(ring, s)
    for m in (a, lu):
        nonsingular = laplace_det(m).is_unit()
        assert m.is_nonsingular() == m.has_full_rank() == nonsingular
        event(f"s={s}, nonsingular={nonsingular}")
        if nonsingular:
            inverse = m.adjugate_inverse()
            assert _rows(inverse) == laplace_inverse(ring, _rows(m))
            assert m @ inverse == inverse @ m == identity
        else:
            with pytest.raises(NotInvertibleError) as err:
                m.adjugate_inverse()
            assert str(err.value) == (
                "matrix is singular: A does not have full rank, so det(A) is not a unit "
                f"in {ring.description()}"
            )


def _rows(matrix):
    return [list(row) for row in matrix.entries]


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_raw_matrix_matches_element_oracle(family, families, data):
    # A raw row through the public constructor is read as coefficient data,
    # which on a tower is another element: every result must keep its raws.
    ring, elems = families[family]
    entry = st.sampled_from(elems)
    s, l, t = (data.draw(st.integers(1, 4)) for _ in range(3))
    rows = [[data.draw(entry) for _ in range(l)] for _ in range(s)]
    other = [[data.draw(entry) for _ in range(t)] for _ in range(l)]
    a, b, lam = Matrix(ring, rows), Matrix(ring, other), data.draw(entry)
    assert _rows(a) == rows
    assert all(a.row(i) == tuple(rows[i]) for i in range(s))
    assert all(a.entry(i, j) == rows[i][j] for i in range(s) for j in range(l))
    assert str(a) == element_str(rows)
    assert _rows(Matrix.identity(ring, s)) == element_identity(ring, s)
    assert _rows(a.transpose()) == element_transpose(rows)
    assert _rows(a @ b) == element_product(ring, rows, other)
    assert _rows(a.scale(lam)) == element_scale(lam, rows)
    # A non-singular L*U for the inverse and the generator matrix.
    n = data.draw(st.integers(1, 3))
    lower = _unitriangular(ring, elems, n, data.draw, True)
    upper = _unitriangular(ring, elems, n, data.draw, False)
    lu = lower @ upper
    assert _rows(lu) == element_product(ring, _rows(lower), _rows(upper))
    assert _rows(lu.adjugate_inverse()) == laplace_inverse(ring, _rows(lu))
    gens = [[data.draw(entry) for _ in range(2)] for _ in range(n)]
    spec = MPCSpec(tuple(span(ring, 2, [g]) for g in gens), lu)
    blocks = mpc_generator_matrix(spec, [Matrix(ring, [g]) for g in gens])
    assert _rows(blocks) == [
        [a_ij * c for a_ij in row for c in g] for row, g in zip(_rows(lu), gens)
    ]
