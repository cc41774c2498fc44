"""The flat element layout, its product table and the characteristic-
polynomial kernel, differentially tested against nested-polynomial
arithmetic and Laplace expansion over every ring family."""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import flat, laplace_det, nested, nested_add, nested_mul, nested_neg
from ringcodes import Matrix, NotInvertibleError, parse_element, parse_ring

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
        det = m.determinant()
        assert det == laplace_det(m)
        event(f"s={s}, nonsingular={det.is_unit()}")
        if det.is_unit():
            assert m @ m.adjugate_inverse() == identity
        else:
            with pytest.raises(NotInvertibleError):
                m.adjugate_inverse()
