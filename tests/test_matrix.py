"""Matrix algebra: products, non-singularity, adjugate inverses, Gram
shapes, orthogonality, and full rank."""

import random
from itertools import product

import pytest

from ringcodes import (
    ANTI_DIAGONAL,
    DIAGONAL,
    CertificateError,
    Matrix,
    NotInvertibleError,
    ShapeError,
    make_integer_residue_ring,
)
from ringcodes import ring as ring_module
from ringcodes.ring import Ring


def rand_matrix(ring, rng, rows, cols):
    elems = list(ring.elements())
    return Matrix(ring, [[rng.choice(elems) for _ in range(cols)] for _ in range(rows)])


def test_identity_multiplication(z20):
    a = Matrix(z20, [[1, 2, 3], [4, 5, 6]])
    assert Matrix.identity(z20, 2) @ a == a


def test_gram_golden(z20):
    a = Matrix(z20, [[1, 2], [0, 0]])
    assert a.gram() == Matrix(z20, [[5, 0], [0, 0]])
    b = Matrix(z20, [[0, 2, 0, 4], [0, 4, 2, 0]])
    assert b.gram() == Matrix(z20, [[0, 8], [8, 0]])


def test_transpose_properties(z12, z25):
    rng = random.Random(71)
    for ring in (z12, z25):
        for _ in range(25):
            a = rand_matrix(ring, rng, 3, 3)
            b = rand_matrix(ring, rng, 3, 3)
            assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_is_nonsingular(z20, z25):
    assert Matrix(z25, [[1, 7], [7, 1]]).is_nonsingular()
    assert not Matrix(z20, [[1, 2], [0, 0]]).is_nonsingular()
    assert Matrix.identity(z20, 3).is_nonsingular()
    with pytest.raises(ShapeError):
        Matrix(z20, [[1, 2, 3], [4, 5, 6]]).is_nonsingular()


def test_full_rank_is_decided_once(z25, monkeypatch):
    # Asked any number of times, through either name, a matrix decides its
    # rank once; an inverse and the transpose of a square matrix know theirs.
    calls = []
    full_rank = Ring._full_rank
    monkeypatch.setattr(
        Ring, "_full_rank", lambda ring, rows: calls.append(rows) or full_rank(ring, rows))
    a = Matrix(z25, [[1, 7], [7, 1]])
    for _ in range(3):
        assert a.is_nonsingular() and a.has_full_rank()
    assert len(calls) == 1
    inverse = a.adjugate_inverse()
    assert inverse.is_nonsingular() and inverse.transpose().has_full_rank()
    assert a.transpose().is_nonsingular()
    singular = Matrix(z25, [[5, 0], [0, 1]])
    with pytest.raises(NotInvertibleError):
        singular.adjugate_inverse()
    assert not singular.has_full_rank() and not singular.transpose().is_nonsingular()
    assert len(calls) == 1
    assert Matrix(z25, [[1, 0, 0]]).transpose().has_full_rank() is False
    assert len(calls) == 2


def test_adjugate_inverse(z25):
    identity = Matrix.identity(z25, 3)
    assert identity.adjugate_inverse() == identity
    a = Matrix(z25, [[1, 7], [7, 1]])
    inv = a.adjugate_inverse()
    assert a @ inv == Matrix.identity(z25, 2)
    assert inv @ a == Matrix.identity(z25, 2)


def test_inverse_transpose_rows_for_unit_antidiagonal_gram(z25):
    # With A*A^t = adiag(14,14), row i of (A^-1)^t is 14^-1 times
    # row (s-i+1) of A.
    a = Matrix(z25, [[1, 7], [7, 1]])
    inv_t = a.adjugate_inverse().transpose()
    lam_inv = z25.element(14).invert()
    for i in range(2):
        assert inv_t.row(i) == tuple(lam_inv * e for e in a.row(1 - i))


@pytest.mark.parametrize("name", ["z25", "gr92"])
def test_inverse_self_check_covers_every_row(name, request, monkeypatch):
    # Every row of an inverse is checked over Z/n: a wrong row anywhere,
    # here the inverse half of reduced row r zeroed, is refused, for
    # matrices and elements alike.
    ring = request.getfixturevalue(name)
    a = Matrix(ring, [[1, 2], [3, 7]])
    assert a @ a.adjugate_inverse() == Matrix.identity(ring, 2)

    reduced = ring_module.reduced

    def zero_inverse_half(r, size):
        def broken(n, form):
            rows = reduced(n, form)
            rows[r] = rows[r][:size] + (0,) * size
            return rows
        return broken

    for i in range(2):
        with monkeypatch.context() as patch:
            patch.setattr(ring_module, "reduced", zero_inverse_half(i * ring.width, 2 * ring.width))
            with pytest.raises(CertificateError):
                a.adjugate_inverse()
    unit = ring.from_int(2)
    assert unit * unit.invert() == ring.one
    monkeypatch.setattr(ring_module, "reduced", zero_inverse_half(0, ring.width))
    with pytest.raises(CertificateError):
        unit.invert()


def test_singular_inverse_rejected(z20):
    with pytest.raises(NotInvertibleError):
        Matrix(z20, [[1, 2], [0, 0]]).adjugate_inverse()


def test_classify_gram_golden(z20, z25):
    shape = Matrix(z20, [[1, 2], [0, 0]]).classify_gram()
    assert shape.tag == DIAGONAL
    assert [e.raw for e in shape.lambdas] == [5, 0]
    shape = Matrix(z20, [[0, 2, 0, 4], [0, 4, 2, 0]]).classify_gram()
    assert shape.tag == ANTI_DIAGONAL
    assert [e.raw for e in shape.lambdas] == [8, 8]
    shape = Matrix(z25, [[1, 7], [7, 1]]).classify_gram()
    assert shape.tag == ANTI_DIAGONAL
    assert [e.raw for e in shape.lambdas] == [14, 14]


def test_classify_gram_tie_breaks(z4):
    # 1x1 Grams and zero Grams qualify both ways; diagonal wins.
    assert Matrix(z4, [[1, 2]]).classify_gram().tag == DIAGONAL
    shape = Matrix(z4, [[0, 2], [2, 0]]).classify_gram()
    assert shape.tag == DIAGONAL
    assert [e.raw for e in shape.lambdas] == [0, 0]


def test_classify_gram_other(z25):
    assert Matrix(z25, [[1, 0], [1, 1]]).classify_gram().tag == "other"


def test_classify_gram_reconstructs(z12, z25):
    rng = random.Random(303)
    for ring in (z12, z25):
        zero, s = ring.zero, 3
        for _ in range(40):
            a = rand_matrix(ring, rng, s, 4)
            shape = a.classify_gram()
            g = a.gram()
            if shape.tag == DIAGONAL:
                rebuilt = Matrix(
                    ring,
                    [
                        [shape.lambdas[i] if i == j else zero for j in range(s)]
                        for i in range(s)
                    ],
                )
                assert rebuilt == g
            elif shape.tag == ANTI_DIAGONAL:
                rebuilt = Matrix(
                    ring,
                    [
                        [shape.lambdas[i] if j == s - 1 - i else zero for j in range(s)]
                        for i in range(s)
                    ],
                )
                assert rebuilt == g


def test_unit_gram_implies_nonsingular(z25, z13):
    for ring, rows in (
        (z25, [[1, 7], [7, 1]]),
        (z13, [[1, 5], [5, 1]]),
        (z13, [[2, 0], [0, 3]]),
    ):
        a = Matrix(ring, rows)
        shape = a.classify_gram()
        assert shape.tag in (DIAGONAL, ANTI_DIAGONAL)
        assert all(lam.is_unit() for lam in shape.lambdas)
        assert a.is_nonsingular()


def test_is_orthogonal(z5, z25):
    assert Matrix.identity(z25, 3).is_orthogonal()
    assert not Matrix(z25, [[1, 7], [7, 1]]).is_orthogonal()
    assert not Matrix(z5, [[2, 0], [0, 3]]).is_orthogonal()
    assert Matrix(z5, [[0, 4], [1, 0]]).is_orthogonal()  # signed permutation


def test_orthogonal_iff_identity_gram(z4, z5):
    rng = random.Random(99)
    for ring in (z4, z5):
        for _ in range(60):
            a = rand_matrix(ring, rng, 2, 2)
            shape = a.classify_gram()
            expected = shape.tag == DIAGONAL and all(
                lam == ring.one for lam in shape.lambdas
            )
            assert a.is_orthogonal() == expected


@pytest.mark.parametrize("n", [4, 6, 9])
def test_identity_gram_forces_nonsingular(n):
    # is_orthogonal and the report test A*A^t = I alone: det(A)^2 = 1 makes
    # det(A) a unit.  Checked on every 2x2 matrix.
    ring = make_integer_residue_ring(n)
    identity = Matrix.identity(ring, 2)
    orthogonal = 0
    for a, b, c, d in product(range(n), repeat=4):
        m = Matrix(ring, [[a, b], [c, d]])
        if m.gram() == identity:
            assert m.is_nonsingular() and m.is_orthogonal()
            orthogonal += 1
    assert orthogonal >= 4  # at least the signed identities


def test_has_full_rank(z20):
    a = Matrix(z20, [[1, 2], [0, 0]])
    # Witness: (0,1) * A = 0.
    assert all((0 * x + 1 * y) % 20 == 0 for x, y in zip(*a._raw_rows))
    assert not a.has_full_rank()
    assert Matrix.identity(z20, 3).has_full_rank()
    b = Matrix(z20, [[0, 2, 0, 4], [0, 4, 2, 0]])
    # Witness: (10,0) * B = 0.
    assert all((10 * x) % 20 == 0 for x in b._raw_rows[0])
    assert not b.has_full_rank()


def test_has_full_rank_extension_ring(gr92):
    assert Matrix.identity(gr92, 2).has_full_rank()
    three = gr92.from_int(3)
    assert not Matrix(gr92, [[three, three]]).has_full_rank()


def test_full_rank_is_uncharged(z25):
    # Full rank is read off the echelon form, so 25^20 candidate vectors,
    # far past any budget, cost nothing.
    assert Matrix.identity(z25, 20).has_full_rank()
    assert not Matrix(z25, [[5] * 20] * 20).has_full_rank()


def test_ragged_rows_rejected(z20):
    with pytest.raises(ShapeError):
        Matrix(z20, [[1, 2], [3]])
    with pytest.raises(ShapeError):
        Matrix(z20, [])
