"""Certified combining matrices: hypothesis gating and certificate
verification against independent materialized scans."""

import re

import pytest

from ringcodes import (
    ANTI_DIAGONAL,
    DIAGONAL,
    BudgetExceededError,
    CertificateError,
    HypothesisViolationError,
    InvalidParameterError,
    Matrix,
    adiag1_matrix_a,
    adiag1_matrix_b,
    adiag3_matrix,
    block_adiag_matrix,
    diag1_matrix,
    enumeration_budget,
    prime_square_codes,
    row_codes,
)
from ringcodes.constructions import (
    HYP_TWO_NOT_ZERO_DIVISOR,
    HYP_TWO_UNIT,
    HYP_U_NOT_ZERO_DIVISOR,
    HYP_U_SQUARES_TO_MINUS_ONE,
    _certify,
)


def test_diag1_golden(z25):
    cert = diag1_matrix(z25, 1)
    assert cert.matrix == Matrix(z25, [[1, 1, 1], [24, 0, 1]])
    assert cert.gram.tag == DIAGONAL
    assert [e.raw for e in cert.gram.lambdas] == [3, 2]
    assert cert.deltas == (3, 2)
    assert cert.hypotheses == (HYP_TWO_NOT_ZERO_DIVISOR, HYP_U_NOT_ZERO_DIVISOR)


def test_diag1_symbolic_gram(z9, z13):
    for ring, u in ((z9, 1), (z13, 5)):
        cert = diag1_matrix(ring, u)
        two = ring.from_int(2)
        uu = ring.element(u)
        assert cert.gram.lambdas == (two + uu * uu, two)
        assert cert.deltas == (3, 2)


def test_diag1_hypothesis_violations(z9, z20):
    with pytest.raises(HypothesisViolationError) as err:
        diag1_matrix(z20, 1)
    assert err.value.hypothesis == HYP_TWO_NOT_ZERO_DIVISOR
    with pytest.raises(HypothesisViolationError) as err:
        diag1_matrix(z9, 3)
    assert err.value.hypothesis == HYP_U_NOT_ZERO_DIVISOR


def test_adiag1_golden(z13, z25):
    for ring, u in ((z25, 7), (z13, 5)):
        a = adiag1_matrix_a(ring, u)
        assert a.gram.tag == ANTI_DIAGONAL
        assert a.gram.lambdas == (-ring.one, -ring.one)
        assert a.deltas == (2, 2)
        b = adiag1_matrix_b(ring, u)
        three_u = ring.from_int(3) * ring.element(u)
        assert b.gram.lambdas == (three_u, three_u)
        assert b.deltas == (4, 3)


def test_adiag1_rejects_bad_u(z20):
    with pytest.raises(HypothesisViolationError) as err:
        adiag1_matrix_a(z20, 3)  # 9 != -1 mod 20
    assert err.value.hypothesis == HYP_U_SQUARES_TO_MINUS_ONE


def test_adiag3_golden(z13, z25):
    cert = adiag3_matrix(z25, 7)
    assert cert.matrix == Matrix(z25, [[1, 7], [7, 1]])
    assert [e.raw for e in cert.gram.lambdas] == [14, 14]
    assert cert.deltas == (2, 1)
    cert = adiag3_matrix(z13, 5)
    assert [e.raw for e in cert.gram.lambdas] == [10, 10]
    assert cert.deltas == (2, 1)


def test_adiag3_needs_unit_two(z20):
    with pytest.raises(HypothesisViolationError) as err:
        adiag3_matrix(z20, 1)
    assert err.value.hypothesis == HYP_TWO_UNIT


def test_default_u_comes_from_enumeration(z20, z25):
    assert adiag3_matrix(z25).matrix == adiag3_matrix(z25, 7).matrix
    with pytest.raises(HypothesisViolationError):
        adiag1_matrix_a(z20)  # Z/20 has no square root of -1


def test_block_matches_adiag3_for_s2(z25):
    assert block_adiag_matrix(z25, 7, s=2).matrix == adiag3_matrix(z25, 7).matrix


def test_block_golden_z25(z25):
    cert = block_adiag_matrix(z25, 7, s=3)
    assert [e.raw for e in cert.gram.lambdas] == [14, 1, 14]
    assert cert.deltas == (2, 1, 1)
    cert = block_adiag_matrix(z25, 7, s=4)
    assert [e.raw for e in cert.gram.lambdas] == [14, 14, 14, 14]
    assert cert.deltas == (2, 2, 1, 1)


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_block_certificates_small_ring(z5, s):
    cert = block_adiag_matrix(z5, 2, s=s)
    two_u = z5.from_int(4)
    half = s // 2
    if s % 2 == 0:
        assert cert.gram.lambdas == (two_u,) * s
    else:
        assert cert.gram.lambdas == (two_u,) * half + (z5.one,) + (two_u,) * half
    assert cert.deltas == (2,) * half + (1,) * (s - half)


def test_block_rejects_tiny_s(z25):
    with pytest.raises(InvalidParameterError):
        block_adiag_matrix(z25, 7, s=1)


@pytest.mark.parametrize(
    "maker,args",
    [
        (diag1_matrix, (1,)),
        (adiag1_matrix_a, (7,)),
        (adiag1_matrix_b, (7,)),
        (adiag3_matrix, (7,)),
        (block_adiag_matrix, (7, 3)),
    ],
)
def test_certificates_match_materialized_row_scans(z25, maker, args):
    if maker is block_adiag_matrix:
        cert = maker(z25, args[0], s=args[1])
    else:
        cert = maker(z25, *args)
    materialized = tuple(c.min_distance() for c in row_codes(cert.matrix))
    assert cert.deltas == materialized
    assert cert.gram == cert.matrix.classify_gram()


def test_certificates_over_galois_ring(gr92):
    u = gr92.find_square_root_of_minus_one()
    cert = adiag3_matrix(gr92, u)
    assert cert.deltas == (2, 1)
    two_u = gr92.from_int(2) * u
    assert cert.gram.lambdas == (two_u, two_u)


def test_prime_square_golden():
    ring, c1, c2 = prime_square_codes(5)
    assert ring.cardinality == 25
    assert c1.length == c2.length == 5
    assert c1.min_distance() == 5
    assert c2.min_distance() == 5
    assert c1.is_orthogonal_to(c2)
    assert c2.is_orthogonal_to(c1)


def test_prime_square_p13():
    ring, c1, c2 = prime_square_codes(13)
    assert ring.cardinality == 169
    assert c1.min_distance() == 13
    assert c2.min_distance() == 13


@pytest.mark.parametrize("p", [3, 4, 7])
def test_prime_square_rejects_bad_p(p):
    with pytest.raises(InvalidParameterError):
        prime_square_codes(p)


def test_prime_square_refuses_p_squared_over_budget():
    # Refused with the walk's message before trial division or any
    # length-p vector (huge p are timed by test_cli_large_parameters_finish);
    # primality is still tested first while p^2 fits the budget.
    with enumeration_budget(1000):
        with pytest.raises(BudgetExceededError) as err:
            prime_square_codes(10**10 + 1)
        assert str(err.value) == (
            "enumerating the code needs 100000000020000000001 words, budget is 1000"
        )
        with pytest.raises(InvalidParameterError, match="p must be prime, got 9"):
            prime_square_codes(9)
        with pytest.raises(InvalidParameterError, match="congruent to 1 mod 4, got 10000000000"):
            prime_square_codes(10**10)
        # Past 40 digits p is named by its digit count and residue, not echoed.
        for p, got in [(10**39 + 2, str(10**39 + 2)),
                       (10**40 + 3, "an integer of 41 digits that is 3 mod 4"),
                       (-(10**45), "an integer of 46 digits that is 0 mod 4"),
                       (10**5000 + 3, "an integer of more than 4300 digits that is 3 mod 4")]:
            with pytest.raises(InvalidParameterError) as err:
                prime_square_codes(p)
            assert str(err.value) == f"p must be congruent to 1 mod 4, got {got}"


def test_block_refuses_row_scan_before_building(z13, z25):
    with pytest.raises(BudgetExceededError) as err, enumeration_budget(13**3):
        block_adiag_matrix(z13, s=5)
    assert str(err.value) == "row-code scans need 402233 coefficient tuples, budget is 2197"
    with enumeration_budget(1000):
        # Past 64 rows, and past the budget's 10 bits, the exact total is not formed.
        with pytest.raises(BudgetExceededError) as err:
            block_adiag_matrix(z25, 7, s=65)
        assert str(err.value) == (
            "row-code scans need more than 1000 coefficient tuples, budget is 1000"
        )
        with pytest.raises(HypothesisViolationError):  # hypotheses are checked first
            block_adiag_matrix(z25, 2, s=10**18)


def test_certificate_json(z25):
    data = adiag3_matrix(z25, 7).to_json_dict()
    assert data["ring"] == "Z/25"
    assert data["matrix"] == [["1", "7"], ["7", "1"]]
    assert data["gram"] == {"tag": "anti-diagonal", "lambdas": ["14", "14"]}
    assert data["deltas"] == [2, 1]


def test_block_odd_size_bound_variants(z13):
    # For odd block sizes the stated per-index distance list yields a bound
    # that skips the middle index; the general min(d_i * delta_i) keeps it.
    # The general bound is never larger, and the product always meets it.
    from ringcodes import MPCSpec, build_mpc, min_distance_lower_bound, span

    s = 3
    cert = block_adiag_matrix(z13, 5, s=s)
    code = span(z13, 2, [[1, 5]])
    spec = MPCSpec((code,) * s, cert.matrix)
    d = [code.min_distance()] * s
    general = min_distance_lower_bound(spec)
    assert general == min(di * delta for di, delta in zip(d, cert.deltas))
    mid = (s + 1) // 2  # 1-based middle index
    skip_variant = min(
        [2 * d[i] for i in range(mid - 1)] + [d[i] for i in range(mid, s)]
    )
    assert general <= skip_variant
    assert build_mpc(spec).min_distance() >= general


def test_wrong_stated_gram_is_refused_readably(z25):
    a = Matrix(z25, [[1, 7], [7, 1]])
    with pytest.raises(CertificateError) as err:
        _certify(a, DIAGONAL, (z25.one, z25.one), (2, 1), ())
    message = str(err.value)
    assert "anti-diagonal" in message and "diagonal" in message
    assert not re.search(r"<[^>]* in [^>]*>", message)
