"""A product under a square non-singular A reads its size and dual size off
its inputs, |C_A| = prod |C_i| and |C_A^perp| = prod |C_i^perp|, and the
report decides thm-self-mpc by blockwise containment.  Both are checked
against a factor-free copy of the product, whose sizes come from its own
echelon forms, so the rule is never its own oracle; on small products
also against the enumerated product and the brute-force dual.  The size
that ``verify --use-dual-theorem`` prints is checked against the theorem
dual built from the input kernels, which the command itself never builds."""

import contextlib
import io
import json
import sys
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import (
    factor_free,
    laplace_det,
    literal_self_mpc,
    mpc_by_product,
    naive_dual,
    naive_is_unit,
)
from ringcodes import (
    LinearCode,
    Matrix,
    MPCSpec,
    build_mpc,
    check_conditions,
    format_vector,
    galois_ring,
    mpc_dual_theorem,
    parse_generators,
    parse_matrix,
    parse_ring,
    span,
)
from ringcodes import code as code_module
from ringcodes import mpc as mpc_module
from ringcodes import ring as ring_module
from ringcodes.cli import main
from test_report_soundness import FAMILIES, _draw_gens

RINGS = FAMILIES + ("Z/2[x]/(x^2)",)
#: Products with at most this many vectors in R^(ml) are also enumerated.
SMALL = 256


@pytest.fixture(scope="module")
def families(gr92, f9_tower):
    built = {"GR(4,2)": galois_ring(2, 2, 2), "GR(9,2)": gr92, "f9_tower": f9_tower}
    rings = {name: built.get(name) or parse_ring(name) for name in RINGS}
    return {name: (ring, list(ring.elements()), {}) for name, ring in rings.items()}


def _draw_matrix(data, ring, elems, s, nonsingular):
    """A square s x s matrix: P L U with unit pivots if ``nonsingular``,
    else a random one with a row scaled by a non-unit."""
    def pick(pool):
        return data.draw(st.sampled_from(pool))

    zero, one = ring.zero, ring.one
    if nonsingular:
        units = [e for e in elems if e.is_unit()]
        lower = [[one if i == j else pick(elems) if i > j else zero for j in range(s)]
                 for i in range(s)]
        upper = [[pick(units) if i == j else pick(elems) if i < j else zero for j in range(s)]
                 for i in range(s)]
        rows = (Matrix(ring, lower) @ Matrix(ring, upper)).entries
        rows = [rows[i] for i in data.draw(st.permutations(range(s)))]
    else:
        rows = [[pick(elems) for _ in range(s)] for _ in range(s)]
        k = data.draw(st.integers(0, s - 1))
        z = pick([e for e in elems if not e.is_unit()])
        rows[k] = [z * e for e in rows[k]]
    return Matrix(ring, rows)


@pytest.mark.parametrize("family", RINGS)
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_product_facts_match_the_factor_free_copy(family, families, data):
    ring, elems, isotropic = families[family]
    m = 1 if ring.cardinality > 25 else data.draw(st.integers(1, 2))
    s = data.draw(st.integers(1, 3))
    nonsingular = data.draw(st.booleans())
    a = _draw_matrix(data, ring, elems, s, nonsingular)
    assert naive_is_unit(laplace_det(a)) == nonsingular == a.is_nonsingular()
    codes = tuple(span(ring, m, _draw_gens(data, ring, elems, isotropic, m)) for _ in range(s))
    spec = MPCSpec(codes, a)
    mpc = build_mpc(spec)
    plain = factor_free(mpc)
    assert plain._factors is None
    assert mpc.cardinality == plain.cardinality
    assert mpc._dual_size() == plain._dual_size()
    assert mpc.is_self_orthogonal() == plain.is_self_orthogonal()
    assert mpc.is_self_dual() == plain.is_self_dual()
    equal = check_conditions(spec).condition("thm-self-mpc").holds
    assert equal == (nonsingular and literal_self_mpc(spec))
    event(f"nonsingular={nonsingular} thm-self-mpc={equal} self-dual={plain.is_self_dual()}")
    if nonsingular:
        theorem = mpc_dual_theorem(spec)
        assert theorem.cardinality == factor_free(theorem).cardinality == plain._dual_size()
        printed = _cli_theorem_size(ring, m, codes, a)
        assert printed == factor_free(theorem).cardinality
    if ring.cardinality**mpc.length <= SMALL:
        assert len(mpc_by_product(codes, a)) == mpc.cardinality
        assert len(naive_dual(plain)) == mpc._dual_size()
        if nonsingular:
            assert len(naive_dual(plain)) == printed


def _cli_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _cli_theorem_size(ring, m, codes, a):
    """The theorem dual's size that ``verify --use-dual-theorem`` prints for
    the product of ``codes`` under ``a``, the same at a budget of 1."""
    argv = ["verify", "--ring", ring.description(), "--length", str(m), "--matrix", str(a),
            "--use-dual-theorem", "--format", "json"]
    for code in codes:
        gens = ", ".join(format_vector(g) for g in code.generators)
        argv += ["--code", f"{{ {gens} }}"]
    printed = _cli_json(argv)
    assert _cli_json(argv + ["--budget", "1"]) == printed
    return json.loads(printed)["dual_theorem_cardinality"]


def test_every_pair_of_z4_plane_submodules_under_every_invertible_matrix(z4):
    # The 15 submodules of (Z/4)^2, every ordered pair under each of the 96
    # matrices of GL_2(Z/4): 21,600 products, each against its factor-free
    # copy and the set comparison with the plain concatenation.
    codes = {}
    for gens in combinations_with_replacement(product(range(4), repeat=2), 2):
        code = span(z4, 2, gens)
        codes.setdefault(frozenset(code.codewords()), code)
    assert len(codes) == 15
    matrices = [
        Matrix(z4, [[a, b], [c, d]])
        for a, b, c, d in product(range(4), repeat=4)
        if (a * d - b * c) % 2
    ]
    assert len(matrices) == 96
    identity = Matrix.identity(z4, 2)
    holds = 0
    for pair in product(codes.values(), repeat=2):
        concatenation = factor_free(build_mpc(MPCSpec(pair, identity)))
        for a in matrices:
            spec = MPCSpec(pair, a)
            mpc = build_mpc(spec)
            plain = factor_free(mpc)
            assert mpc.cardinality == plain.cardinality
            assert mpc._dual_size() == plain._dual_size()
            assert mpc.is_self_dual() == plain.is_self_dual()
            equal = check_conditions(spec).condition("thm-self-mpc").holds
            assert equal == (plain == concatenation)
            holds += equal
    # Both verdicts occur, and most often the product is not the concatenation.
    assert 0 < holds < 21_600 // 2


def _module_lengths(monkeypatch):
    """The lengths of the codes whose echelon form is asked for, from now on."""
    lengths = []
    module = LinearCode._module

    def recorded(self):
        lengths.append(self.length)
        return module(self)

    monkeypatch.setattr(LinearCode, "_module", recorded)
    return lengths


def test_no_product_is_echeloned_under_a_nonsingular_matrix(z5, monkeypatch):
    # C_1 = {(1,2)} and C_2 = {(1,3)} are self-dual but unequal, so the
    # report reaches the containment test of thm-self-mpc; A*A^t = diag(2,2).
    codes = (parse_generators("{ (1,2) }", z5), parse_generators("{ (1,3) }", z5))
    spec = MPCSpec(codes, parse_matrix("[[1,1],[1,4]]", z5))
    lengths = _module_lengths(monkeypatch)
    built = []
    monkeypatch.setattr(mpc_module, "build_mpc", lambda spec: built.append(spec))
    report = check_conditions(spec)
    assert built == []
    assert report.condition("lemma-ca-4").holds is False
    assert report.condition("thm-self-mpc").detail == (
        "the product differs from the plain concatenation"
    )
    assert report.condition("thm-self-orth-1").holds
    mpc = build_mpc(spec)
    assert mpc.cardinality == 25 and mpc.is_self_orthogonal() and mpc.is_self_dual()
    assert mpc._span is None
    assert 4 not in lengths


def test_verify_echelons_no_product(monkeypatch, capsys):
    # Neither the product nor the theorem dual, a product under (A^-1)^t.
    lengths = _module_lengths(monkeypatch)
    argv = [
        "verify", "--ring", "Z/25", "--code", "{ (1,7) }", "--code", "{ (1,7) }",
        "--matrix", "[[1,7],[7,1]]", "--use-dual-theorem",
        "--expect", "self-orthogonal", "--expect", "self-dual",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "product: length 4, 625 codewords" in out
    assert "dual (via the inverse-transpose construction): 625 codewords" in out
    assert lengths and 4 not in lengths


def _refuse(*args, **kwargs):
    raise AssertionError("verify --use-dual-theorem needs no inverse, kernel or charge")


_Z25 = ["verify", "--ring", "Z/25", "--code", "{ (1,7) }", "--code", "{ (1,7) }",
        "--use-dual-theorem", "--format", "json"]


def test_verify_reads_the_theorem_size_without_inverse_kernel_or_charge(monkeypatch, capsys):
    # The size is prod |C_i^perp|, read off the inputs once A's remembered
    # rank says it is non-singular: no [A | I], no input kernel, no charge.
    monkeypatch.setattr(ring_module, "augmented", _refuse)
    monkeypatch.setattr(code_module, "augmented", _refuse)
    monkeypatch.setattr(ring_module.Ring, "_inverse_rows", _refuse)
    monkeypatch.setattr(Matrix, "adjugate_inverse", _refuse)
    monkeypatch.setattr(LinearCode, "dual", _refuse)
    for name, module in list(sys.modules.items()):
        if name.startswith("ringcodes") and hasattr(module, "charge"):
            monkeypatch.setattr(module, "charge", _refuse)
    assert main(_Z25 + ["--matrix", "[[1,7],[7,1]]"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["product"]["cardinality"] == data["dual_theorem_cardinality"] == 625
    # The refusals keep their wording.
    assert main(_Z25 + ["--matrix", "[[1,5],[5,0]]"]) == 2
    assert capsys.readouterr().err == (
        "error: the dual construction requires a non-singular matrix; A does not have "
        "full rank, so det(A) is not a unit\n"
    )
    assert main(_Z25 + ["--matrix", "[[1,7,0],[7,1,0]]"]) == 2
    assert capsys.readouterr().err == "error: the dual construction requires a square matrix\n"


def test_self_orthogonality_is_decided_once(z25, monkeypatch):
    pairs = []
    vdot = type(z25)._vdot
    monkeypatch.setattr(type(z25), "_vdot", lambda ring, x, y: pairs.append(x) or vdot(ring, x, y))
    code = span(z25, 4, [[1, 7, 0, 0], [0, 0, 1, 7]])
    for _ in range(3):
        assert code.is_self_orthogonal() and code.is_self_dual()
    assert len(pairs) == 3
