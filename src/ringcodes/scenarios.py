"""Named worked examples runnable as end-to-end checks.

Each scenario builds its inputs from scratch, runs the library, and
reports a list of expectations with pass/fail verdicts and computed
witnesses.  Scenario ids are stable strings, each listed in
:data:`_SCENARIOS` with its runner and what it checks.
"""

from __future__ import annotations

from .code import span
from .constructions import (
    adiag1_matrix_a,
    adiag1_matrix_b,
    adiag3_matrix,
    diag1_matrix,
    prime_square_codes,
)
from .errors import InvalidParameterError
from .matrix import ANTI_DIAGONAL, DIAGONAL, Matrix
from .mpc import (
    MPCSpec,
    SELF_DUAL,
    SELF_ORTHOGONAL,
    build_mpc,
    check_conditions,
    min_distance_lower_bound,
    mpc_generator_matrix,
)
from .notation import describe_code, parse_element, parse_ring
from .records import Record
from .ring import MAX_DIGITS, _echo, make_integer_residue_ring


class Expectation(Record):
    __slots__ = ("name", "passed", "witness")
    name: str
    passed: bool
    witness: str


class ScenarioResult(Record):
    __slots__ = ("scenario_id", "description", "expectations")
    scenario_id: str
    description: str
    expectations: tuple[Expectation, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.expectations)

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario_id,
            "description": self.description,
            "passed": self.passed,
            "expectations": [
                {"name": e.name, "passed": e.passed, "witness": e.witness}
                for e in self.expectations
            ],
        }


def scenario_ids() -> tuple[str, ...]:
    return tuple(_SCENARIOS)


def run_scenario(scenario_id: str) -> ScenarioResult:
    runner = _SCENARIOS.get(scenario_id)
    if runner is None and ":" in scenario_id:
        prefix = scenario_id[: scenario_id.index(":")] + ":<"
        runner = next((r for form, r in _SCENARIOS.items() if form.startswith(prefix)), None)
    if runner is None:
        raise InvalidParameterError(
            f"unknown scenario {_echo(scenario_id, 'of')}; known: {', '.join(scenario_ids())}"
        )
    return runner(scenario_id)


def _scenario_ex1(scenario_id: str) -> ScenarioResult:
    ring = make_integer_residue_ring(20)
    c1 = span(ring, 1, [[10]])
    c2 = span(ring, 1, [[4]])
    a = Matrix(ring, [[1, 2], [0, 0]])
    spec = MPCSpec((c1, c2), a)
    mpc = build_mpc(spec)
    dual = mpc.dual_bruteforce()
    report = check_conditions(spec)

    expected_mpc = {(x, 0) for x in (0, 10)}
    expected_dual = {(x, y) for x in range(0, 20, 2) for y in range(20)}
    checks = [
        Expectation(
            "product equals 10*Z/20 x {0}",
            mpc._close_span() == frozenset(expected_mpc),
            describe_code(mpc),
        ),
        Expectation(
            "brute-force dual equals 2*Z/20 x Z/20",
            dual._close_span() == frozenset(expected_dual),
            f"{dual.cardinality} codewords",
        ),
        Expectation(
            "first input is self-orthogonal", c1.is_self_orthogonal(), describe_code(c1)
        ),
        Expectation(
            "second input is not self-orthogonal",
            not c2.is_self_orthogonal(),
            describe_code(c2),
        ),
        Expectation(
            "Gram is diag(5,0)",
            report.gram.tag == DIAGONAL
            and [str(v) for v in report.gram.lambdas] == ["5", "0"],
            str(a.gram()),
        ),
        Expectation(
            "self-orthogonality concluded from the diagonal-Gram condition",
            "thm-self-orth-1" in report.justifications(SELF_ORTHOGONAL),
            "; ".join(
                f"{c.condition_id}={c.holds}" for c in report.conditions if c.holds
            ),
        ),
        Expectation(
            "product is self-orthogonal (direct check)",
            mpc.is_self_orthogonal(),
            f"{mpc.cardinality} codewords",
        ),
    ]
    return ScenarioResult(
        scenario_id, "diagonal-Gram matrix-product code over Z/20", tuple(checks)
    )


def _scenario_ex2(scenario_id: str) -> ScenarioResult:
    ring = make_integer_residue_ring(20)
    c1 = span(ring, 1, [[10]])
    c2 = span(ring, 1, [[4]])
    b = Matrix(ring, [[0, 2, 0, 4], [0, 4, 2, 0]])
    expected_12 = {
        (0, 0, 0, 0), (0, 16, 8, 0), (0, 12, 16, 0), (0, 8, 4, 0), (0, 4, 12, 0)
    }
    expected_21 = {
        (0, 0, 0, 0), (0, 8, 0, 16), (0, 16, 0, 12), (0, 4, 0, 8), (0, 12, 0, 4)
    }
    checks = []
    for name, codes, expected in (
        ("[C1 C2]B", (c1, c2), expected_12),
        ("[C2 C1]B", (c2, c1), expected_21),
    ):
        spec = MPCSpec(codes, b)
        mpc = build_mpc(spec)
        report = check_conditions(spec)
        checks.append(
            Expectation(
                f"{name} matches the expected 5-codeword list",
                mpc._close_span() == frozenset(expected),
                describe_code(mpc),
            )
        )
        checks.append(
            Expectation(
                f"{name} self-orthogonal via the anti-diagonal-Gram condition",
                "thm-self-orth-2" in report.justifications(SELF_ORTHOGONAL)
                and mpc.is_self_orthogonal(),
                f"Gram {b.gram()}",
            )
        )
    return ScenarioResult(
        scenario_id, "anti-diagonal-Gram matrix-product codes over Z/20", tuple(checks)
    )


def _scenario_z25(scenario_id: str) -> ScenarioResult:
    ring = make_integer_residue_ring(25)
    c = span(ring, 2, [[1, 7]])
    cert = adiag3_matrix(ring, 7)
    spec = MPCSpec((c, c), cert.matrix)
    report = check_conditions(spec)
    mpc = build_mpc(spec)
    gen = mpc_generator_matrix(spec, [Matrix(ring, [[1, 7]])] * 2)
    distance = mpc.min_distance()
    checks = [
        Expectation("input code is self-dual", c.is_self_dual(), describe_code(c)),
        Expectation(
            "Gram is adiag(14,14) with unit entries",
            cert.gram.tag == ANTI_DIAGONAL
            and [str(v) for v in cert.gram.lambdas] == ["14", "14"]
            and all(v.is_unit() for v in cert.gram.lambdas),
            str(cert.matrix.gram()),
        ),
        Expectation(
            "self-duality concluded from the unit anti-diagonal condition",
            "thm-self-dual" in report.justifications(SELF_DUAL),
            "; ".join(
                f"{c2.condition_id}={c2.holds}" for c2 in report.conditions if c2.holds
            ),
        ),
        Expectation(
            "product is self-dual (direct check)",
            mpc.is_self_dual(),
            f"{mpc.cardinality} codewords of length {mpc.length}",
        ),
        Expectation(
            "exact minimum distance is 2", distance == 2, f"min distance {distance}",
        ),
        Expectation(
            "free rank 2 at length 4 (rate 1/2)",
            gen.rows == 2 and gen.cols == 4,
            f"generating matrix {gen}",
        ),
    ]
    return ScenarioResult(
        scenario_id, "self-dual matrix-product code over Z/25", tuple(checks)
    )


def _scenario_prime_square(scenario_id: str) -> ScenarioResult:
    text = scenario_id.split(":", 1)[1]
    # int() refuses more digits than that, and the text is not echoed.
    if sum(c.isdecimal() for c in text) > MAX_DIGITS:
        raise InvalidParameterError(f"p may have at most {MAX_DIGITS} digits")
    try:
        p = int(text)
    except ValueError:
        raise InvalidParameterError(f"p must be an integer, got {_echo(text)}") from None
    ring, c1, c2 = prime_square_codes(p)
    d1, d2 = c1.min_distance(), c2.min_distance()
    checks = [
        Expectation("input distances both equal p", d1 == p == d2, f"d1 = {d1}, d2 = {d2}"),
        Expectation(
            "inputs are mutually orthogonal",
            c1.is_orthogonal_to(c2) and c2.is_orthogonal_to(c1),
            f"over {ring.description()}",
        ),
    ]
    u = ring.find_square_root_of_minus_one()
    for label, cert, factor in (
        ("3p", adiag1_matrix_a(ring, u), 2),
        ("5p", adiag1_matrix_b(ring, u), 3),
    ):
        spec = MPCSpec((c1, c2), cert.matrix)
        mpc = build_mpc(spec)
        report = check_conditions(spec)
        bound = min_distance_lower_bound(spec)
        exact = mpc.min_distance()
        checks.append(
            Expectation(
                f"length-{label} product is self-orthogonal",
                mpc.is_self_orthogonal()
                and "thm-self-orth-2" in report.justifications(SELF_ORTHOGONAL),
                f"length {mpc.length}, {mpc.cardinality} codewords",
            )
        )
        checks.append(
            Expectation(
                f"length-{label} product distance >= {factor}p",
                bound == factor * p and exact >= factor * p,
                f"bound {bound}, exact {exact}",
            )
        )
    return ScenarioResult(
        scenario_id,
        f"repetition-code products over Z/{p * p}",
        tuple(checks),
    )


def _certificate_checks(cert, gram_tag, lambda_texts, deltas) -> list[Expectation]:
    return [
        Expectation(
            f"Gram is {gram_tag}({','.join(lambda_texts)})",
            cert.gram.tag == gram_tag
            and [str(v) for v in cert.gram.lambdas] == list(lambda_texts),
            str(cert.matrix.gram()),
        ),
        Expectation(
            f"row-code distances are {deltas}",
            cert.deltas == deltas,
            f"computed {cert.deltas}",
        ),
    ]


def _scenario_lemma_diag1(scenario_id: str) -> ScenarioResult:
    parts = scenario_id.split(":", 2)
    if len(parts) != 3:
        raise InvalidParameterError(
            f"scenario {_echo(scenario_id, 'of')} needs the form lemma-diag1:<ring>:<u>"
        )
    _, ring_text, u_text = parts
    ring = parse_ring(ring_text)
    u = parse_element(u_text, ring)
    cert = diag1_matrix(ring, u)
    two = ring.from_int(2)
    checks = _certificate_checks(
        cert, DIAGONAL, (str(two + u * u), str(two)), (3, 2)
    )
    return ScenarioResult(
        scenario_id, f"diagonal-Gram 2x3 matrix over {ring.description()}", tuple(checks)
    )


def _scenario_lemma_adiag1(scenario_id: str) -> ScenarioResult:
    ring = parse_ring(scenario_id.split(":", 1)[1])
    cert_a = adiag1_matrix_a(ring)
    u = cert_a.matrix.entry(0, 2)
    cert_b = adiag1_matrix_b(ring, u)
    minus_one = str(-ring.one)
    three_u = str(ring.from_int(3) * u)
    checks = _certificate_checks(cert_a, ANTI_DIAGONAL, (minus_one, minus_one), (2, 2))
    checks += _certificate_checks(cert_b, ANTI_DIAGONAL, (three_u, three_u), (4, 3))
    return ScenarioResult(
        scenario_id,
        f"anti-diagonal-Gram 2x3 and 2x5 matrices over {ring.description()} (u = {u})",
        tuple(checks),
    )


def _scenario_lemma_adiag3(scenario_id: str) -> ScenarioResult:
    ring = parse_ring(scenario_id.split(":", 1)[1])
    cert = adiag3_matrix(ring)
    u = cert.matrix.entry(0, 1)
    two_u = str(ring.from_int(2) * u)
    checks = _certificate_checks(cert, ANTI_DIAGONAL, (two_u, two_u), (2, 1))
    return ScenarioResult(
        scenario_id,
        f"anti-diagonal-Gram 2x2 matrix over {ring.description()} (u = {u})",
        tuple(checks),
    )


#: Each scenario id, or id form with its ``<parameters>``, and its runner,
#: in the order ``--help`` and the unknown-scenario refusal list them.  An
#: id runs the runner of its form, or else of the one form that starts
#: with the id's text up to its first ``:`` and then ``:<``.
_SCENARIOS = {
    "ex1": _scenario_ex1,  # diagonal-Gram product over Z/20
    "ex2": _scenario_ex2,  # anti-diagonal-Gram products over Z/20, both input orders
    "z25-selfdual": _scenario_z25,  # the self-dual product of span{(1,7)} over Z/25
    "prime-square:<p>": _scenario_prime_square,  # repetition-code products over Z/p^2
    "lemma-diag1:<ring>:<u>": _scenario_lemma_diag1,  # the 2x3 diagonal-Gram certificate
    "lemma-adiag1:<ring>": _scenario_lemma_adiag1,  # 2x3 and 2x5 anti-diagonal, default u
    "lemma-adiag3:<ring>": _scenario_lemma_adiag3,  # the 2x2 anti-diagonal certificate
}
