"""Scenario runner and command-line behavior: exit codes, output formats,
and schema validity of the JSON emissions."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

from ringcodes import (
    InvalidParameterError,
    MPCSpec,
    adiag3_matrix,
    check_conditions,
    code_to_json_dict,
    parse_generators,
    parse_ring,
    span,
)
from ringcodes.cli import main
from ringcodes.scenarios import run_scenario, scenario_ids

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


@pytest.mark.parametrize(
    "scenario",
    [
        "ex1",
        "ex2",
        "z25-selfdual",
        "prime-square:5",
        "lemma-diag1:Z/25:1",
        "lemma-adiag1:Z/25",
        "lemma-adiag3:Z/13",
    ],
)
def test_scenarios_all_pass(scenario):
    result = run_scenario(scenario)
    failed = [e.name for e in result.expectations if not e.passed]
    assert not failed, failed


def test_unknown_scenario_rejected():
    with pytest.raises(InvalidParameterError):
        run_scenario("no-such-thing")
    assert "ex1" in scenario_ids()


def test_cli_reproduce_exit_codes(capsys):
    assert main(["reproduce", "ex1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert main(["reproduce", "bogus"]) == 2


def test_cli_reproduce_json(capsys):
    assert main(["reproduce", "ex2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert data["scenario"] == "ex2"


def test_cli_verify_pass_and_fail(capsys):
    base = [
        "verify", "--ring", "Z/20",
        "--code", "{ (10) }", "--code", "{ (4) }",
        "--matrix", "[[1,2],[0,0]]",
    ]
    assert main(base + ["--expect", "self-orthogonal"]) == 0
    assert main(base + ["--expect", "self-dual"]) == 1
    out = capsys.readouterr().out
    assert "expect self-dual: FAIL" in out


def test_cli_verify_unknown_property(capsys):
    rc = main([
        "verify", "--ring", "Z/20", "--code", "{ (10) }", "--code", "{ (4) }",
        "--matrix", "[[1,2],[0,0]]", "--expect", "self-mirrored",
    ])
    assert rc == 2


def test_cli_verify_dual_theorem_on_singular_matrix(capsys):
    rc = main([
        "verify", "--ring", "Z/20", "--code", "{ (10) }", "--code", "{ (4) }",
        "--matrix", "[[1,2],[0,0]]", "--use-dual-theorem",
    ])
    assert rc == 2
    assert "non-singular" in capsys.readouterr().err


def test_cli_verify_dual_theorem_self_dual(capsys):
    rc = main([
        "verify", "--ring", "Z/25", "--code", "{ (1,7) }", "--code", "{ (1,7) }",
        "--matrix", "[[1,7],[7,1]]", "--expect", "self-dual", "--use-dual-theorem",
    ])
    assert rc == 0


def test_cli_verify_json_matches_schema(capsys):
    rc = main([
        "verify", "--ring", "Z/20", "--code", "{ (10) }", "--code", "{ (4) }",
        "--matrix", "[[1,2],[0,0]]", "--expect", "self-orthogonal",
        "--format", "json",
    ])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data["report"], load_schema("mpc_report.schema.json"))
    assert data["expectations"] == [{"property": "self-orthogonal", "holds": True}]


def test_cli_parse_error_exit_code(capsys):
    assert main(["verify", "--ring", "Z/x", "--code", "{ (1) }",
                 "--matrix", "[[1]]"]) == 2


def test_cli_construct(capsys):
    assert main(["construct", "adiag3", "--ring", "Z/25", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data, load_schema("certificate.schema.json"))
    assert data["matrix"] == [["1", "7"], ["7", "1"]]
    assert main(["construct", "diag1", "--ring", "Z/20", "--u", "1"]) == 2
    assert "zero divisor" in capsys.readouterr().err


def test_cli_construct_block_matches_adiag3(capsys):
    assert main(["construct", "block", "--ring", "Z/25", "--s", "2",
                 "--format", "json"]) == 0
    block = json.loads(capsys.readouterr().out)
    assert main(["construct", "adiag3", "--ring", "Z/25", "--format", "json"]) == 0
    adiag3 = json.loads(capsys.readouterr().out)
    assert block["matrix"] == adiag3["matrix"]


def test_cli_dual(capsys):
    assert main(["dual", "--ring", "Z/20", "--code", "{ (10) }"]) == 0
    out = capsys.readouterr().out
    assert "(18)" in out and "dual cardinality: 10" in out


def test_cli_dual_json_matches_schema(capsys):
    assert main(["dual", "--ring", "Z/20", "--code", "{ (4) }",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data["code"], load_schema("code.schema.json"))
    jsonschema.validate(data["dual"], load_schema("code.schema.json"))
    assert data["dual_cardinality"] == 4
    # Past 64 words the dual is given by generators that span it.
    assert main(["dual", "--ring", "Z/25", "--code", "{ (1,0,0) }",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data["dual"], load_schema("code.schema.json"))
    text = "{ " + ", ".join("(" + ",".join(g) + ")" for g in data["dual"]["generators"]) + " }"
    assert data["dual_cardinality"] == 625
    assert parse_generators(text, parse_ring("Z/25"), 3).cardinality == 625


def test_cli_distance_single_code(capsys):
    assert main(["distance", "--ring", "Z/25", "--code", "{ (1,7) }"]) == 0
    assert "minimum distance: 2" in capsys.readouterr().out


def test_cli_distance_product(capsys):
    rc = main([
        "distance", "--ring", "Z/25", "--code", "{ (1,7) }", "--code", "{ (1,7) }",
        "--matrix", "[[1,7],[7,1]]", "--format", "json",
    ])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"min_distance": 2, "lower_bound": 2, "length": 4}


def test_cli_budget_flag(capsys):
    rc = main(["dual", "--ring", "Z/25", "--code", "{ (1,7) }", "--budget", "10"])
    assert rc == 2
    assert "budget" in capsys.readouterr().err


def test_cli_budget_caps_input_closures(capsys):
    # Weighing the words of { (1,7) } over Z/25 walks its 25 words.
    args = ["distance", "--ring", "Z/25", "--code", "{ (1,7) }", "--length", "2"]
    assert main(args + ["--budget", "24"]) == 2
    assert capsys.readouterr().err == "error: enumerating the code needs 25 words, budget is 24\n"
    assert main(args + ["--budget", "25"]) == 0
    assert capsys.readouterr().out == "minimum distance: 2\n"


def test_cli_budget_env(monkeypatch, capsys):
    # Only --budget sets the budget; the environment is not read.
    monkeypatch.setenv("RINGCODES_BUDGET", "10")
    assert main(["dual", "--ring", "Z/25", "--code", "{ (1,7) }"]) == 0
    assert main(["dual", "--ring", "Z/25", "--code", "{ (1,7) }", "--budget", "10"]) == 2


def test_cli_verify_decides_echelon_questions_at_any_budget(capsys):
    # Sizes, containment and equality cost nothing, so a budget of 40 on a
    # 25-word code, and of 1, still gets every verdict.
    args = [
        "verify", "--ring", "Z/25", "--code", "span Z/25 len 2 { (1,7) }", "--code", "{ (1,7) }",
        "--matrix", "[[1,7],[7,1]]", "--expect", "self-dual", "--format", "json",
    ]
    assert main(args + ["--budget", "40"]) == 0
    decided = capsys.readouterr().out
    assert main(args + ["--budget", "1"]) == 0
    assert capsys.readouterr().out == decided
    data = json.loads(decided)
    assert data["expectations"] == [{"property": "self-dual", "holds": True}]
    assert "thm-self-dual" in {c["justified_by"] for c in data["report"]["conclusions"]}


@pytest.mark.parametrize(
    "argv,stderr",
    [
        (["dual", "--ring", "Z/25", "--code", "span Z/20 len 1 { (10) }"],
         "error: the code's ring differs from --ring\n"),
        (["dual", "--ring", "Z/4", "--code", "span Z/4 len 2 { (1,1) }", "--length", "3"],
         "error: the code's length 2 differs from --length\n"),
        (["verify", "--ring", "Z/4", "--code", "{ (1) }", "--matrix", "[[1]]",
          "--expect", "self-dualish"],
         "error: unknown property 'self-dualish'; expected one of "
         "['self-dual', 'self-orthogonal']\n"),
        # Names are checked before anything is computed, so a singular
        # matrix under --use-dual-theorem does not mask a bad one.
        (["verify", "--ring", "Z/4", "--code", "{(1)}", "--matrix", "[[2]]",
          "--expect", "bogus", "--use-dual-theorem"],
         "error: unknown property 'bogus'; expected one of "
         "['self-dual', 'self-orthogonal']\n"),
        (["distance", "--ring", "Z/4", "--code", "{ (1) }", "--code", "{ (2) }"],
         "error: distance without --matrix takes exactly one --code\n"),
    ],
    ids=["ring", "length", "property", "property-first", "code-count"],
)
def test_cli_input_errors_name_no_position(argv, stderr, capsys):
    # Only notation errors carry a line and column.
    assert main(argv) == 2
    assert capsys.readouterr().err == stderr


def test_cli_text_and_json_verdicts_agree(capsys):
    args = [
        "verify", "--ring", "Z/25", "--code", "{ (1,7) }", "--code", "{ (1,7) }",
        "--matrix", "[[1,7],[7,1]]", "--expect", "self-orthogonal",
    ]
    assert main(args) == 0
    text = capsys.readouterr().out
    assert main(args + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert ("expect self-orthogonal: PASS" in text) == (
        data["expectations"][0]["holds"] is True
    )


def test_report_json_schema_on_library_output(z25):
    code = span(z25, 2, [[1, 7]])
    spec = MPCSpec((code, code), adiag3_matrix(z25, 7).matrix)
    report = check_conditions(spec)
    jsonschema.validate(report.to_json_dict(), load_schema("mpc_report.schema.json"))
    jsonschema.validate(code_to_json_dict(code), load_schema("code.schema.json"))


def test_cli_code_span_form_and_ring_consistency(capsys):
    assert main(["dual", "--ring", "Z/20", "--code", "span Z/20 len 1 { (10) }"]) == 0
    assert main(["dual", "--ring", "Z/25", "--code", "span Z/20 len 1 { (10) }"]) == 2


def test_cli_code_span_form_and_length_consistency(capsys):
    code = "span Z/4 len 2 { (1,1) }"
    assert main(["dual", "--ring", "Z/4", "--code", code, "--length", "2"]) == 0
    capsys.readouterr()
    assert main(["dual", "--ring", "Z/4", "--code", code, "--length", "3"]) == 2
    assert "length 2 differs from --length" in capsys.readouterr().err


def test_cli_scenario_failure_exit_code(capsys):
    # A bad p or a malformed id is an input error, not an expectation failure.
    for scenario in ("prime-square:7", "prime-square:x", "prime-square:", "lemma-diag1:Z/25"):
        assert main(["reproduce", scenario]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "ring,u",
    [("Z/10007[x]/(x^2+1)", None), ("Z/10007[x]/(x^2+1)", "x"), ("Z/1000000007", None)],
)
def test_cli_ring_decisions_honour_budget(ring, u):
    # Without u, finding one needs a search of the whole ring, far beyond the
    # budget, so it is refused at once. With u, deciding that 2 is a unit
    # needs no search, and the row-code scan is refused by its own budget.
    argv = ["construct", "adiag3", "--ring", ring, "--budget", "1000"]
    if u is not None:
        argv += ["--u", u]
    done = _run_with_timeout(argv)
    assert done.returncode == 2
    assert done.stderr.endswith(", budget is 1000\n")


def _run_with_timeout(argv):
    """``ringcodes argv`` in a fresh interpreter, killed after 2 s."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "ringcodes", *argv],
        capture_output=True, text=True, env=env, timeout=2,
    )


@pytest.mark.parametrize(
    "argv,exit_code,stderr",
    [
        # Trial division of p, or the length-p vectors, used to come first.
        (["reproduce", "prime-square:1000000000000000009", "--budget", "1000"], 2,
         "error: enumerating the code needs 1000000000000000018000000000000000081 words, "
         "budget is 1000\n"),
        (["reproduce", "prime-square:99999999977", "--budget", "1000"], 2,
         "error: enumerating the code needs 9999999995400000000529 words, budget is 1000\n"),
        # The s x s matrix and its Gram used to be built before the row scan.
        (["construct", "block", "--ring", "Z/5", "--s", "3000", "--budget", "1000"], 2,
         "error: row-code scans need more than 1000 coefficient tuples, budget is 1000\n"),
        (["construct", "block", "--ring", "Z/5", "--s", "1000000000000000000"], 2,
         "error: row-code scans need more than 10000000 coefficient tuples, "
         "budget is 10000000\n"),
        # Exponents used to cost one multiplication each.
        (["construct", "adiag3", "--ring", "Z/25", "--u", "7^1000000000"], 2,
         "hypothesis violation: (1)^2 = 1 != 24\n"),
        (["verify", "--ring", "Z/2[x]/(x^2+x+1)", "--code", "{ (x^100000000) }",
          "--matrix", "[[1]]"], 0, ""),
        # Units and determinants used Laplace expansion, about d! operations.
        (["verify", "--ring", "Z/2[x]/(x^11+x+1)", "--code", "{ (1) }",
          "--matrix", "[[x^7+x^5+x^4+x^3+x^2+x+1]]"], 0, ""),
        (["verify", "--ring", "Z/2[x]/(x^2000+1)", "--code", "{ (1) }", "--matrix", "[[1]]"], 2,
         "error: extensions with more than 64 coordinates over Z/2 are unsupported, "
         "got 2000 (line 1, column 8)\n"),
        (["verify", "--ring", "Z/2[x]/(x^100000+1)", "--code", "{ (1) }", "--matrix", "[[1]]"],
         2, "error: extensions with more than 64 coordinates over Z/2 are unsupported, "
         "got 100000 (line 1, column 8)\n"),
        # int() refuses decimal strings of more than 4,300 digits.
        (["construct", "adiag3", "--ring", "Z/25", "--u", "7^" + "1" * 5000], 2,
         "error: integer literals may have at most 4300 digits (line 1, column 3)\n"),
        (["construct", "adiag3", "--ring", "Z/" + "1" * 5000], 2,
         "error: integer literals may have at most 4300 digits (line 1, column 3)\n"),
        # str.isdigit() holds for '²', which int() rejects.
        (["verify", "--ring", "Z/²", "--code", "{ (1) }", "--matrix", "[[1]]"], 2,
         "error: unexpected character '²' (line 1, column 3)\n"),
        # Moduli used to be expanded densely before their width was checked.
        (["verify", "--ring", "Z/3[x]/((x+1)^100000)", "--code", "{ (1) }", "--matrix", "[[1]]"],
         2, "error: extensions with more than 64 coordinates over Z/3 are unsupported, "
         "got 100000 (line 1, column 8)\n"),
        (["verify", "--ring", "Z/2[x]/(x^1000000000+1)", "--code", "{ (1) }", "--matrix",
          "[[1]]"], 2, "error: extensions with more than 64 coordinates over Z/2 are "
         "unsupported, got 1000000000 (line 1, column 8)\n"),
        # The recursive descent used to recurse once per "(" and per unary "-".
        (["verify", "--ring", "Z/9", "--code", "{ (" + "(" * 400 + "1" + ")" * 400 + ") }",
          "--matrix", "[[1]]"], 2,
         "error: parentheses may nest at most 100 deep (line 1, column 104)\n"),
        (["verify", "--ring", "Z/9", "--code", "{ (" + "-" * 1200 + "1) }", "--matrix", "[[1]]"],
         0, ""),
        # Powers used to cost one or two products per bit of a 4,300-digit exponent.
        (["verify", "--ring", "Z/9[x]/(x^2+(1+" + "+".join(f"3*x^{i}" for i in range(1, 65))
          + ")^" + "1" * 4300 + ")", "--code", "{ (1) }", "--matrix", "[[1]]"], 2,
         "error: exponents must be below 2^64 (line 1, column 456)\n"),
        (["verify", "--ring", "Z/2[x]/(x^64+x+1)", "--code", "{ ((" + "+".join(
            f"x^{i}" for i in range(63, 1, -1)) + "+x+1)^" + "1" * 4300 + ") }",
          "--matrix", "[[1]]"], 2, "error: exponents must be below 2^64 (line 1, column 312)\n"),
        # Sizes of more than 4,300 digits used to reach str() in a detail or
        # a refusal, and 3^30000000 used to be computed.
        (["verify", "--ring", "Z/3", "--code", "{ }", "--length", "10000", "--matrix", "[[1]]"],
         2, "error: code length 10000 is too long: |R|^10000 has more than 4300 digits\n"),
        (["dual", "--ring", "Z/3", "--code", "{ }", "--length", "10000"], 2,
         "error: code length 10000 is too long: |R|^10000 has more than 4300 digits\n"),
        (["verify", "--ring", "Z/3", "--code", "{ }", "--length", "30000000", "--matrix",
          "[[1]]"], 2,
         "error: code length 30000000 is too long: |R|^30000000 has more than 4300 digits\n"),
        (["construct", "adiag3", "--ring", f"Z/{10**2200 + 1}", "--u", str(10**1100)], 2,
         "error: row-code scans need more than 10000000 coefficient tuples, "
         "budget is 10000000\n"),
        (["distance", "--ring", f"Z/{10**2200 + 1}", "--code", "{ (1) }", "--code", "{ (1) }",
          "--matrix", "[[1,0],[0,1]]"], 2,
         "error: code length 2 is too long: |R|^2 has more than 4300 digits\n"),
        # Non-singularity was decided by an O(s^4) determinant: 7 s at s = 160.
        (["verify", "--ring", "Z/2", "--length", "1", *["--code", "{ }"] * 160, "--matrix",
          str([[int(i == j) for j in range(160)] for i in range(160)]).replace(" ", "")], 0, ""),
        # Self-duality used to be counted from |R|^m; echelon forms decide it.
        (["verify", "--ring", "Z/2", "--length", "2", *["--code", "{ (1,1) }"] * 160,
          "--matrix", str([[int(i == j) for j in range(160)] for i in range(160)]).replace(
              " ", ""), "--expect", "self-dual"], 0, ""),
        # The dual's size comes from the image of x -> (<x, g_i>)_i, so the
        # zero code at the longest Z/2 length builds no m x m kernel.
        (["verify", "--ring", "Z/2", "--length", "14284", "--code", "{ }", "--matrix",
          "[[1]]"], 0, ""),
        (["verify", "--ring", "Z/2", "--length", "14284", "--code", "{ }", "--matrix",
          "[[1]]", "--expect", "self-dual"], 1, ""),
        # The singular-matrix refusal used to compute an O(s^4) determinant.
        (["verify", "--ring", "Z/2", "--length", "1", *["--code", "{ }"] * 120, "--matrix",
          str([[int(i == j > 0) for j in range(120)] for i in range(120)]).replace(" ", ""),
          "--use-dual-theorem"], 2,
         "error: the dual construction requires a non-singular matrix; A does not have full "
         "rank, so det(A) is not a unit\n"),
        # The inverse came from an O(s^4) Cayley-Hamilton loop: 3 s at s = 80.
        (["verify", "--ring", "Z/2", "--length", "1", *["--code", "{ }"] * 120, "--matrix",
          str([[int(i == j) for j in range(120)] for i in range(120)]).replace(" ", ""),
          "--use-dual-theorem"], 0, ""),
        # Minimum distances used to stream every word: 53 s at p = 53.
        (["reproduce", "prime-square:53"], 0, ""),
        (["reproduce", "prime-square:61"], 2,
         "error: row-code scans need 13849562 coefficient tuples, budget is 10000000\n"),
        # int() refused p past 4,300 digits, and the refusal echoed all of them.
        (["reproduce", "prime-square:" + "1" * 4301], 2,
         "error: p may have at most 4300 digits\n"),
        # A p that is 3 mod 4 was echoed in full: 4,344 characters of stderr.
        (["reproduce", "prime-square:" + "9" * 4300], 2,
         "error: p must be congruent to 1 mod 4, got an integer of 4300 digits that is "
         "3 mod 4\n"),
        # The budget refusal echoed p^2 in full: 4,360 characters of stderr.
        (["reproduce", "prime-square:" + "1" * 2149 + "3"], 2,
         "error: enumerating the code needs a 4299-digit number of words, "
         "budget is 10000000\n"),
        # Texts that are not integers or scenario ids were echoed in full.
        (["reproduce", "prime-square:" + "x" * 100000], 2,
         "error: p must be an integer, got a text of 100000 characters\n"),
        (["reproduce", "y" * 100000], 2,
         "error: unknown scenario of 100000 characters; known: " + ", ".join(scenario_ids())
         + "\n"),
        (["verify", "--ring", "Z/" + "x" * 100000, "--code", "{ (1) }", "--matrix", "[[1]]"], 2,
         "error: expected 'a modulus', found a text of 100000 characters (line 1, column 3)\n"),
        (["verify", "--ring", "Z/9", "--code", "{ (" + "x" * 100000 + ") }", "--matrix",
          "[[1]]"], 2, "error: unknown variable of 100000 characters (line 1, column 4)\n"),
        (["verify", "--ring", "Z/2[" + "x" * 100000 + "]/(x^2+x+1)", "--code", "{ (1) }",
          "--matrix", "[[1]]"], 2,
         "error: extension level 1 must use variable 'x', found a text of 100000 characters "
         "(line 1, column 5)\n"),
        (["verify", "--ring", "Z/9", "--code", "{ (1) }", "--matrix", "[[1]]",
          "--expect", "x" * 100000], 2,
         "error: unknown property of 100000 characters; expected one of "
         "['self-dual', 'self-orthogonal']\n"),
        (["reproduce", "lemma-diag1:" + "x" * 100000], 2,
         "error: scenario of 100012 characters needs the form lemma-diag1:<ring>:<u>\n"),
        # The theorem dual's size used to be read off a theorem dual built
        # from input kernels, charged 625 candidate vectors each.
        (["verify", "--ring", "Z/25", "--code", "{ (1,7) }", "--code", "{ (1,7) }",
          "--matrix", "[[1,7],[7,1]]", "--use-dual-theorem", "--budget", "1"], 0, ""),
    ],
    ids=["huge-p", "large-p", "block-3000", "block-10^18", "u-exponent", "code-exponent",
         "degree-11", "width-2000", "width-100000", "u-digits", "modulus-digits",
         "superscript-digit", "modulus-power", "modulus-degree-10^9", "nesting-400",
         "minus-1200", "modulus-exponent-4300-digits", "element-exponent-4300-digits",
         "verify-length-10000", "dual-length-10000", "verify-length-3*10^7",
         "row-scan-4401-digits", "product-4401-digits", "verify-identity-160",
         "verify-self-dual-160", "verify-zero-code-length-14284",
         "expect-self-dual-length-14284", "dual-theorem-singular-120", "dual-theorem-identity-120",
         "prime-square-53", "prime-square-61", "prime-square-4301-digits",
         "prime-square-4300-digits-3-mod-4", "prime-square-2150-digits-1-mod-4",
         "prime-square-100000-letters", "scenario-100000-letters", "modulus-100000-letters",
         "variable-100000-letters", "extension-variable-100000-letters",
         "expect-100000-letters", "lemma-diag1-100000-letters", "dual-theorem-budget-1"],
)
def test_cli_large_parameters_finish(argv, exit_code, stderr):
    done = _run_with_timeout(argv)
    assert (done.returncode, done.stderr) == (exit_code, stderr)
    assert len(done.stderr) < 200


@pytest.mark.parametrize(
    "argv",
    [
        lambda t: ["verify", "--ring", "Z/" + t, "--code", "{ (1) }", "--matrix", "[[1]]"],
        lambda t: ["verify", "--ring", "Z/9", "--code", "{ (" + t + ") }", "--matrix", "[[1]]"],
        lambda t: ["verify", "--ring", "Z/2[" + t + "]/(x^2+x+1)", "--code", "{ (1) }",
                   "--matrix", "[[1]]"],
        lambda t: ["verify", "--ring", "Z/9", "--code", "{ (1) }", "--matrix", "[[1]]",
                   "--expect", t],
        lambda t: ["reproduce", "lemma-diag1:" + t[12:]],  # echoes the whole id
        lambda t: ["reproduce", "prime-square:" + t],
        lambda t: ["reproduce", t],
    ],
    ids=["modulus", "variable", "extension-variable", "expect", "lemma-diag1",
         "prime-square", "scenario"],
)
def test_cli_echoes_tokens_of_up_to_40_characters(argv, capsys):
    # A token of 40 characters is echoed whole; one of 41 is named by its length.
    assert main(argv("y" * 40)) == 2
    assert "'" in (err := capsys.readouterr().err) and "characters" not in err
    assert main(argv("y" * 41)) == 2
    assert "of 41 characters" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        lambda t: ["construct", t, "--ring", "Z/25"],
        lambda t: ["dual", "--ring", "Z/9", "--code", "{ (1) }", "--length", t],
        lambda t: ["dual", "--ring", "Z/9", "--code", "{ (1) }", t],
        lambda t: ["dual", "--ring", "Z/9", "--code", "{ (1) }", "--=" + t[3:]],
    ],
    ids=["invalid-choice", "invalid-int-value", "unrecognized-arguments", "ambiguous-option"],
)
def test_cli_argparse_refusals_name_long_tokens_by_length(argv, monkeypatch, capsys):
    # argparse's own refusals echoed a 100,000-character token whole: about
    # 100 KB of stderr.  Now they follow the package's 40-character rule.
    code, _, err = _run_main(argv("y" * 100000), monkeypatch, capsys)
    assert code == 2 and "a text of 100000 characters" in err and len(err) < 400
    code, _, err = _run_main(argv("y" * 40), monkeypatch, capsys)
    assert code == 2 and "y" * 37 in err and "characters" not in err
    code, _, err = _run_main(argv("y" * 41), monkeypatch, capsys)
    assert code == 2 and "a text of 41 characters" in err and "y" * 38 not in err


def test_cli_argparse_refusal_of_a_quoted_word_is_not_read_as_a_literal(monkeypatch, capsys):
    # An echoed option may hold quotes around a malformed escape.
    argv = ["dual", "--ring", "Z/9", "--code", "{ (1) }", "--='\\N{" + "y" * 100000 + "'"]
    code, _, err = _run_main(argv, monkeypatch, capsys)
    assert code == 2 and "a text of 100003 characters" in err and len(err) < 400


def test_cli_calls_do_not_share_parsed_values(capsys):
    # The parser is built once per process, and rings are shared; each call
    # still parses its codes and matrix afresh.
    args = ["verify", "--ring", "Z/25", "--matrix", "[[1,7],[7,1]]", "--format", "json"]
    assert main(args + ["--code", "{ (1,7) }", "--code", "{ (1,7) }",
                        "--expect", "self-dual", "--expect", "self-orthogonal"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args + ["--code", "{ (5,5) }", "--code", "{ (1,7) }",
                        "--expect", "self-orthogonal"]) == 1
    second = json.loads(capsys.readouterr().out)
    assert first["expectations"] == [
        {"property": "self-dual", "holds": True},
        {"property": "self-orthogonal", "holds": True},
    ]
    assert second["expectations"] == [{"property": "self-orthogonal", "holds": False}]
    assert first["product"]["cardinality"] == 625
    assert second["product"]["cardinality"] == 125


def test_cli_verify_trivial_spec(capsys):
    # Identity matrix with zero input codes: nothing to expect, exit 0.
    rc = main([
        "verify", "--ring", "Z/20", "--code", "{ }", "--code", "{ }",
        "--length", "1", "--matrix", "[[1,0],[0,1]]",
    ])
    assert rc == 0


def test_cli_dual_matches_golden_outputs(capsys):
    # Recorded when the dual was still a brute-force scan: the command keeps
    # printing the sorted word set, and only the first 8 words past 64.
    # Past 64 words the JSON dual is the kernel's generators.
    golden = json.loads((Path(__file__).parent / "data" / "cli_dual_golden.json").read_text())
    for case in golden:
        assert main(case["argv"]) == case["exit"], case["argv"]
        out = capsys.readouterr()
        assert (out.out, out.err) == (case["stdout"], case["stderr"]), case["argv"]


def test_cli_construct_matches_golden_outputs(capsys):
    # Recorded when the text output encoded the certificate a second time:
    # every family over Z/13, Z/25, GR(9,2) and a tower, in text and JSON.
    golden = json.loads(
        (Path(__file__).parent / "data" / "cli_construct_golden.json").read_text()
    )
    assert len(golden) == 40
    for case in golden:
        assert main(case["argv"]) == case["exit"], case["argv"]
        out = capsys.readouterr()
        assert (out.out, out.err) == (case["stdout"], case["stderr"]), case["argv"]


OUTPUTS_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_outputs_golden.json").read_text()
)


@pytest.mark.parametrize(
    "case", OUTPUTS_GOLDEN, ids=[f"{c['argv'][0]}{i}" for i, c in enumerate(OUTPUTS_GOLDEN)]
)
def test_cli_outputs_match_golden(case, capsys):
    # Recorded before the report decided each shared fact once and C[p] took
    # its closed form by the exact freeness test, in text and JSON: verify on
    # every spec of report_golden.json, with each --expect and, on square
    # matrices, --use-dual-theorem; distance with and without --matrix;
    # every reproduce family, the refused prime-square:0, -5 and 9 among
    # them; and duals of more than 64 words.
    assert main(case["argv"]) == case["exit"]
    out = capsys.readouterr()
    assert (out.out, out.err) == (case["stdout"], case["stderr"])


def test_cli_reproduce_certifies_a_zero_gram(capsys):
    # 3u = 0 in characteristic 3, so the 2x5 matrix has Gram adiag(0, 0),
    # which is diagonal too; it still meets its anti-diagonal certificate.
    assert main(["reproduce", "lemma-adiag1:Z/3[x]/(x^2+x+2)[y]/(y^2+1)"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("  PASS ") for line in lines) == 4
    assert lines[-1] == "all expectations hold"


# -- the front end: one argv parse, the JSON writer, refusals -------------------

ERRORS_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_errors_golden.json").read_text()
)


def _run_main(argv, monkeypatch, capsys, call=main):
    """(exit code, stdout, stderr) of ``call(argv)``; argparse's refusals and
    help raise SystemExit, which ``ringcodes`` turns into the exit code."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    try:
        code = call(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "case", ERRORS_GOLDEN["cases"],
    ids=lambda c: "_".join(a.strip("-") for a in c["argv"][:2]) or "no_args",
)
def test_cli_error_paths_match_golden(case, monkeypatch, capsys):
    # Recorded before argv was parsed once: no command, help, unknown
    # commands and options, an extra positional, a bad choice.  argparse
    # words its usage and refusals itself, and its wording changes between
    # Python releases, so the text is compared on the release that recorded
    # it; every release compares exit codes, and the test below checks the
    # one-pass parse against parse_args on the running release.
    code, out, err = _run_main(case["argv"], monkeypatch, capsys)
    assert code == case["exit"]
    if platform.python_version() == ERRORS_GOLDEN["python"]:
        assert (out, err) == (case["stdout"], case["stderr"])


_ARGV_WORDS = [
    "verify", "reproduce", "construct", "dual", "distance", "bogus", "ex1",
    "diag1", "block", "--ring", "Z/5", "--code", "{ (1) }", "--matrix", "[[1]]",
    "--length", "1", "--format", "json", "text", "--budget", "x", "10",
    "--expect", "--use-dual-theorem", "--u", "--s", "-h", "--help", "--he",
    "--bogus", "--", "-1", "extra",
]


#: Per subcommand: its positional's values, its required options and its
#: other options.  Every value below is one argparse accepts.
_SUBCOMMANDS = {
    "verify": ((), ("--ring", "--code", "--matrix"),
               ("--code", "--length", "--expect", "--use-dual-theorem", "--format", "--budget")),
    "reproduce": (("ex1", "prime-square:5", "bogus"), (), ("--format", "--budget")),
    "construct": (("diag1", "block"), ("--ring",), ("--u", "--s", "--format", "--budget")),
    "dual": ((), ("--ring", "--code"), ("--length", "--format", "--budget")),
    "distance": ((), ("--ring", "--code"),
                 ("--code", "--length", "--matrix", "--format", "--budget")),
}

_OPTION_VALUES = {
    "--ring": ("Z/5", "Z/9[x]/(x^2+x+2)"),
    "--code": ("{ (1) }", "{ }", "span Z/5 len 1 { (1) }"),
    "--matrix": ("[[1]]", "[[1,2],[0,0]]"),
    "--length": ("1", "2", " 3"),
    "--expect": ("self-dual", "self-orthogonal", "bogus"),
    "--format": ("text", "json"),
    "--budget": ("10", "1000000"),
    "--u": ("2", "x+1"),
    "--s": ("2", "3"),
    "--use-dual-theorem": None,
}


def _value_positions(argv):
    return [i + 1 for i, word in enumerate(argv[:-1]) if _OPTION_VALUES.get(word)]


def _join_value(draw, argv, required):
    positions = _value_positions(argv)
    if positions:
        i = draw(st.sampled_from(positions))
        argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    return argv


def _abbreviate(draw, argv, required):
    names = [i for i, word in enumerate(argv) if word in _OPTION_VALUES and len(word) > 4]
    if names:
        i = draw(st.sampled_from(names))
        argv[i] = argv[i][:-1]
    return argv


def _dash_value(draw, argv, required):
    positions = _value_positions(argv)
    if positions:
        argv[draw(st.sampled_from(positions))] = draw(st.sampled_from(["-1", "-x", "-"]))
    return argv


def _drop_required(draw, argv, required):
    present = [i for i, word in enumerate(argv) if word in required]
    if present:
        i = draw(st.sampled_from(present))
        del argv[i:i + 2]
    return argv


def _inserting(*words):
    def insert(draw, argv, required):
        i = draw(st.integers(0, len(argv)))
        argv[i:i] = words
        return argv
    return insert


_PERTURBATIONS = (
    _join_value, _abbreviate, _dash_value, _drop_required,
    _inserting("--format", "yaml"), _inserting("--length", "x"), _inserting(""),
    _inserting("--"), _inserting("-h"), _inserting("--help"),
    _inserting("--format", "json"), _inserting("--format", "text"),
    lambda draw, argv, required: argv + ["extra"],
)


@st.composite
def _spelled_out_argvs(draw):
    """A subcommand's argv with every required option present, its
    options in any order and its positional anywhere, then perturbed."""
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    positionals, required, optional = _SUBCOMMANDS[command]
    names = [*required, *draw(st.lists(st.sampled_from(optional), max_size=4))]
    groups = [
        [name] if _OPTION_VALUES[name] is None
        else [name, draw(st.sampled_from(_OPTION_VALUES[name]))]
        for name in draw(st.permutations(names))
    ]
    if positionals:
        groups.insert(draw(st.integers(0, len(groups))), [draw(st.sampled_from(positionals))])
    argv = [word for group in groups for word in group]
    for perturb in draw(st.lists(st.sampled_from(_PERTURBATIONS), max_size=2)):
        argv = perturb(draw, argv, required)
    return [command, *argv]


def _parsed(parse, argv, monkeypatch, capsys):
    def call(argv):
        args = vars(parse(argv))
        args.pop("command", None)  # the top-level pass also records the name
        # With types: True == 1, but a flag must be parsed to True.
        return {key: (type(value), value) for key, value in args.items()}
    return _run_main(argv, monkeypatch, capsys, call)


def test_cli_parses_argv_as_parse_args_does(monkeypatch, capsys):
    # Word soups reach argparse's refusals; spelled-out argvs, perturbed or
    # not, reach the one-pass scan, and must be parsed by it at least once.
    from ringcodes.cli import _parse, _parsers, _scan, build_parser

    tables = _parsers()[2]
    scanned = []

    @settings(max_examples=600, deadline=None)
    @given(argv=st.lists(st.sampled_from(_ARGV_WORDS), max_size=8) | _spelled_out_argvs())
    # A value beginning with "-" is an option to argparse unless it looks
    # like a negative number or holds a space; a missing value.
    @example(argv=["dual", "--ring", "-x", "--code", "{ }"])
    @example(argv=["dual", "--ring", "Z/5", "--code", "-x y"])
    @example(argv=["dual", "--code", "{ }", "--length", "-1", "--ring", "-"])
    @example(argv=["dual", "--code", "{ }", "--ring"])
    @example(argv=["verify", "--ring", "Z/5", "--code", "{ }", "--matrix", "[[1]]",
                   "--use-dual-theorem", "--format", "json", "--format", "text"])
    @example(argv=["reproduce", "--format", "json", "ex1", "ex2"])
    def check(argv):
        expected = _parsed(build_parser().parse_args, argv, monkeypatch, capsys)
        assert _parsed(_parse, argv, monkeypatch, capsys) == expected
        accepted = bool(argv) and argv[0] in tables and _scan(tables[argv[0]], argv[1:])
        event("scan" if accepted else "argparse")
        scanned.append(bool(accepted))

    check()
    assert any(scanned) and not all(scanned)


def test_golden_argvs_take_the_scan():
    # Every recorded argv is spelled out, so the scan parses it, to the
    # namespace the subcommand's argparse parser gives.
    from ringcodes.cli import _parsers, _scan

    _, commands, tables = _parsers()
    data = Path(__file__).parent / "data"
    argvs = [
        case["argv"]
        for name in ("cli_outputs_golden", "cli_construct_golden", "cli_dual_golden")
        for case in json.loads((data / f"{name}.json").read_text())
    ]
    assert len(argvs) == 460
    for argv in argvs:
        scanned = _scan(tables[argv[0]], argv[1:])
        assert scanned is not None, argv
        assert (scanned, []) == commands[argv[0]].parse_known_args(argv[1:]), argv


def test_cli_expect_lists_are_fresh_per_call(monkeypatch, capsys):
    # argparse appends to a copy of the default; the scan builds a new list.
    import ringcodes.cli as cli

    expects = []
    emit = cli._emit

    def recording(args, payload, text_lines):
        expects.append(args.expect)
        emit(args, payload, text_lines)

    monkeypatch.setattr(cli, "_emit", recording)
    default = cli._parsers()[1]["verify"].get_default("expect")
    argv = ["verify", "--ring", "Z/25", "--code", "{ (1,7) }", "--code", "{ (1,7) }",
            "--matrix", "[[1,7],[7,1]]"]
    assert main(argv + ["--expect", "self-dual"]) == 0
    assert main(argv + ["--expect", "self-dual"]) == 0
    assert main(argv + ["--exp", "self-dual"]) == 0  # abbreviated: argparse parses it
    assert main(argv) == 0
    capsys.readouterr()
    assert expects == [["self-dual"]] * 3 + [[]]
    assert len({id(e) for e in expects[:3]}) == 3
    assert default == [] and cli._parsers()[1]["verify"].get_default("expect") is default


_JSON_SCALARS = (
    # 0 and 1 beside False and True: a writer that tests bools by == fails.
    st.none() | st.booleans() | st.integers(-1, 1) | st.integers()
    | st.integers(min_value=10**20, max_value=10**40).map(lambda v: v * (-1) ** (v % 2))
    | st.text()
)


@settings(max_examples=300, deadline=None)
@given(st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
))
def test_json_writer_matches_json_dumps(value):
    from ringcodes.cli import _json

    assert _json(value) == json.dumps(value, indent=2)


def _str_keyed(value) -> bool:
    if isinstance(value, dict):
        return all(isinstance(k, str) and _str_keyed(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return all(_str_keyed(v) for v in value)
    return True


def test_every_json_payload_has_str_keys(monkeypatch, capsys):
    # The JSON writer encodes keys as strings; json.dumps would convert
    # other keys, so every payload it is given must have only str keys.
    import ringcodes.cli as cli

    written = []

    def checked(payload):
        assert _str_keyed(payload), payload
        written.append(payload)
        return json.dumps(payload, indent=2)

    monkeypatch.setattr(cli, "_json", checked)
    zn = ["--ring", "Z/20", "--code", "{ (10) }", "--code", "{ (4) }"]
    argvs = [
        ["verify", *zn, "--matrix", "[[1,2],[0,0]]", "--expect", "self-orthogonal"],
        ["verify", "--ring", "Z/25", "--code", "{ (5) }", "--code", "{ (5) }",
         "--matrix", "[[1,7],[7,1]]", "--use-dual-theorem", "--expect", "self-dual"],
        ["dual", "--ring", "Z/4", "--code", "{ (2,2) }"],
        ["distance", "--ring", "Z/4", "--code", "{ (2,2) }"],
        ["distance", *zn, "--matrix", "[[1,2],[0,1]]"],
        *(["construct", family, "--ring", "Z/13"]
          for family in ("diag1", "adiag1a", "adiag1b", "adiag3", "block")),
        *(["reproduce", sid] for sid in (
            "ex1", "ex2", "z25-selfdual", "prime-square:5", "lemma-diag1:Z/25:1",
            "lemma-adiag1:Z/25", "lemma-adiag3:Z/13")),
    ]
    for argv in argvs:
        for fmt in ("json", "text"):
            assert main(argv + ["--format", fmt]) in (0, 1), (argv, capsys.readouterr())
    capsys.readouterr()
    # Every JSON output, and the text certificate line of construct.
    assert len(written) == len(argvs) + 5
