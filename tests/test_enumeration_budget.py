"""The request-scoped budget of :func:`ringcodes.enumeration_budget`:
nested blocks restore the enclosing limit however they exit, a new thread
starts at the default, bad limits are refused with the outer one left in
force, every refusal site reads the limit enclosing its call, and the
command line checks ``--budget`` before it parses anything."""

import threading

import pytest

from ringcodes import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    InvalidParameterError,
    Matrix,
    block_adiag_matrix,
    enumeration_budget,
    make_integer_residue_ring,
    prime_square_codes,
    row_code_min_distances,
    span,
)
from ringcodes import constructions
from ringcodes.cli import main
from ringcodes.ring import charge

BAD_LIMIT = "enumeration budget must be a positive integer"


def _limit() -> int:
    """The limit in force, read back from a refusal."""
    with pytest.raises(BudgetExceededError) as err:
        charge(None, "{limit}")
    return int(str(err.value))


def test_outside_any_block_the_limit_is_the_default():
    assert _limit() == DEFAULT_ENUMERATION_BUDGET == 10**7
    with enumeration_budget() as limit:
        assert limit == _limit() == DEFAULT_ENUMERATION_BUDGET


def test_nested_blocks_restore_the_outer_limit_on_normal_exit():
    with enumeration_budget(50) as outer:
        assert outer == _limit() == 50
        with enumeration_budget(7) as inner:
            assert inner == _limit() == 7
            with enumeration_budget(None):
                assert _limit() == DEFAULT_ENUMERATION_BUDGET
            assert _limit() == 7
        assert _limit() == 50
    assert _limit() == DEFAULT_ENUMERATION_BUDGET


def test_nested_blocks_restore_the_outer_limit_on_an_exception():
    with enumeration_budget(50):
        with pytest.raises(BudgetExceededError):
            with enumeration_budget(7):
                charge(8, "needs {need}, budget is {limit}")
        assert _limit() == 50
        with pytest.raises(KeyError):
            with enumeration_budget(9):
                raise KeyError("not a budget error")
        assert _limit() == 50
    assert _limit() == DEFAULT_ENUMERATION_BUDGET


def test_a_thread_started_inside_a_block_sees_the_default():
    seen = []
    with enumeration_budget(7):
        worker = threading.Thread(target=lambda: seen.append(_limit()))
        worker.start()
        worker.join()
        assert _limit() == 7
    assert seen == [DEFAULT_ENUMERATION_BUDGET]


@pytest.mark.parametrize("bad", [0, -1, 1.5, "10"])
def test_a_bad_limit_is_refused_and_the_outer_one_stays(bad):
    with enumeration_budget(50):
        with pytest.raises(InvalidParameterError) as err:
            with enumeration_budget(bad):
                pass
        assert str(err.value) == BAD_LIMIT
        assert _limit() == 50


def _block_pre_charge(z25, monkeypatch):
    """The row scan that ``block_adiag_matrix`` charges before it builds
    the matrix: the certifying scan itself is stubbed, so a refusal can
    only come from the pre-charge."""
    monkeypatch.setattr(constructions, "row_code_min_distances", lambda a: (2, 1))
    return lambda: block_adiag_matrix(z25, 7)


#: Each refusal site as (a builder of the call given Z/25 and monkeypatch,
#: the call's cost, the refusal up to ", budget is").
SITES = {
    "code-walk": (
        lambda z25, mp: span(z25, 2, [[1, 7]]).codewords, 25,
        "enumerating the code needs 25 words"),
    "dual": (
        lambda z25, mp: span(z25, 2, [[1, 7]]).dual, 625,
        "dual enumeration needs 625 candidate vectors"),
    "dual-bruteforce": (
        lambda z25, mp: span(z25, 2, [[1, 7]]).dual_bruteforce, 625,
        "dual enumeration needs 625 candidate vectors"),
    "row-scan": (
        lambda z25, mp: lambda: row_code_min_distances(Matrix(z25, [[1, 7], [7, 1]])), 650,
        "row-code scans need 650 coefficient tuples"),
    "block-pre-charge": (
        _block_pre_charge, 650, "row-code scans need 650 coefficient tuples"),
    "prime-square-p2": (
        lambda z25, mp: lambda: prime_square_codes(5), 25,
        "enumerating the code needs 25 words"),
    "square-root-search": (
        lambda z25, mp: z25.find_square_root_of_minus_one, 25,
        "square-root search needs 25 candidate elements"),
}


@pytest.mark.parametrize("site", SITES)
def test_every_refusal_site_reads_the_enclosing_limit(site, monkeypatch):
    build, cost, refusal = SITES[site]
    call = build(make_integer_residue_ring(25), monkeypatch)
    with enumeration_budget(10**6):
        with pytest.raises(BudgetExceededError) as err:
            with enumeration_budget(cost - 1):
                call()
        assert str(err.value) == f"{refusal}, budget is {cost - 1}"
        with enumeration_budget(cost):
            call()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--ring", "Z/(", "--code", "{ (1) }", "--matrix", "[[1]]"],
        ["reproduce", "lemma-adiag3:Z/("],
        ["construct", "adiag3", "--ring", "Z/("],
        ["dual", "--ring", "Z/(", "--code", "{ (1) }"],
        ["distance", "--ring", "Z/(", "--code", "{ (1) }"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_checks_the_budget_before_parsing(argv, capsys):
    assert main(argv + ["--budget", "0"]) == 2
    assert capsys.readouterr().err == f"error: {BAD_LIMIT}\n"
    # Without the bad budget, the same request is refused by the parser.
    assert main(argv) == 2
    assert "line 1, column" in capsys.readouterr().err
