"""The condition report, pinned word for word.

``data/report_golden.json`` holds a fixed list of specs (input codes with
their own closure budgets, the matrix, the report budget) and the full
``to_json_dict()`` of each report.  The list reaches every verdict of
every condition, the six indeterminate ones included, and every detail
wording; a few specs are built so that the zero-lambda exemption and the
order of the chain checks decide a verdict.
"""

import json
from pathlib import Path

import pytest

from ringcodes import CONDITION_IDS, MPCSpec, check_conditions, parse_code, parse_matrix

CASES = json.loads((Path(__file__).parent / "data" / "report_golden.json").read_text())


def _spec(entry: dict) -> MPCSpec:
    codes = tuple(parse_code(text, budget) for text, budget in entry["codes"])
    return MPCSpec(codes, parse_matrix(entry["matrix"], codes[0].ring))


@pytest.mark.parametrize("case", CASES, ids=[f"spec{i}" for i in range(len(CASES))])
def test_report_matches_golden(case):
    report = check_conditions(_spec(case["spec"]), case["spec"]["budget"])
    assert report.to_json_dict() == case["report"]


def test_golden_reaches_every_verdict():
    seen = {(c["id"], c["holds"]) for case in CASES for c in case["report"]["conditions"]}
    assert {(cid, holds) for cid in CONDITION_IDS for holds in (True, False)} <= seen
    assert {cid for cid, holds in seen if holds is None} == {
        "cor-orthog-3", "thm-self-dual", "lemma-ca-1", "lemma-ca-2", "lemma-ca-4",
        "thm-self-mpc",
    }
