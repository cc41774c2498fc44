"""The condition report, pinned word for word.

``data/report_golden.json`` holds a fixed list of specs (input codes and
the matrix) and the full ``to_json_dict()`` of each report.  The list
reaches both verdicts of every condition and every detail wording; a few
specs are built so that the zero-lambda exemption decides a verdict.  The
specs are parsed and reported at budget 1: every verdict comes from
generator pairs and echelon forms, which cost nothing.
"""

import json
from pathlib import Path

import pytest

from ringcodes import (
    CONDITION_IDS, MPCSpec, check_conditions, enumeration_budget, parse_code, parse_matrix,
)

CASES = json.loads((Path(__file__).parent / "data" / "report_golden.json").read_text())


def _spec(entry: dict) -> MPCSpec:
    codes = tuple(parse_code(text) for text in entry["codes"])
    return MPCSpec(codes, parse_matrix(entry["matrix"], codes[0].ring))


@pytest.mark.parametrize("case", CASES, ids=[f"spec{i}" for i in range(len(CASES))])
def test_report_matches_golden(case):
    with enumeration_budget(1):
        report = check_conditions(_spec(case["spec"]))
    assert report.to_json_dict() == case["report"]


def test_golden_reaches_every_verdict():
    seen = {(c["id"], c["holds"]) for case in CASES for c in case["report"]["conditions"]}
    assert seen == {(cid, holds) for cid in CONDITION_IDS for holds in (True, False)}
