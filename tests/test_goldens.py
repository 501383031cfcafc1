"""Every golden case reproduces its report and trace hash byte for byte."""

import json

import pytest

from capture_goldens import CASES, GOLDEN, run_case

TRACES = json.loads((GOLDEN / "traces.json").read_text())


@pytest.mark.parametrize("case", list(CASES))
def test_report_and_trace_match_golden(case):
    report, trace_hash = run_case(case)
    assert report == (GOLDEN / f"{case}.json").read_text()
    assert trace_hash == TRACES[case]
