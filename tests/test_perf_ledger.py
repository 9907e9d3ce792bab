"""The ``benchmarks/perf`` history files: a row says where it was measured."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PERF = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"


@pytest.fixture(scope="module")
def perfcommon():
    spec = importlib.util.spec_from_file_location("perfcommon", _PERF / "perfcommon.py")
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)  # puts src/ on sys.path; tier-1 already has it
    finally:
        sys.path[:] = path
    return module


def test_recorded_rows_carry_their_provenance(perfcommon):
    doc = {"benchmark": "b", "scenarios": {}}
    perfcommon.record_entry(doc, "s", "d", {"median_s": 1.0, "rev": "pr18"})
    perfcommon.record_entry(doc, "s", "d", {"median_s": 0.9, "rev": None})
    labelled, unlabelled = doc["scenarios"]["s"]["history"]
    for row in (labelled, unlabelled):
        assert row["commit"] and row["commit"] != "HEAD"
        assert row["dirty"] in (True, False, None)
        assert row["cpus"] >= 1
        assert row["python"].count(".") == 2 and row["numpy"]
    assert labelled["rev"] == "pr18"
    assert unlabelled["rev"] == unlabelled["commit"]


def test_placeholder_label_is_refused(perfcommon):
    doc = {"benchmark": "b", "scenarios": {}}
    with pytest.raises(ValueError, match="HEAD"):
        perfcommon.record_entry(doc, "s", "d", {"median_s": 1.0, "rev": "HEAD"})
    assert not doc["scenarios"]
    assert perfcommon.make_parser("x").parse_args([]).rev is None
