"""Unit tests for the Chrome trace-event recorder."""

import json

import pytest

from repro.telemetry import (
    TRACK_CONTROLLER,
    TRACK_SIM,
    TraceRecorder,
)

pytestmark = pytest.mark.telemetry


def non_meta(trace):
    return [e for e in trace.events() if e["ph"] != "M"]


class TestTraceRecorder:
    def test_thread_names_emitted_up_front(self):
        trace = TraceRecorder()
        meta = [e for e in trace.events() if e["ph"] == "M"]
        assert meta, "expected thread_name metadata events"
        assert all(e["name"] == "thread_name" for e in meta)
        names = {e["args"]["name"] for e in meta}
        assert "event loop" in names and "rate controller" in names

    def test_complete_span(self):
        trace = TraceRecorder()
        trace.complete("batch", "eventloop", ts_ns=2_000, dur_ns=500,
                       tid=TRACK_SIM, args={"events": 3})
        (event,) = non_meta(trace)
        assert event["ph"] == "X"
        assert event["ts"] == 2.0  # ns -> us
        assert event["dur"] == 0.5
        assert event["args"] == {"events": 3}

    def test_instant(self):
        trace = TraceRecorder()
        trace.instant("epoch", "controller", ts_ns=1_000, tid=TRACK_CONTROLLER)
        (event,) = non_meta(trace)
        assert event["ph"] == "i"
        assert event["s"] == "t"

    def test_counter(self):
        trace = TraceRecorder()
        trace.counter("rack.queued_bytes", 3_000, {"bytes": 42})
        (event,) = non_meta(trace)
        assert event["ph"] == "C"
        assert event["args"] == {"bytes": 42}

    def test_document_shape_and_json(self, tmp_path):
        trace = TraceRecorder()
        trace.instant("x", "c", 0)
        doc = trace.to_document()
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"]["truncated"] is False
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = json.loads(path.read_text())
        assert isinstance(loaded["traceEvents"], list)

    def test_max_events_truncates(self):
        trace = TraceRecorder(max_events=8)
        for i in range(20):
            trace.instant("e", "c", i)
        assert len(trace) == 8
        assert trace.truncated
        assert trace.to_document()["otherData"]["truncated"] is True
