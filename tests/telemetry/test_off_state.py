"""A switched-off telemetry sink is ``None``, and each half-on session
records exactly its half of a full session.

* **Off** — both sinks ``None``: the session is disabled, the simulator
  builds no probe for it, and the controller and auditor hold no
  instrument.
* **Trace-only** — the trace equals a full session's and the run equals
  a telemetry-free one (the link probes and the SimProbe write into the
  trace alone).
* **Metrics-only** — the snapshot equals a full session's.
"""

import pytest

from repro.congestion import RateController
from repro.sim import EventLoop, SimConfig, run_simulation
from repro.sim.probe import build_probe
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Telemetry,
    TelemetryConfig,
    TimeSeries,
    TraceRecorder,
)
from repro.topology import TorusTopology
from repro.validation import InvariantAuditor
from repro.workloads import FixedSize, poisson_trace

pytestmark = pytest.mark.telemetry

_SINKS = (Counter, Gauge, Histogram, TimeSeries, MetricsRegistry, TraceRecorder)


def _off():
    return Telemetry(TelemetryConfig(metrics=False, trace=False))


def _held_sinks(obj):
    return [name for name, value in vars(obj).items() if isinstance(value, _SINKS)]


def _run(telemetry):
    topo = TorusTopology((3, 3))
    trace = poisson_trace(topo, 20, 15_000, sizes=FixedSize(30_000), seed=5)
    return run_simulation(topo, trace, SimConfig(stack="r2c2", seed=5), telemetry=telemetry)


@pytest.fixture(scope="module")
def full():
    telemetry = Telemetry(TelemetryConfig())
    return _run(telemetry), telemetry


class TestOff:
    def test_both_sinks_are_none(self):
        telemetry = _off()
        assert telemetry.metrics is None
        assert telemetry.trace is None
        assert not telemetry.enabled

    def test_half_on_sessions_are_enabled(self):
        assert Telemetry(TelemetryConfig(metrics=False)).enabled
        assert Telemetry(TelemetryConfig(trace=False)).enabled

    def test_no_probe(self):
        assert build_probe(SimConfig(), _off(), EventLoop()) is None
        assert build_probe(SimConfig(stack="r2c2"), _off(), EventLoop()) is None

    def test_controller_holds_no_instrument(self):
        controller = RateController(TorusTopology((3, 3)), node=0, telemetry=_off())
        assert _held_sinks(controller) == []

    def test_auditor_holds_no_instrument(self):
        auditor = InvariantAuditor(telemetry=_off())
        assert _held_sinks(auditor) == []


class TestTraceOnly:
    def test_trace_equals_full_session(self, full):
        _, full_session = full
        telemetry = Telemetry(TelemetryConfig(metrics=False))
        _run(telemetry)
        assert telemetry.metrics is None
        assert telemetry.trace.events() == full_session.trace.events()

    def test_run_equals_telemetry_free(self):
        traced = _run(Telemetry(TelemetryConfig(metrics=False)))
        assert traced.summary() == _run(None).summary()


class TestMetricsOnly:
    def test_snapshot_equals_full_session(self, full):
        _, full_session = full
        telemetry = Telemetry(TelemetryConfig(trace=False))
        _run(telemetry)
        assert telemetry.trace is None
        assert telemetry.metrics.snapshot() == full_session.metrics.snapshot()
