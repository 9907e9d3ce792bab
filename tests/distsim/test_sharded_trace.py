"""Sharded tracing: merged per-shard traces equal the serial trace.

Satellite of the repro.obs PR: ``validate_sharded_config`` no longer
rejects tracing.  Each shard records its own ``TraceRecorder``; the
coordinator merges them by ``(time_ns, seq, shard)`` into one document
whose mergeable tracks are content-identical to a serial run's — compared
through :func:`repro.telemetry.canonical_trace_events`, the
order-insensitive equality surface.
"""

import pytest

from repro.distsim import run_sharded_simulation
from repro.sim import SimConfig, run_simulation
from repro.telemetry import (
    MERGEABLE_TRACKS,
    Telemetry,
    TelemetryConfig,
    canonical_trace_events,
)
from repro.topology import TorusTopology
from repro.workloads import poisson_trace

pytestmark = [pytest.mark.distsim, pytest.mark.obs]


def _workload():
    topology = TorusTopology((4, 4))
    trace = poisson_trace(topology, 40, 8_000, seed=3)
    config = SimConfig(stack="r2c2", control_plane="per_node", seed=3)
    return topology, trace, config


def _telemetry_config():
    return TelemetryConfig(metrics=True, trace=True, per_link_series=False)


def _serial_document(topology, trace, config):
    telemetry = Telemetry(_telemetry_config())
    run_simulation(topology, trace, config, telemetry=telemetry)
    return telemetry.trace.to_document()


@pytest.mark.parametrize("shards", [2, 4])
def test_merged_trace_content_identical_to_serial(shards):
    topology, trace, config = _workload()
    serial_doc = _serial_document(topology, trace, config)
    sharded = run_sharded_simulation(
        topology,
        trace,
        config,
        shards=shards,
        telemetry_config=_telemetry_config(),
    )
    assert sharded.trace_document is not None
    assert canonical_trace_events(
        sharded.trace_document, tracks=MERGEABLE_TRACKS
    ) == canonical_trace_events(serial_doc, tracks=MERGEABLE_TRACKS)


def test_untraced_sharded_run_has_no_document():
    topology, trace, config = _workload()
    sharded = run_sharded_simulation(
        topology,
        trace,
        config,
        shards=2,
        telemetry_config=TelemetryConfig(metrics=True, trace=False),
    )
    assert sharded.trace_document is None
