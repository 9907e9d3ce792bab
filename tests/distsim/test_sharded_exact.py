"""Byte-identity of the sharded engine against the serial engine.

These are the tentpole's acceptance checks: for every supported
configuration, a K-shard run must produce *exactly* the serial engine's
flow states, metrics digest and merged telemetry counters for the same
seeds — compared with tolerance zero through the differential-oracle
harness and directly through the canonical equality surface.
"""

import os
import random

import pytest

from repro.distsim import (
    canonical_metrics,
    comparable_snapshot,
    run_sharded_simulation,
    validate_sharded_config,
)
from repro.errors import SimulationError
from repro.sim import SimConfig, run_simulation
from repro.telemetry import Telemetry, TelemetryConfig
from repro.topology import FoldedClosTopology, TorusTopology
from repro.validation.oracle import sharded_vs_serial_report
from repro.workloads import ParetoSizes, poisson_trace
from repro.workloads.generator import FlowArrival

pytestmark = pytest.mark.distsim

_N_CASES = int(os.environ.get("R2C2_VALIDATION_CASES", "4"))


def _serial(topology, trace, config):
    telemetry = Telemetry(TelemetryConfig(metrics=True, trace=False))
    metrics = run_simulation(topology, trace, config, telemetry=telemetry)
    return metrics, telemetry.metrics.snapshot()


def _assert_exact(topology, trace, config, shards):
    serial_metrics, serial_snapshot = _serial(topology, trace, config)
    sharded = run_sharded_simulation(
        topology,
        trace,
        config,
        shards=shards,
        telemetry_config=TelemetryConfig(metrics=True, trace=False),
    )
    assert canonical_metrics(sharded.metrics) == canonical_metrics(serial_metrics)
    assert comparable_snapshot(sharded.telemetry_snapshot) == comparable_snapshot(
        serial_snapshot
    )
    return sharded


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("stack", ["r2c2", "tcp"])
def test_torus_byte_identical(shards, stack):
    topology = TorusTopology((4, 4))
    trace = poisson_trace(topology, 40, 8_000, seed=3)
    config = (
        SimConfig(stack="r2c2", control_plane="per_node", seed=3)
        if stack == "r2c2"
        else SimConfig(stack="tcp", seed=3)
    )
    result = _assert_exact(topology, trace, config, shards)
    assert result.shards == shards
    assert result.boundary_messages > 0  # the cut actually carried traffic


@pytest.mark.parametrize("shards", [2, 4])
def test_clos_byte_identical(shards):
    topology = FoldedClosTopology(n_hosts=16, radix=8)
    # Host-to-host traffic only: switches neither send nor receive.
    rng = random.Random(11)
    trace = []
    start_ns = 0
    for flow_id in range(30):
        src = rng.randrange(topology.n_hosts)
        dst = rng.randrange(topology.n_hosts - 1)
        if dst >= src:
            dst += 1
        trace.append(
            FlowArrival(
                flow_id=flow_id,
                src=src,
                dst=dst,
                size_bytes=rng.randrange(2_000, 120_000),
                start_ns=start_ns,
            )
        )
        start_ns += rng.randrange(1, 15_000)
    config = SimConfig(stack="r2c2", control_plane="per_node", seed=11)
    _assert_exact(topology, trace, config, shards)


def test_reliable_finite_queue_byte_identical():
    """Drop notes for broadcasts a full queue refused reach reliable
    senders across the cut exactly as in the serial run."""
    topology = TorusTopology((4, 4))
    sizes = ParetoSizes(mean_bytes=50 * 1024, shape=1.05, cap_bytes=500_000)
    trace = poisson_trace(topology, 60, 2000, sizes, seed=0)
    config = SimConfig(
        stack="r2c2",
        control_plane="per_node",
        reliable=True,
        queue_limit_bytes=1539,
        horizon_ns=5_000_000,
        audit=True,
        seed=0,
    )
    result = _assert_exact(topology, trace, config, shards=2)
    assert result.metrics.drops > 0 and result.metrics.audit.ok


def test_single_shard_degenerates_to_serial():
    """K=1 exercises the windowed protocol with an empty cut."""
    topology = TorusTopology((3, 3))
    trace = poisson_trace(topology, 20, 8_000, seed=7)
    config = SimConfig(stack="tcp", seed=7)
    result = _assert_exact(topology, trace, config, shards=1)
    assert result.lookahead_ns is None
    assert result.boundary_messages == 0


def test_oracle_report_is_exact():
    """The randomized differential oracle passes at tolerance zero."""
    report = sharded_vs_serial_report(n_cases=_N_CASES, seed=0, shards=(2, 4))
    assert report.ok, report.summary()
    assert report.tolerance == 0.0
    assert len(report.cases) == 2 * _N_CASES


def test_rejects_shared_control_plane():
    with pytest.raises(SimulationError, match="per_node"):
        validate_sharded_config(SimConfig(stack="r2c2", control_plane="shared"))


def test_rejects_pfq_and_flight():
    with pytest.raises(SimulationError, match="pfq"):
        validate_sharded_config(SimConfig(stack="pfq"))
    with pytest.raises(SimulationError, match="flight"):
        validate_sharded_config(SimConfig(stack="tcp", flight=True))


def test_accepts_loss_audit_and_trace():
    """Loss, auditing and tracing are simulation semantics and shard exactly."""
    validate_sharded_config(SimConfig(stack="tcp", loss_rate=0.01))
    validate_sharded_config(SimConfig(stack="tcp", audit=True))
    validate_sharded_config(
        SimConfig(stack="tcp"), TelemetryConfig(metrics=True, trace=True)
    )


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("stack", ["r2c2", "tcp"])
def test_lossy_byte_identical(shards, stack):
    """Per-port wire-loss RNG streams reproduce the serial draws exactly."""
    topology = TorusTopology((4, 4))
    trace = poisson_trace(topology, 30, 8_000, seed=13)
    config = (
        SimConfig(
            stack="r2c2",
            control_plane="per_node",
            reliable=True,
            loss_rate=0.01,
            seed=13,
        )
        if stack == "r2c2"
        else SimConfig(stack="tcp", loss_rate=0.01, seed=13)
    )
    result = _assert_exact(topology, trace, config, shards)
    assert result.metrics.wire_losses > 0  # the fault actually fired


@pytest.mark.parametrize("shards", [2, 4])
def test_audited_byte_identical(shards):
    """Per-shard auditors merge into the serial run's verdict."""
    topology = TorusTopology((4, 4))
    trace = poisson_trace(topology, 30, 8_000, seed=17)
    config = SimConfig(
        stack="r2c2", control_plane="per_node", audit=True, seed=17
    )
    result = _assert_exact(topology, trace, config, shards)
    serial_metrics, _ = _serial(topology, trace, config)
    assert result.metrics.audit is not None
    assert result.metrics.audit.ok
    assert result.metrics.audit.violations == serial_metrics.audit.violations
    # Conservation counters sum to the serial run's totals.
    assert (
        result.metrics.audit.packets_propagated
        == serial_metrics.audit.packets_propagated
    )
    assert result.metrics.audit.packets_arrived == serial_metrics.audit.packets_arrived
    assert (
        result.metrics.audit.packets_delivered
        == serial_metrics.audit.packets_delivered
    )
    assert (
        result.metrics.audit.allocations_audited
        == serial_metrics.audit.allocations_audited
    )
