"""Sharded-vs-serial byte identity under the rack-aligned cut.

The synth tentpole's distsim acceptance: a K-shard simulation of a
*synthesized* multi-rack fabric, partitioned along rack boundaries (cut =
gateway links, lookahead = gateway latency), must reproduce the serial
engine's canonical metrics and telemetry exactly.
"""

import pytest

from repro.distsim import (
    canonical_metrics,
    comparable_snapshot,
    run_sharded_simulation,
)
from repro.sim import SimConfig, run_simulation
from repro.telemetry import Telemetry, TelemetryConfig
from repro.topology import FabricSpec, synthesize
from repro.topology.partition import partition_topology
from repro.workloads import poisson_trace

pytestmark = [pytest.mark.distsim, pytest.mark.synth]


def _fabric(design="flat", n_racks=4):
    return synthesize(
        FabricSpec(
            design=design,
            rack="torus",
            rack_dims=(2, 2),
            n_racks=n_racks,
            gateway_ports=2,
            seed=5,
        )
    ).topology


@pytest.mark.parametrize("design", ("flat", "ring"))
@pytest.mark.parametrize("shards", (2, 4))
def test_synth_fabric_byte_identical(design, shards):
    topology = _fabric(design)
    trace = poisson_trace(topology, 30, 10_000, seed=7)
    config = SimConfig(stack="tcp", seed=7)

    telemetry = Telemetry(TelemetryConfig(metrics=True, trace=False))
    serial = run_simulation(topology, trace, config, telemetry=telemetry)
    serial_snapshot = telemetry.metrics.snapshot()

    sharded = run_sharded_simulation(
        topology,
        trace,
        config,
        shards=shards,
        telemetry_config=TelemetryConfig(metrics=True, trace=False),
    )
    assert canonical_metrics(sharded.metrics) == canonical_metrics(serial)
    assert comparable_snapshot(sharded.telemetry_snapshot) == comparable_snapshot(
        serial_snapshot
    )
    assert sharded.shards == shards
    assert sharded.boundary_messages > 0


def test_rack_cut_is_what_the_engine_uses():
    """The auto partition of a synthesized fabric is the rack cut, and its
    boundary is exactly the gateway tier."""
    topology = _fabric("flat")
    plan = partition_topology(topology, 4)
    assert plan.assignment == partition_topology(topology, 4, "rack").assignment
    assert plan.lookahead_ns() == 500  # spec.bridge_latency_ns
    for link in plan.cut_edges():
        assert topology.is_gateway_link(link.link_id)
    # Each shard is a whole number of racks.
    for shard in plan.shards():
        racks = {topology.rack_of(node) for node in shard}
        for rack in racks:
            members = [n for n in topology.nodes() if topology.rack_of(n) == rack]
            assert all(plan.shard_of(n) == plan.shard_of(members[0])
                       for n in members)
