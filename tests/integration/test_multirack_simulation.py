"""End-to-end packet simulation across a multi-rack fabric (§6)."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import SimConfig, run_simulation
from repro.topology import FabricSpec, synthesize
from repro.types import gbps
from repro.workloads import FixedSize, FlowArrival, poisson_trace


@pytest.fixture(scope="module")
def fabric():
    return synthesize(
        FabricSpec(design="ring", rack_dims=(3, 3), n_racks=2, gateway_ports=2,
                   capacity_bps=gbps(10), bridge_capacity_bps=gbps(10))
    ).topology


class TestMultiRackSimulation:
    def test_hierarchical_flows_complete(self, fabric):
        trace = [
            FlowArrival(i, i % 9, 9 + (i * 2) % 9, 60_000, i * 2_000, protocol="hier")
            for i in range(12)
        ]
        metrics = run_simulation(fabric, trace, SimConfig(stack="r2c2", seed=2))
        assert metrics.completion_rate() == 1.0
        for flow in metrics.flows:
            assert flow.bytes_received == flow.size_bytes

    def test_broadcasts_span_racks(self, fabric):
        # A flow start must inform nodes in BOTH racks: tables are rack-
        # global under one R2C2 domain.
        trace = [FlowArrival(0, 0, 12, 40_000, 0, protocol="hier")]
        metrics = run_simulation(
            fabric, trace, SimConfig(stack="r2c2", control_plane="per_node", seed=1)
        )
        assert metrics.completion_rate() == 1.0
        # 2 events x (n-1) deliveries each.
        assert metrics.broadcast_packets == 2 * (fabric.n_nodes - 1)

    def test_mixed_protocols_across_racks(self, fabric):
        # Intra-rack flows on plain spraying, inter-rack on hierarchical —
        # the per-flow protocol flexibility the paper's design enables.
        trace = [
            FlowArrival(0, 0, 4, 80_000, 0, protocol="rps"),
            FlowArrival(1, 1, 13, 80_000, 0, protocol="hier"),
            FlowArrival(2, 9, 17, 80_000, 0, protocol="rps"),
        ]
        metrics = run_simulation(fabric, trace, SimConfig(stack="r2c2", seed=3))
        assert metrics.completion_rate() == 1.0

    def test_bridge_constrains_inter_rack_throughput(self, fabric):
        # Many simultaneous inter-rack flows share 2 x 10G of cables.
        trace = [
            FlowArrival(i, i, 9 + i, 400_000, 0, protocol="hier") for i in range(6)
        ]
        metrics = run_simulation(fabric, trace, SimConfig(stack="r2c2", seed=4))
        assert metrics.completion_rate() == 1.0
        total_rate = sum(
            f.average_throughput_bps() for f in metrics.completed_flows()
        )
        # The aggregate cannot meaningfully exceed the gateway capacity
        # (some slack for the young-flow window before the first epoch).
        assert total_rate < 2 * gbps(10) * 1.8


def test_interrack_example_runs():
    """``examples/interrack_fabric.py`` drives both §6 designs end to end."""
    example = Path(__file__).resolve().parents[2] / "examples" / "interrack_fabric.py"
    result = subprocess.run(
        [sys.executable, str(example)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert "Design A: multirack(2xtorus(4x4))" in result.stdout
    assert "Design B: switched-multirack(2xtorus(4x4))" in result.stdout
    assert "completion 100%" in result.stdout
