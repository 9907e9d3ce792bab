#!/usr/bin/env python
"""Inter-rack networking (paper §6): two racks, two designs.

Design A — direct gateway cables between racks (the paper's preferred,
Theia-like option): one R2C2 domain spans both racks, hierarchical routing
load-balances the parallel cables, and the water-fill naturally confines
inter-rack flows to the gateway capacity while intra-rack traffic keeps its
full fabric.

Design B — an aggregation switch with R2C2-in-Ethernet tunneling: the same
flows pay encapsulation overhead and funnel through the switch.

Run:  python examples/interrack_fabric.py
"""

import random

from repro.congestion import FlowSpec, WeightProvider, waterfill
from repro.routing import HierarchicalRouting
from repro.sim import SimConfig, run_simulation
from repro.topology import FabricSpec, synthesize
from repro.types import gbps
from repro.wire import (
    DataPacket,
    tunnel_overhead_fraction,
    tunnel_packet,
    untunnel_packet,
)
from repro.workloads import FixedSize, poisson_trace

#: Two 4x4 torus racks, two 40 Gbps gateway ports per rack.
TWO_RACKS = dict(
    rack="torus", rack_dims=(4, 4), n_racks=2, gateway_ports=2,
    bridge_capacity_bps=gbps(40),
)


def design_a_direct_cables() -> None:
    fabric = synthesize(FabricSpec(design="ring", **TWO_RACKS)).topology
    print(f"Design A: {fabric.name}, {fabric.n_nodes} nodes, "
          f"{len(fabric.gateway_links()) // 2} cables @ 40 Gbps, "
          f"oversubscription {fabric.oversubscription_ratio():.1f}x")

    hier = HierarchicalRouting(fabric)
    rng = random.Random(1)
    path = hier.sample_path(fabric.global_id(0, 5), fabric.global_id(1, 9), rng)
    pretty = " -> ".join(
        f"r{fabric.rack_of(n)}n{fabric.local_id(n)}" for n in path
    )
    print(f"  sample inter-rack route: {pretty}")

    provider = WeightProvider(fabric, {"hier": hier})
    flows = [
        FlowSpec(i, fabric.global_id(0, i), fabric.global_id(1, i), "hier")
        for i in range(6)
    ] + [FlowSpec(100, fabric.global_id(0, 1), fabric.global_id(0, 14), "hier")]
    alloc = waterfill(fabric, flows, provider)
    inter = [alloc.rates_bps[i] / 1e9 for i in range(6)]
    print(f"  6 inter-rack flows: {inter[0]:.1f} Gbps each "
          f"(sum {sum(inter):.0f} <= 80 Gbps of cables)")
    print(f"  1 intra-rack flow:  {alloc.rates_bps[100] / 1e9:.1f} Gbps "
          "(full fabric, unaffected by the gateways)")


def design_b_switched_tunnel() -> None:
    topo = synthesize(
        FabricSpec(design="switched", bridge_latency_ns=1000, **TWO_RACKS)
    ).topology
    print(f"\nDesign B: {topo.name}, aggregation switch is node {topo.n_hosts}")

    packet = DataPacket(
        flow_id=7, src=5, dst=25, seq=0, route_ports=(1, 2), route_index=0,
        payload=b"x" * 1024,
    ).encode()
    frame = tunnel_packet(packet, src=(0, 5), dst=(1, 9))
    recovered = untunnel_packet(frame)
    assert recovered == packet
    print(f"  tunneled a {len(packet)}-byte R2C2 packet in a "
          f"{len(frame)}-byte Ethernet frame "
          f"({100 * tunnel_overhead_fraction(len(packet)):.1f}% overhead)")

    trace = poisson_trace(topo, 60, 20_000, sizes=FixedSize(60_000), seed=4)
    metrics = run_simulation(topo, trace, SimConfig(stack="r2c2", seed=4))
    print(f"  simulated {len(trace)} flows across the switch: "
          f"completion {metrics.completion_rate():.0%}, "
          f"p99 FCT {metrics.fct_percentile_us(99):.1f} us")
    print("  (every cross-rack byte squeezes through the switch uplinks — "
          "the cost the paper's switchless design avoids)")


if __name__ == "__main__":
    design_a_direct_cables()
    design_b_switched_tunnel()
