#!/usr/bin/env python
"""Quickstart: R2C2 on a 64-node rack in a dozen lines.

Builds a 4x4x4 3D-torus rack (the SeaMicro/Moonshot shape, scaled down),
starts a few flows with different weights and routing protocols, and shows
the congestion-controlled rates every sender enforces — no probing, no
switch support, just broadcast flow events plus local computation.

Run:  python examples/quickstart.py
"""

from repro.congestion import ControllerConfig
from repro.core import Rack
from repro.topology import TorusTopology
from repro.types import usec


def main() -> None:
    topology = TorusTopology((4, 4, 4))  # 64 nodes, 10 Gbps links
    rack = Rack(topology, ControllerConfig(headroom=0.05, recompute_interval_ns=usec(500)))

    print(f"rack: {topology.name}, {topology.n_nodes} nodes, "
          f"{topology.n_links} links, diameter {topology.diameter()}")

    # Start three flows.  Announcements are 16-byte broadcasts; every node
    # now knows the rack's whole traffic matrix.
    bulk = rack.start_flow(src=0, dst=42, protocol="rps")
    heavy = rack.start_flow(src=1, dst=42, protocol="rps", weight=2.0)
    detour = rack.start_flow(src=2, dst=42, protocol="vlb")
    print(f"\nstarted flows {bulk}, {heavy} (weight 2.0), {detour} (VLB)")
    print(f"every node sees the same table: {rack.tables_consistent()}")

    # Advance past one recomputation epoch: each sender water-fills the
    # global traffic matrix locally and rate-limits its own flows.
    rack.advance_time(usec(500))
    print("\nenforced rates after the first 500 us epoch:")
    specs = {spec.flow_id: spec for spec in rack.active_flows()}
    for flow_id, rate in sorted(rack.rates().items()):
        spec = specs[flow_id]
        print(f"  flow {flow_id} ({spec.src}->{spec.dst}, {spec.protocol}, "
              f"weight {spec.weight}): {rate / 1e9:.2f} Gbps")

    # A host-limited flow announces its demand; the freed capacity goes to
    # the others at the next epoch.
    rack.update_demand(bulk, demand_bps=1e9)
    rack.advance_time(usec(500))
    print("\nafter flow 0 announces a 1 Gbps demand:")
    for flow_id, rate in sorted(rack.rates().items()):
        print(f"  flow {flow_id}: {rate / 1e9:.2f} Gbps")

    # Let the routing-selection process (a genetic algorithm maximizing
    # aggregate throughput) reassign protocols per flow.
    improvement = rack.select_routes()
    rack.advance_time(usec(500))
    print(f"\nrouting selection improved aggregate throughput by "
          f"{improvement:.1%}; control traffic so far: "
          f"{rack.control_bytes_on_wire} bytes on the wire")

    rack.finish_flow(heavy)
    rack.advance_time(usec(500))
    print(f"\nflow {heavy} finished; remaining rates:")
    for flow_id, rate in sorted(rack.rates().items()):
        print(f"  flow {flow_id}: {rate / 1e9:.2f} Gbps")


if __name__ == "__main__":
    main()
