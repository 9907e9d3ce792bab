#!/usr/bin/env python
"""Multi-tenant network sharing: allocation flexibility beyond per-flow
fairness (paper §3.3.2, goal G4).

Scenario: tenants Alpha and Beta share a rack 50/50.  Beta is "chatty" — it
opens eight flows to Alpha's two, all crossing the same bottleneck region.
Per-flow fairness would hand Beta 80 % of the bandwidth; R2C2's weight
primitive restores the tenant split.  A latency-critical service then gets
strict priority via the priority primitive (the deadline-policy mapping).

Run:  python examples/multi_tenant_isolation.py
"""

from collections import defaultdict

from repro.congestion import DeadlinePriority, TenantShares
from repro.core import Rack
from repro.topology import TorusTopology
from repro.types import usec


def tenant_report(rack, tenant_of):
    per_tenant = defaultdict(float)
    for flow_id, rate in rack.rates().items():
        per_tenant[tenant_of[flow_id]] += rate
    return {t: r / 1e9 for t, r in sorted(per_tenant.items())}


def main() -> None:
    topology = TorusTopology((4, 4))
    tenant_of = {}

    # ------------------------------------------------------------------
    # Round 1: naive per-flow fairness.
    # ------------------------------------------------------------------
    rack = Rack(topology)
    for _ in range(2):
        fid = rack.start_flow(0, 5, tenant="alpha")
        tenant_of[fid] = "alpha"
    for i in range(8):
        fid = rack.start_flow(0, 5, tenant="beta")
        tenant_of[fid] = "beta"
    rack.advance_time(usec(500))
    print("per-flow fairness (the chatty tenant wins):")
    for tenant, gbps in tenant_report(rack, tenant_of).items():
        print(f"  {tenant}: {gbps:.2f} Gbps aggregate")

    # ------------------------------------------------------------------
    # Round 2: tenant shares mapped onto flow weights.
    # ------------------------------------------------------------------
    policy = TenantShares({"alpha": 1.0, "beta": 1.0})
    rack2 = Rack(topology)
    tenant_of2 = {}
    specs = []
    for _ in range(2):
        specs.append(("alpha", 0, 5))
    for _ in range(8):
        specs.append(("beta", 0, 5))
    counts = defaultdict(int)
    for tenant, _, _ in specs:
        counts[tenant] += 1
    for tenant, src, dst in specs:
        weight = policy.share_of(tenant) / counts[tenant]
        fid = rack2.start_flow(src, dst, weight=weight, tenant=tenant)
        tenant_of2[fid] = tenant
    rack2.advance_time(usec(500))
    print("\ntenant-share weights (50/50 restored, per paper [10,11,30]):")
    for tenant, gbps in tenant_report(rack2, tenant_of2).items():
        print(f"  {tenant}: {gbps:.2f} Gbps aggregate")

    # ------------------------------------------------------------------
    # Round 3: a deadline flow preempts best-effort traffic via priority.
    # ------------------------------------------------------------------
    deadline_policy = DeadlinePriority()
    rack3 = Rack(topology)
    best_effort = rack3.start_flow(0, 5, priority=deadline_policy.BEST_EFFORT_LEVEL)
    urgent = rack3.start_flow(
        1, 5, priority=deadline_policy.DEADLINE_LEVEL, weight=4.0
    )
    rack3.advance_time(usec(500))
    print("\ndeadline traffic at strict priority (pFabric-style mapping):")
    print(f"  urgent flow:      {rack3.rate_of(urgent) / 1e9:.2f} Gbps")
    print(f"  best-effort flow: {rack3.rate_of(best_effort) / 1e9:.2f} Gbps")
    print("\n(the best-effort flow receives only the capacity the deadline "
          "level leaves behind)")


if __name__ == "__main__":
    main()
