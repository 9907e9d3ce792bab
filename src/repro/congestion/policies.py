"""Rate-allocation policies (§3.3.2, "Beyond per-flow fairness").

R2C2 exposes two allocation primitives per flow — a *weight* and a
*priority* — and the paper notes that richer datacenter policies (deadline
based [46], tenant based [37]) map onto them, similar to pFabric.

Tenant shares map onto weights (:class:`TenantShares`); deadlines map onto
priority levels, deadline flows at :data:`DEADLINE_LEVEL` allocating
strictly before best-effort traffic at :data:`BEST_EFFORT_LEVEL`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Mapping, Optional, Sequence

from ..errors import CongestionControlError
from .flowstate import FlowSpec

#: Priority level for deadline flows ([28, 46, 48] in the paper; 0
#: allocates first).
DEADLINE_LEVEL = 0
#: Priority level for best-effort flows.
BEST_EFFORT_LEVEL = 1


class TenantShares:
    """Per-tenant network shares ([10, 11, 30] in the paper).

    Each tenant holds a share; a flow's weight is its tenant's share divided
    by the tenant's number of active flows, so that on any shared bottleneck
    tenants — not flows — split bandwidth in proportion to their shares,
    regardless of how many flows each tenant opens ("chatty tenants").
    """

    def __init__(self, shares: Mapping[str, float], default_share: float = 1.0) -> None:
        if default_share <= 0 or any(s <= 0 for s in shares.values()):
            raise CongestionControlError("tenant shares must be positive")
        self._shares = dict(shares)
        self._default = default_share

    def share_of(self, tenant: Optional[str]) -> float:
        """The configured share of *tenant* (default share if unknown)."""
        if tenant is None:
            return self._default
        return self._shares.get(tenant, self._default)

    def apply_all(self, specs: Sequence[FlowSpec]) -> list:
        """Copies of *specs* weighted by tenant share over the tenant's flow
        count in *specs* (pass the full active set)."""
        counts: Dict[Optional[str], int] = {}
        for spec in specs:
            counts[spec.tenant] = counts.get(spec.tenant, 0) + 1
        return [
            replace(spec, weight=self.share_of(spec.tenant) / counts[spec.tenant])
            for spec in specs
        ]
