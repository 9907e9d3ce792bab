"""Global utility metrics for routing-protocol selection (paper §3.4).

The datacenter operator chooses what the selection process maximizes —
"example utility metrics include the rack's aggregate throughput or the tail
throughput, as measured across tenants or even across jobs".  A metric maps
a :class:`~repro.congestion.waterfill.RateAllocation` to a scalar; higher is
better.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional

import numpy as np

from ..congestion.waterfill import RateAllocation
from ..errors import SelectionError


class UtilityMetric(ABC):
    """Scores an allocation; selection heuristics maximize the score."""

    name: str = "abstract"

    # census: interface stub; several implementations
    @abstractmethod
    def evaluate(self, allocation: RateAllocation) -> float:
        """The utility of *allocation* (higher is better)."""


class AggregateThroughput(UtilityMetric):
    """Sum of all flow rates — the paper's running example."""

    name = "aggregate-throughput"

    def evaluate(self, allocation: RateAllocation) -> float:
        return allocation.aggregate_throughput_bps()


class TailThroughput(UtilityMetric):
    """A low percentile of flow rates (default: the minimum).

    Optimizing this prevents the selection process from starving a few
    flows to inflate the aggregate.
    """

    name = "tail-throughput"

    def __init__(self, percentile: float = 0.0) -> None:
        if not (0.0 <= percentile <= 100.0):
            raise SelectionError(f"percentile must be in [0, 100], got {percentile}")
        self._percentile = percentile

    def evaluate(self, allocation: RateAllocation) -> float:
        rates = list(allocation.rates_bps.values())
        if not rates:
            return 0.0
        if self._percentile == 0.0:
            return float(min(rates))
        return float(np.percentile(np.asarray(rates), self._percentile))


class TenantTailThroughput(UtilityMetric):
    """Minimum, over tenants, of the tenant's aggregate rate.

    Captures the paper's "tail throughput, as measured across tenants":
    the operator wants no tenant to fall behind, regardless of how the
    tenant's rate is distributed over its flows.
    """

    name = "tenant-tail-throughput"

    def __init__(self, tenant_of_flow: Dict[int, Optional[str]]) -> None:
        self._tenant_of_flow = dict(tenant_of_flow)

    def evaluate(self, allocation: RateAllocation) -> float:
        per_tenant: Dict[Optional[str], float] = {}
        for flow_id, rate in allocation.rates_bps.items():
            tenant = self._tenant_of_flow.get(flow_id)
            per_tenant[tenant] = per_tenant.get(tenant, 0.0) + rate
        if not per_tenant:
            return 0.0
        return min(per_tenant.values())


class BlendedUtility(UtilityMetric):
    """``alpha * aggregate + (1 - alpha) * n * tail`` — a tunable compromise."""

    name = "blended"

    def __init__(self, alpha: float = 0.5) -> None:
        if not (0.0 <= alpha <= 1.0):
            raise SelectionError(f"alpha must be in [0, 1], got {alpha}")
        self._alpha = alpha
        self._aggregate = AggregateThroughput()
        self._tail = TailThroughput()

    def evaluate(self, allocation: RateAllocation) -> float:
        n = max(len(allocation.rates_bps), 1)
        return self._alpha * self._aggregate.evaluate(allocation) + (
            1.0 - self._alpha
        ) * n * self._tail.evaluate(allocation)
