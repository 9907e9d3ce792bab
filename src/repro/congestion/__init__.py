"""Rate-based congestion control without probing (paper §3.3).

The pipeline: broadcast-fed :class:`FlowTable` → per-flow link weights
(:class:`WeightProvider`, dictated by each flow's routing protocol) →
weighted max-min :func:`waterfill` with headroom, demands and priorities →
per-flow token-bucket rates enforced at the sender.

:class:`RateController` wires these together per node and implements the
batched-recomputation design; :mod:`~repro.congestion.mp_reference` provides
the exact (path-splitting) max-min optimum for comparison.
"""

from .controller import ControllerConfig, RateController, RecomputeStats
from .demand import DemandEstimator
from .flowstate import FlowSpec, FlowTable
from .incremental import IncrementalWaterfill, spec_from_dict, spec_to_dict
from .linkweights import WeightProvider
from .mp_reference import PathFlow, maxmin_rates
from .policies import BEST_EFFORT_LEVEL, DEADLINE_LEVEL, TenantShares
from .waterfill import RateAllocation, effective_capacities, fill_matrix, waterfill

__all__ = [
    "BEST_EFFORT_LEVEL",
    "ControllerConfig",
    "DEADLINE_LEVEL",
    "DemandEstimator",
    "FlowSpec",
    "FlowTable",
    "IncrementalWaterfill",
    "PathFlow",
    "RateAllocation",
    "RateController",
    "RecomputeStats",
    "TenantShares",
    "WeightProvider",
    "effective_capacities",
    "maxmin_rates",
    "fill_matrix",
    "spec_from_dict",
    "spec_to_dict",
    "waterfill",
]
