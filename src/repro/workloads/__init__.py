"""Workload generation: traffic patterns, sizes, arrivals, flow traces."""

from .arrivals import ArrivalProcess, BurstArrivals, DeterministicArrivals, PoissonArrivals
from .generator import (
    FlowArrival,
    permutation_load_trace,
    poisson_trace,
    trace_from_matrix,
    uniform_random_pair,
)
from .patterns import (
    COMPOSED_PATTERNS,
    STANDARD_PATTERNS,
    BitComplementPattern,
    BitReversePattern,
    NearestNeighborPattern,
    PermutationPattern,
    RackShiftPattern,
    TornadoPattern,
    TrafficMatrix,
    TrafficPattern,
    TransposePattern,
    UniformPattern,
)
from .sizes import EmpiricalSizes, FixedSize, FlowSizeDistribution, ParetoSizes
from .worstcase import (
    channel_pair_loads,
    worst_case_permutation,
    worst_case_throughput,
)

__all__ = [
    "ArrivalProcess",
    "BitComplementPattern",
    "BitReversePattern",
    "BurstArrivals",
    "COMPOSED_PATTERNS",
    "DeterministicArrivals",
    "EmpiricalSizes",
    "FixedSize",
    "FlowArrival",
    "FlowSizeDistribution",
    "NearestNeighborPattern",
    "ParetoSizes",
    "PermutationPattern",
    "PoissonArrivals",
    "RackShiftPattern",
    "STANDARD_PATTERNS",
    "TornadoPattern",
    "TrafficMatrix",
    "TrafficPattern",
    "TransposePattern",
    "UniformPattern",
    "channel_pair_loads",
    "permutation_load_trace",
    "poisson_trace",
    "trace_from_matrix",
    "uniform_random_pair",
    "worst_case_permutation",
    "worst_case_throughput",
]
