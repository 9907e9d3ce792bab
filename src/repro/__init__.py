"""R2C2: a network stack for rack-scale computers — full reproduction.

Reproduces Costa, Ballani, Razavi and Kash, *R2C2: A Network Stack for
Rack-scale Computers*, SIGCOMM 2015.  See DESIGN.md for the system inventory
and EXPERIMENTS.md for paper-vs-measured results.

The public API re-exports the main entry points of each subsystem; see the
subpackage docstrings for details:

* :mod:`repro.topology` — direct-connect rack fabrics.
* :mod:`repro.routing` — per-flow routing protocols.
* :mod:`repro.broadcast` — the flow-event broadcast substrate.
* :mod:`repro.congestion` — rate-based congestion control.
* :mod:`repro.selection` — routing-protocol selection heuristics.
* :mod:`repro.wire` — packet formats.
* :mod:`repro.sim` — the packet-level simulator.
* :mod:`repro.maze` — the rack-emulation platform.
* :mod:`repro.workloads` — traffic patterns and flow generators.
* :mod:`repro.analysis` — throughput analysis and statistics.
* :mod:`repro.telemetry` — metrics, event tracing and link probes.
* :mod:`repro.core` — the assembled R2C2 stack.
"""

__version__ = "1.0.0"

from .errors import (
    BroadcastError,
    CongestionControlError,
    EmulationError,
    ExperimentError,
    ReproError,
    RoutingError,
    SelectionError,
    ServiceError,
    SimulationError,
    TopologyError,
    WireFormatError,
)

__all__ = [
    "BroadcastError",
    "CongestionControlError",
    "EmulationError",
    "ExperimentError",
    "ReproError",
    "RoutingError",
    "SelectionError",
    "ServiceError",
    "SimulationError",
    "TopologyError",
    "WireFormatError",
    "__version__",
]
