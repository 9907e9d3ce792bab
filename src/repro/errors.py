"""Exception hierarchy for the R2C2 reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TopologyError(ReproError):
    """Raised for malformed or unsupported topologies.

    Examples include a torus with a dimension smaller than two nodes, a
    request for a link that does not exist, or a node id outside the
    topology's node range.
    """


class RoutingError(ReproError):
    """Raised when a routing protocol cannot produce a path.

    This typically means the source or destination is invalid, the pair is
    disconnected after failures, or a protocol was asked to route on a
    topology it does not support (e.g. dimension-order routing on a graph
    without coordinates).
    """


class CongestionControlError(ReproError):
    """Raised for invalid congestion-control inputs.

    Examples: negative flow weights, a headroom outside ``[0, 1)``, or a flow
    referencing links that are not part of the topology.
    """


class BroadcastError(ReproError):
    """Raised for broadcast-plane failures (unknown tree id, bad FIB)."""


class WireFormatError(ReproError):
    """Raised when encoding or decoding a packet fails.

    Encoding fails for values that do not fit the field widths of the R2C2
    packet formats (e.g. a route longer than 42 hops); decoding fails for
    truncated buffers or checksum mismatches.
    """


class SimulationError(ReproError):
    """Raised for invalid simulator configuration or internal invariant
    violations detected at runtime (e.g. a packet routed to a non-neighbor).
    """


class InvariantViolation(SimulationError):
    """Raised by the runtime invariant auditor (:mod:`repro.validation`).

    Signals that a machine-checked invariant — packet/byte conservation,
    link capacity, FIFO event causality, monotone flow completion — was
    broken during a run.  Subclasses :class:`SimulationError` because every
    violation is, by definition, a simulator-internal inconsistency.
    """


class EmulationError(ReproError):
    """Raised by the Maze emulation platform for configuration errors or
    ring-buffer protocol violations.
    """


class SelectionError(ReproError):
    """Raised by routing-protocol selection heuristics for invalid search
    spaces (e.g. an empty candidate protocol set).
    """


class ExperimentError(ReproError):
    """Raised by the :mod:`repro.experiments` campaign runner.

    Covers malformed scenario/campaign specs, unknown figures or scales,
    and campaigns that exhaust their per-task retry budget in strict mode.
    """


class ServiceError(ReproError):
    """Raised by the :mod:`repro.service` control-plane daemon.

    Covers snapshot/topology mismatches on restore, malformed service
    configuration, and client RPC failures.
    """
