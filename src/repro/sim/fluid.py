"""Flow-level (fluid) simulation: rates instead of packets.

Used where the paper's experiments are about *rate dynamics* rather than
queueing — the recomputation-interval accuracy study (Figures 15 and 16)
compares the average rate each flow receives under a periodic recomputation
interval ρ against the ideal ρ=0 case (recompute at every flow event).

Between rate changes every flow drains linearly at its allocated rate, so
the simulation advances from event to event (arrival, departure, epoch)
analytically.  Rates come from the packet simulator's own control loop, a
:class:`~repro.congestion.controller.RateController`: under batching
(ρ > 0) a new flow transmits at the initial rate until the first epoch
boundary that includes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..congestion.controller import ControllerConfig, RateController
from ..congestion.linkweights import WeightProvider
from ..core.node import flow_spec
from ..errors import SimulationError
from ..topology.base import Topology
from ..types import FlowId
from ..workloads.generator import FlowArrival


@dataclass
class FluidFlowResult:
    """Outcome of one flow in a fluid run."""

    flow_id: FlowId
    size_bytes: int
    start_ns: int
    finish_ns: int

    @property
    def fct_ns(self) -> int:
        return self.finish_ns - self.start_ns

    @property
    def average_rate_bps(self) -> float:
        """size / FCT — the quantity Figures 15/16 compare across ρ."""
        if self.fct_ns <= 0:
            return float("inf")
        return self.size_bytes * 8 * 1e9 / self.fct_ns


class _ActiveFlow:
    __slots__ = ("start_ns", "remaining_bits", "rate_bps")

    def __init__(self, start_ns: int, size_bytes: int) -> None:
        self.start_ns = start_ns
        self.remaining_bits = size_bytes * 8.0
        self.rate_bps = 0.0


class FluidSimulator:
    """Event-to-event fluid execution of a flow trace."""

    def __init__(
        self,
        topology: Topology,
        provider: Optional[WeightProvider] = None,
        config: Optional[ControllerConfig] = None,
    ) -> None:
        self._topology = topology
        self._provider = provider if provider is not None else WeightProvider(topology)
        self._config = config or ControllerConfig()

    @property
    def provider(self) -> WeightProvider:
        """The shared link-weight cache (reusable across runs)."""
        return self._provider

    def run(self, trace: Sequence[FlowArrival]) -> Dict[FlowId, FluidFlowResult]:
        """Simulate until every flow in *trace* completes."""
        if not trace:
            return {}
        rho = self._config.recompute_interval_ns
        # One rack-wide controller: it sees every start and finish the
        # moment it happens and rate-limits every flow.
        controller = RateController(
            self._topology, 0, provider=self._provider, config=self._config
        )
        rate_for = controller.rate_for
        arrivals = sorted(trace, key=lambda a: (a.start_ns, a.flow_id))
        arrival_by_id = {a.flow_id: a for a in arrivals}
        next_arrival = 0
        active: Dict[FlowId, _ActiveFlow] = {}
        results: Dict[FlowId, FluidFlowResult] = {}
        now = float(arrivals[0].start_ns)
        next_epoch = (math.floor(now / rho) + 1) * rho if rho > 0 else math.inf

        while next_arrival < len(arrivals) or active:
            # Next departure under current rates.
            dep_time = math.inf
            dep_flow: Optional[FlowId] = None
            for fid, flow in active.items():
                if flow.rate_bps > 0:
                    t = now + flow.remaining_bits / flow.rate_bps * 1e9
                    if t < dep_time:
                        dep_time = t
                        dep_flow = fid
            arr_time = (
                float(arrivals[next_arrival].start_ns)
                if next_arrival < len(arrivals)
                else math.inf
            )
            t_next = min(dep_time, arr_time, next_epoch)
            if math.isinf(t_next):
                raise SimulationError(
                    "fluid simulation stalled: active flows with zero rate "
                    "and no upcoming events"
                )

            # Drain all flows to t_next.
            dt = t_next - now
            if dt > 0:
                for flow in active.values():
                    flow.remaining_bits -= flow.rate_bps * dt / 1e9
            now = t_next

            if t_next == next_epoch:
                next_epoch += rho
                if active:
                    controller.recompute(int(now))
            elif t_next == arr_time:
                arrival = arrivals[next_arrival]
                next_arrival += 1
                active[arrival.flow_id] = _ActiveFlow(int(now), arrival.size_bytes)
                controller.on_flow_started(flow_spec(arrival, int(now)), int(now))
            else:
                # Departure (numerical slack: anything within one bit counts).
                assert dep_flow is not None
                flow = active.pop(dep_flow)
                results[dep_flow] = FluidFlowResult(
                    flow_id=dep_flow,
                    size_bytes=arrival_by_id[dep_flow].size_bytes,
                    start_ns=flow.start_ns,
                    finish_ns=int(now),
                )
                controller.on_flow_finished(dep_flow, int(now))
            for fid, flow in active.items():
                flow.rate_bps = rate_for(fid)

        return results


def average_rate_error(
    topology: Topology,
    trace: Sequence[FlowArrival],
    rho_ns: int,
    headroom: float = 0.05,
    provider: Optional[WeightProvider] = None,
) -> List[float]:
    """Per-flow normalized |rate(ρ) − rate(0)| / rate(0) (Figures 15/16)."""
    provider = provider if provider is not None else WeightProvider(topology)
    ideal = FluidSimulator(
        topology, provider, ControllerConfig(headroom=headroom, recompute_interval_ns=0)
    ).run(trace)
    actual = FluidSimulator(
        topology,
        provider,
        ControllerConfig(headroom=headroom, recompute_interval_ns=rho_ns),
    ).run(trace)
    errors = []
    for flow_id, ideal_result in ideal.items():
        ideal_rate = ideal_result.average_rate_bps
        actual_rate = actual[flow_id].average_rate_bps
        if ideal_rate > 0 and math.isfinite(ideal_rate):
            errors.append(abs(actual_rate - ideal_rate) / ideal_rate)
    return errors
