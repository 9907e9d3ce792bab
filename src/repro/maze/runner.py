"""Run flow traces on the Maze emulation platform (Figure 7's left column).

Returns the same :class:`~repro.sim.metrics.SimMetrics` the packet
simulator produces, so the cross-validation can compare them directly.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..broadcast.fib import BroadcastFib
from ..congestion.controller import ControllerConfig, RateController
from ..congestion.linkweights import WeightProvider
from ..errors import EmulationError
from ..sim.flows import SimFlow
from ..sim.metrics import SimMetrics
from ..sim.runner import _default_horizon
from ..topology.base import Topology
from ..types import usec
from ..workloads.generator import FlowArrival
from .platform import MazePlatform
from .stack import MazeR2C2Stack


#: Maze's deployment (§4.1): a 1 µs emulation step, 8 KB packets, the
#: broadcast FIB's default four trees per source, and the paper's control
#: loop with the cheap young-flow estimate.
_STEP_NS = 1000
_MTU_PAYLOAD = 8192
_CONTROLLER_CONFIG = ControllerConfig(
    headroom=0.05,
    recompute_interval_ns=usec(500),
    initial_rate_policy="mean_allocated",
)


def run_emulation(
    topology: Topology,
    trace: Sequence[FlowArrival],
    seed: int = 0,
    provider: Optional[WeightProvider] = None,
) -> SimMetrics:
    """Emulate *trace* on the Maze platform with the R2C2 stack.

    The Figure 7 cross-validation compares the returned metrics with the
    packet simulator's; telemetry is recorded by the simulator only.

    Args:
        seed: Seeds the broadcast trees and every stack's path sampling.
    """
    if not trace:
        raise EmulationError("empty flow trace")
    for arrival in trace:
        if arrival.src == arrival.dst:
            raise EmulationError(f"flow {arrival.flow_id} has src == dst")

    metrics = SimMetrics()
    flows: Dict[int, SimFlow] = {a.flow_id: SimFlow(a) for a in trace}
    fib = BroadcastFib(topology, seed=seed)
    platform = MazePlatform(
        topology, fib=fib, step_ns=_STEP_NS, slot_bytes=_MTU_PAYLOAD + 64
    )
    provider = provider if provider is not None else WeightProvider(topology)
    controller = RateController(
        topology, node=0, provider=provider, config=_CONTROLLER_CONFIG
    )
    stacks: List[MazeR2C2Stack] = [
        MazeR2C2Stack(
            node,
            platform,
            controller,
            fib,
            flows,
            mtu_payload=_MTU_PAYLOAD,
            seed=seed,
            metrics=metrics,
        )
        for node in topology.nodes()
    ]

    pending = sorted(trace, key=lambda a: (a.start_ns, a.flow_id))
    cursor = {"next": 0}

    def step_hook(now_ns: int) -> None:
        # Start flows whose arrival time has come.
        i = cursor["next"]
        while i < len(pending) and pending[i].start_ns <= now_ns:
            arrival = pending[i]
            stacks[arrival.src].start_flow(flows[arrival.flow_id], now_ns)
            i += 1
        cursor["next"] = i
        # Periodic recomputation plus token-bucket refresh.
        if controller.maybe_recompute(now_ns) is not None:
            for stack in stacks:
                stack.refresh_rates(now_ns)
        # Data-plane emission.
        for stack in stacks:
            stack.set_time_hint(now_ns)
            stack.pump(now_ns)

    platform.add_step_hook(step_hook)

    started_wall = time.perf_counter()
    platform.run_until(
        lambda: all(f.completed for f in flows.values()),
        max_ns=_default_horizon(topology, trace),
    )

    metrics.flows = list(flows.values())
    metrics.max_queue_occupancy_bytes = platform.max_queue_occupancies()
    metrics.total_bytes_on_wire = platform.total_bytes_transferred
    metrics.data_bytes_on_wire = metrics.total_bytes_on_wire - metrics.broadcast_bytes
    metrics.duration_ns = platform.now_ns
    metrics.events_processed = platform.now_ns // platform.step_ns
    metrics.wallclock_s = time.perf_counter() - started_wall
    metrics.recompute_overheads = [s.cpu_overhead for s in controller.stats]
    metrics.epochs_skipped = sum(1 for s in controller.stats if s.skipped)
    metrics.epochs_recomputed = len(controller.stats) - metrics.epochs_skipped
    return metrics
