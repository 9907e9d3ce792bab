"""Simulation façade: configure, run, collect (paper §5.2 methodology).

:func:`run_simulation` executes a flow trace on one of the three stacks the
evaluation compares — ``r2c2``, ``tcp`` or ``pfq`` — and returns a
:class:`~repro.sim.metrics.SimMetrics` with the figures' quantities.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..broadcast.fib import BroadcastFib
from ..congestion.controller import ControllerConfig
from ..congestion.linkweights import WeightProvider
from ..errors import SimulationError
from ..routing.ecmp import EcmpSinglePath
from ..topology.base import Topology
from ..types import msec
from ..workloads.generator import FlowArrival
from .engine import EventLoop
from .flows import SimFlow
from .metrics import SimMetrics
from .network import FifoQueue, RackNetwork
from .packets import data_packet_size
from .probe import build_probe
from .stacks.pfq import BackpressureQueue, PfqCoordinator, PfqStack
from .stacks.r2c2 import PerNodeControlPlane, R2C2Stack
from .stacks.r2c2_reliable import R2C2ReliableStack
from .stacks.tcp import DEFAULT_TCP_QUEUE_LIMIT, TcpStack

#: Stacks selectable in :class:`SimConfig`.
STACKS = ("r2c2", "tcp", "pfq")

#: Simulated time between the run loop's termination checks and telemetry
#: link-probe samples (shared with the sharded engine's window grid).
_PROGRESS_CHUNK_NS = msec(1)
#: PFQ backpressure thresholds, in data packets of one MTU.
_PFQ_HIGH_PACKETS = 3
_PFQ_LOW_PACKETS = 1


@dataclass
class SimConfig:
    """Knobs of one simulation run.

    Defaults mirror the paper: 5 % headroom, 500 µs recomputation interval,
    random packet spraying for R2C2/PFQ, ECMP single path for TCP.
    """

    stack: str = "r2c2"
    mtu_payload: int = 1500
    #: The R2C2 control loop (§3.3.2): headroom, ρ and the young-flow
    #: policy.  Ignored by the tcp and pfq stacks.
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    n_broadcast_trees: int = 4
    #: Use the §6 reliability transport (numbered segments, SACKs,
    #: retransmission) for the R2C2 stack.
    reliable: bool = False
    #: Probability that a transmitted data/ACK packet is corrupted on the
    #: wire (fault injection; broadcasts are exempt).
    loss_rate: float = 0.0
    #: "shared" collapses the (provably identical) per-node controllers
    #: into one; "per_node" runs a controller per node, fed only by actual
    #: broadcast deliveries (full visibility-skew fidelity).
    control_plane: str = "shared"
    #: Optional finite queue limit for the R2C2 stack's ports.  ``None``
    #: (paper behaviour) measures unbounded queues; a finite limit enables
    #: the §3.2 broadcast drop-notification/retransmission path.
    queue_limit_bytes: Optional[int] = None
    #: Seeds every RNG of the run (path sampling, wire loss, tree choice).
    seed: int = 0
    horizon_ns: Optional[int] = None
    #: Attach a :class:`~repro.validation.InvariantAuditor` to the run.
    #: Off by default: the instrumented code then pays only a per-hook
    #: ``is not None`` branch.
    audit: bool = False
    #: With auditing on, raise :class:`~repro.errors.InvariantViolation`
    #: at the point of detection; otherwise collect violations into
    #: ``metrics.audit.violations``.
    audit_strict: bool = True
    #: Causal critical-path tracing (:mod:`repro.obs`): decompose every
    #: completed flow's FCT into its causal components
    #: (``metrics.flow_obs``).  Off by default — the instrumented hot
    #: paths then pay only an ``is not None`` branch.
    obs: bool = False
    #: Crash flight recorder (:mod:`repro.obs.flight`): keep bounded rings
    #: of recent structured events per subsystem.  On a crash the dump is
    #: attached to the exception as ``exc.repro_flight``; on success it
    #: lands in ``metrics.flight_dump``.
    flight: bool = False

    def __post_init__(self) -> None:
        if self.stack not in STACKS:
            raise SimulationError(f"unknown stack {self.stack!r}; choose from {STACKS}")
        if self.mtu_payload < 1:
            raise SimulationError("mtu_payload must be >= 1")
        if self.control_plane not in ("shared", "per_node"):
            raise SimulationError(
                f"control_plane must be 'shared' or 'per_node', got {self.control_plane!r}"
            )


def run_simulation(
    topology: Topology,
    trace: Sequence[FlowArrival],
    config: Optional[SimConfig] = None,
    provider: Optional[WeightProvider] = None,
    telemetry=None,
) -> SimMetrics:
    """Simulate *trace* on *topology* under *config*.

    The run ends when every flow has completed, or at ``config.horizon_ns``
    (default: a generous bound derived from the trace).

    Args:
        provider: Optional shared :class:`WeightProvider` so parameter
            sweeps reuse the (expensive) link-weight cache across runs.
        telemetry: Optional :class:`~repro.telemetry.Telemetry` session.
            When given, the run records metrics, trace events and link
            probes into it; telemetry never perturbs the simulation (probes
            are pulled from the progress loop, no events are scheduled), so
            results are identical with or without it.
    """
    config = config or SimConfig()
    if not trace:
        raise SimulationError("empty flow trace")
    for arrival in trace:
        if arrival.src == arrival.dst:
            raise SimulationError(f"flow {arrival.flow_id} has src == dst")

    loop = EventLoop()
    metrics = SimMetrics()
    flows: Dict[int, SimFlow] = {a.flow_id: SimFlow(a) for a in trace}
    if len(flows) != len(trace):
        raise SimulationError("duplicate flow ids in trace")

    probe = build_probe(config, telemetry, loop)
    probes = None
    started_wall = time.perf_counter()
    try:
        if config.stack == "r2c2":
            network, control = _build_r2c2(
                topology, loop, flows, metrics, config, provider, probe, telemetry
            )
        elif config.stack == "tcp":
            network = _build_tcp(topology, loop, flows, metrics, config, probe)
            control = None
        else:
            network = _build_pfq(topology, loop, flows, metrics, config, probe)
            control = None
        if telemetry is not None and telemetry.enabled:
            probes = telemetry.link_probes(network)

        for arrival in trace:
            loop.schedule_at(
                arrival.start_ns,
                network.stack_at[arrival.src].start_flow,
                flows[arrival.flow_id],
            )

        horizon = config.horizon_ns
        if horizon is None:
            horizon = _default_horizon(topology, trace)
        while loop.now < horizon:
            loop.run_batch(until_ns=min(loop.now + _PROGRESS_CHUNK_NS, horizon))
            # Pulled (not scheduled) so telemetry never perturbs the event
            # heap or the termination conditions below.
            if probes is not None:
                probes.maybe_sample(loop.now)
            if all(f.completed for f in flows.values()):
                break
            if loop.pending() == 0:
                break
    except Exception as exc:
        if probe is not None:
            probe.crash_dump(exc)
        raise

    metrics.flows = list(flows.values())
    metrics.max_queue_occupancy_bytes = network.max_queue_occupancies()
    metrics.total_bytes_on_wire = network.total_bytes_sent()
    metrics.data_bytes_on_wire = (
        metrics.total_bytes_on_wire - metrics.broadcast_bytes - metrics.ack_bytes
    )
    metrics.drops = network.total_drops()
    metrics.wire_losses = network.total_wire_losses()
    metrics.events_processed = loop.events_processed
    metrics.duration_ns = loop.now
    metrics.wallclock_s = time.perf_counter() - started_wall
    if control is not None:
        stats = control.recompute_stats()
        metrics.recompute_overheads = [s.cpu_overhead for s in stats]
        metrics.epochs_skipped = sum(1 for s in stats if s.skipped)
        metrics.epochs_recomputed = len(stats) - metrics.epochs_skipped
    if probe is not None:
        probe.collect(metrics, flows.values(), drained=(loop.pending() == 0))
    if probes is not None:
        probes.sample(loop.now)  # final sample, even for tiny runs
    if telemetry is not None and telemetry.metrics is not None:
        _finalize_telemetry(telemetry.metrics, metrics)
    return metrics


def _finalize_telemetry(registry, metrics: SimMetrics) -> None:
    """End-of-run rollups into the metrics registry.

    Wire-byte counters are recorded so a snapshot matches the
    :class:`SimMetrics` totals exactly (`wire.*` from the network's port
    statistics, `broadcast.wire_bytes` accumulated live at delivery); the
    per-port *maximum* queue occupancies become the Figure 7b/14 histogram.
    Shared with :mod:`repro.distsim`, which applies it once to the merged
    metrics so the combined snapshot finalizes exactly like a serial run's.
    """
    from ..telemetry import QUEUE_BUCKETS

    registry.counter("wire.total_bytes").inc(metrics.total_bytes_on_wire)
    registry.counter("wire.data_bytes").inc(metrics.data_bytes_on_wire)
    registry.counter("wire.ack_bytes").inc(metrics.ack_bytes)
    registry.counter("wire.drops").inc(metrics.drops)
    registry.counter("wire.losses").inc(metrics.wire_losses)
    registry.gauge("sim.events_processed").set(metrics.events_processed)
    registry.gauge("sim.duration_ns").set(metrics.duration_ns)
    registry.gauge("sim.flows_total").set(len(metrics.flows))
    registry.gauge("sim.flows_completed").set(len(metrics.completed_flows()))
    hist = registry.histogram("queue.max_occupancy_bytes", buckets=QUEUE_BUCKETS)
    for occupancy in metrics.max_queue_occupancy_bytes:
        hist.observe(occupancy)


def _default_horizon(topology: Topology, trace: Sequence[FlowArrival]) -> int:
    """A generous stop time: last arrival plus time to drain all bytes at a
    pessimistic tenth of one link's rate, plus a floor."""
    last_arrival = max(a.start_ns for a in trace)
    total_bits = sum(a.size_bytes for a in trace) * 8
    drain_ns = int(total_bits / (topology.capacity_bps / 10) * 1e9)
    return last_arrival + max(drain_ns, msec(50))


def _build_r2c2(
    topology,
    loop,
    flows,
    metrics,
    config,
    provider,
    probe=None,
    telemetry=None,
    owned_nodes=None,
    boundary=None,
):
    """Wire up the R2C2 stack; ``owned_nodes``/``boundary`` restrict the
    build to one shard's slice of the fabric (see :mod:`repro.distsim`)."""
    from ..routing.weights import deterministic_minimal_path
    from .packets import DROP_NOTE_SIZE_BYTES, KIND_BROADCAST, KIND_DROP_NOTE, SimPacket

    seed = config.seed
    fib = BroadcastFib(topology, n_trees=config.n_broadcast_trees, seed=seed)

    def on_drop(node, packet):
        # §3.2: a node that drops a broadcast (queue overflow) notifies the
        # source so it can retransmit on another tree.  Best effort: the
        # notification itself may be dropped too.
        if packet.kind != KIND_BROADCAST or node == packet.src:
            return
        path = deterministic_minimal_path(topology, node, packet.src)
        note = SimPacket(
            kind=KIND_DROP_NOTE,
            flow_id=packet.flow_id,
            src=node,
            dst=packet.src,
            seq=packet.seq,
            size_bytes=DROP_NOTE_SIZE_BYTES,
            path=tuple(path),
            sent_ns=loop.now,
        )
        network.inject(node, note)

    network = RackNetwork(
        loop,
        topology,
        fib=fib,
        queue_factory=(
            (lambda: FifoQueue(limit_bytes=config.queue_limit_bytes))
            if config.queue_limit_bytes is not None
            else FifoQueue
        ),
        on_drop=on_drop,
        loss_rate=config.loss_rate,
        loss_seed=seed,
        owned_nodes=owned_nodes,
        boundary=boundary,
        probe=probe,
    )
    provider = provider if provider is not None else WeightProvider(topology)
    control = PerNodeControlPlane(
        loop,
        network,
        topology,
        provider,
        config.controller,
        telemetry=telemetry,
        nodes=owned_nodes,
        probe=probe,
        shared=config.control_plane == "shared",
    )
    stack = R2C2ReliableStack if config.reliable else R2C2Stack
    nodes = topology.nodes() if owned_nodes is None else sorted(owned_nodes)
    for node in nodes:
        network.stack_at[node] = stack(
            node, loop, network, control, flows, mtu_payload=config.mtu_payload,
            seed=seed, metrics=metrics, probe=probe,
        )
    control.start_epochs()
    return network, control


def _build_tcp(
    topology, loop, flows, metrics, config, probe=None, owned_nodes=None, boundary=None
):
    network = RackNetwork(
        loop,
        topology,
        queue_factory=lambda: FifoQueue(limit_bytes=DEFAULT_TCP_QUEUE_LIMIT),
        loss_rate=config.loss_rate,
        loss_seed=config.seed,
        owned_nodes=owned_nodes,
        boundary=boundary,
        probe=probe,
    )
    ecmp = EcmpSinglePath(topology)
    nodes = topology.nodes() if owned_nodes is None else sorted(owned_nodes)
    for node in nodes:
        network.stack_at[node] = TcpStack(
            node,
            loop,
            network,
            flows,
            ecmp,
            mtu_payload=config.mtu_payload,
            metrics=metrics,
            probe=probe,
        )
    return network


def _build_pfq(topology, loop, flows, metrics, config, probe=None):
    coordinator = PfqCoordinator()
    packet_bytes = data_packet_size(config.mtu_payload)
    high = _PFQ_HIGH_PACKETS * packet_bytes
    low = _PFQ_LOW_PACKETS * packet_bytes
    network = RackNetwork(
        loop,
        topology,
        queue_factory=lambda: BackpressureQueue(coordinator, high, low),
        probe=probe,
    )
    from ..routing.base import make_protocol

    protocol = make_protocol("rps", topology)
    for node in topology.nodes():
        network.stack_at[node] = PfqStack(
            node,
            loop,
            network,
            coordinator,
            flows,
            protocol,
            mtu_payload=config.mtu_payload,
            seed=config.seed,
            metrics=metrics,
            probe=probe,
        )
    return network
