"""Differential oracles: cross-check independent implementations.

Four pairings, mirroring how the paper validates its own stack:

* :func:`waterfill_vs_lp_case` — the production water-filling allocator
  against the LP-based max-min reference (§3.3.1).  On single-path flows
  the two solve the *same* problem, so agreement must be numerically tight
  (1e-6 relative), which pins down the allocator's fixed-point arithmetic.
* :func:`sim_vs_fluid_case` — the packet-level simulator against the fluid
  simulator on long-flow workloads, where queueing effects are second-order
  and the two must agree on average per-flow rates (Figures 15/16 style:
  the report carries the maximum relative rate error).
* :func:`sim_vs_maze_case` — the packet simulator against the Maze
  emulation platform (Figure 7's cross-validation, randomized).
* :func:`sharded_vs_serial_case` — the sharded simulator
  (:mod:`repro.distsim`) against the serial engine.  Unlike the other
  oracles this one tolerates **zero** error: sharding is a scheduling
  choice, never a semantics choice, so the canonical metrics digest and
  the merged telemetry snapshot must be *byte-identical* (a case reports
  error 0.0 or 1.0, nothing in between).

Every case is generated from a single integer seed, so a failure names its
exact reproduction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..congestion.controller import ControllerConfig
from ..congestion.flowstate import FlowSpec
from ..congestion.linkweights import WeightProvider
from ..congestion.mp_reference import PathFlow, maxmin_rates
from ..congestion.waterfill import waterfill
from ..errors import SimulationError
from ..sim.fluid import FluidSimulator
from ..sim.runner import SimConfig, run_simulation
from ..topology.base import GraphTopology, Topology
from ..types import FlowId, gbps, usec
from ..workloads.generator import FlowArrival

#: Smallest rate treated as nonzero when forming relative errors.
_RATE_FLOOR = 1e-12


@dataclass
class DifferentialCase:
    """One randomized cross-check."""

    seed: int
    description: str
    n_flows: int
    max_rel_error: float
    per_flow_rel_error: Dict[FlowId, float] = field(default_factory=dict)
    #: churn cases: share of ops the incremental patch served (not scratch)
    patch_share: Optional[float] = None


@dataclass
class DifferentialReport:
    """Aggregate of many :class:`DifferentialCase` runs against a bound."""

    name: str
    tolerance: float
    cases: List[DifferentialCase] = field(default_factory=list)

    @property
    def n_cases(self) -> int:
        """Number of randomized cases executed."""
        return len(self.cases)

    @property
    def max_rel_error(self) -> float:
        """Worst relative rate error over all cases (the Fig. 15/16 metric)."""
        return max((c.max_rel_error for c in self.cases), default=0.0)

    @property
    def ok(self) -> bool:
        """True when every case stayed within the tolerance."""
        return self.max_rel_error <= self.tolerance

    def worst(self) -> Optional[DifferentialCase]:
        """The case with the largest error (for failure messages)."""
        if not self.cases:
            return None
        return max(self.cases, key=lambda c: c.max_rel_error)

    def summary(self) -> str:
        """One-line human summary."""
        worst = self.worst()
        detail = f", worst seed {worst.seed}" if worst is not None else ""
        shares = [c.patch_share for c in self.cases if c.patch_share is not None]
        if shares:
            detail += f", min patch share {min(shares):.3f}"
        return (
            f"{self.name}: {self.n_cases} cases, max rel error "
            f"{self.max_rel_error:.3g} (tolerance {self.tolerance:.3g}{detail})"
        )


# ----------------------------------------------------------------------
# Randomized inputs
# ----------------------------------------------------------------------
#: Extra edges :func:`random_connected_topology` tries to add to its tree.
_EXTRA_EDGES = 6


def random_connected_topology(
    seed: int,
    n_nodes: int = 8,
) -> GraphTopology:
    """A random connected undirected fabric: a spanning tree plus up to
    six extra edges, unit capacity, 100 ns links."""
    if n_nodes < 2:
        raise SimulationError("need at least two nodes")
    rng = random.Random(seed ^ 0x70B0)
    order = list(range(n_nodes))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n_nodes):
        a, b = order[rng.randrange(i)], order[i]
        edges.add((min(a, b), max(a, b)))
    attempts = 0
    while len(edges) < n_nodes - 1 + _EXTRA_EDGES and attempts < 10 * _EXTRA_EDGES:
        attempts += 1
        a, b = rng.sample(range(n_nodes), 2)
        edges.add((min(a, b), max(a, b)))
    return GraphTopology(
        n_nodes,
        sorted(edges),
        capacity_bps=1.0,
        latency_ns=100,
        name=f"random({n_nodes}n,seed={seed})",
    )


def random_single_path_specs(
    seed: int, topology: Topology, n_flows: int = 6
) -> List[FlowSpec]:
    """Random network-limited single-path ("ecmp") flows for the LP oracle."""
    rng = random.Random(seed ^ 0xF10)
    specs = []
    for flow_id in range(n_flows):
        src, dst = rng.sample(range(topology.n_nodes), 2)
        specs.append(FlowSpec(flow_id=flow_id, src=src, dst=dst, protocol="ecmp"))
    return specs


# ----------------------------------------------------------------------
# Waterfill vs LP reference
# ----------------------------------------------------------------------
def waterfill_vs_lp_case(
    topology: Topology,
    specs: List[FlowSpec],
    provider: Optional[WeightProvider] = None,
    seed: int = 0,
) -> DifferentialCase:
    """Cross-check the water-fill against LP max-min on one flow set.

    The flows must be single-path (``ecmp``): with the split fixed to one
    path per flow, R2C2's restricted allocation and the unrestricted optimum
    coincide, so any disagreement is an allocator bug, not a modelling gap.
    """
    provider = provider if provider is not None else WeightProvider(topology)
    allocation = waterfill(topology, specs, provider, headroom=0.0)
    ecmp = provider.protocol("ecmp")
    path_flows = [
        PathFlow(s.flow_id, [ecmp.flow_path(s.src, s.dst, s.flow_id)]) for s in specs
    ]
    reference = maxmin_rates(topology, path_flows)
    per_flow = {}
    for spec in specs:
        lp_rate = reference[spec.flow_id]
        wf_rate = allocation.rates_bps[spec.flow_id]
        per_flow[spec.flow_id] = abs(wf_rate - lp_rate) / max(lp_rate, _RATE_FLOOR)
    return DifferentialCase(
        seed=seed,
        description=f"waterfill-vs-lp on {topology.name} with {len(specs)} flows",
        n_flows=len(specs),
        max_rel_error=max(per_flow.values(), default=0.0),
        per_flow_rel_error=per_flow,
    )


def waterfill_vs_lp_report(
    n_cases: int = 20,
    seed: int = 0,
    tolerance: float = 1e-6,
    n_nodes: int = 8,
    n_flows: int = 6,
) -> DifferentialReport:
    """Randomized sweep of :func:`waterfill_vs_lp_case`."""
    report = DifferentialReport(name="waterfill-vs-lp", tolerance=tolerance)
    for i in range(n_cases):
        case_seed = seed * 1000 + i
        topology = random_connected_topology(case_seed, n_nodes=n_nodes)
        specs = random_single_path_specs(case_seed, topology, n_flows=n_flows)
        report.cases.append(
            waterfill_vs_lp_case(topology, specs, seed=case_seed)
        )
    return report


# ----------------------------------------------------------------------
# Packet simulator vs fluid simulator
# ----------------------------------------------------------------------
def _long_flow_trace(
    seed: int,
    topology: Topology,
    n_flows: int,
    size_bytes: int,
    protocol: str = "ecmp",
) -> List[FlowArrival]:
    """Equal-size long flows with distinct starts inside the first epoch."""
    rng = random.Random(seed ^ 0x51F)
    starts = sorted(rng.sample(range(0, usec(100), 100), n_flows))
    trace = []
    for flow_id, start_ns in enumerate(starts):
        src, dst = rng.sample(range(topology.n_nodes), 2)
        trace.append(
            FlowArrival(
                flow_id=flow_id,
                src=src,
                dst=dst,
                size_bytes=size_bytes,
                start_ns=start_ns,
                protocol=protocol,
            )
        )
    return trace


def sim_vs_fluid_case(
    seed: int,
    n_flows: int = 5,
    size_bytes: int = 2_000_000,
    headroom: float = 0.05,
    mtu_payload: int = 8192,
) -> DifferentialCase:
    """Packet simulator vs fluid simulator on one long-flow workload.

    The flows are single-path (``ecmp``): the fluid model happily allocates
    a multipath flow more than one link's line rate, a rate the packet data
    plane can only approach (per-port serialization plus spraying
    burstiness), so rps workloads would compare modelling regimes rather
    than implementations.  On single paths the residual gap is header
    overhead (35 bytes per MTU) plus the per-hop store-and-forward
    pipeline, both second-order for long flows.
    """
    from ..topology.torus import TorusTopology

    rng = random.Random(seed ^ 0xD1FF)
    dims = rng.choice([(3, 3), (4, 4), (2, 4), (3, 4)])
    topology = TorusTopology(dims, capacity_bps=gbps(10))
    trace = _long_flow_trace(seed, topology, n_flows, size_bytes)

    provider = WeightProvider(topology)
    controller = ControllerConfig(headroom=headroom)
    sim = run_simulation(
        topology,
        trace,
        SimConfig(
            stack="r2c2", mtu_payload=mtu_payload, controller=controller, seed=seed
        ),
        provider=provider,
    )
    fluid = FluidSimulator(topology, provider, controller).run(trace)

    per_flow = {}
    for flow in sim.completed_flows():
        fluid_rate = fluid[flow.flow_id].average_rate_bps
        sim_rate = flow.average_throughput_bps()
        per_flow[flow.flow_id] = abs(sim_rate - fluid_rate) / max(
            fluid_rate, _RATE_FLOOR
        )
    if len(per_flow) != len(trace):
        missing = sorted(set(f.flow_id for f in sim.flows) - set(per_flow))
        raise SimulationError(
            f"sim-vs-fluid case seed={seed}: flows {missing} never completed"
        )
    return DifferentialCase(
        seed=seed,
        description=f"sim-vs-fluid on torus{dims} with {n_flows} flows",
        n_flows=n_flows,
        max_rel_error=max(per_flow.values(), default=0.0),
        per_flow_rel_error=per_flow,
    )


def sim_vs_fluid_report(
    n_cases: int = 20,
    seed: int = 0,
    tolerance: float = 0.05,
    n_flows: int = 5,
    size_bytes: int = 2_000_000,
) -> DifferentialReport:
    """Randomized sweep of :func:`sim_vs_fluid_case`."""
    report = DifferentialReport(name="sim-vs-fluid", tolerance=tolerance)
    for i in range(n_cases):
        report.cases.append(
            sim_vs_fluid_case(
                seed * 1000 + i, n_flows=n_flows, size_bytes=size_bytes
            )
        )
    return report


# ----------------------------------------------------------------------
# Packet simulator vs Maze emulation
# ----------------------------------------------------------------------
def sim_vs_maze_case(
    seed: int,
    n_flows: int = 12,
    size_bytes: int = 500_000,
    dims: Tuple[int, int] = (3, 3),
) -> DifferentialCase:
    """Packet simulator vs the Maze emulation on one randomized workload.

    The comparison is coarser than the fluid one (the emulator quantizes
    time into steps and ships 8 KB slots), so the oracle reports the
    relative error of the *mean* per-flow rate, Figure 7 style.
    """
    from ..maze.runner import run_emulation
    from ..topology.torus import TorusTopology
    from ..workloads.generator import poisson_trace
    from ..workloads.sizes import FixedSize

    topology = TorusTopology(dims, capacity_bps=gbps(5))
    trace = poisson_trace(
        topology,
        n_flows,
        150_000,
        sizes=FixedSize(size_bytes),
        seed=seed,
    )
    maze = run_emulation(topology, trace, seed=seed)
    sim = run_simulation(
        topology, trace, SimConfig(stack="r2c2", mtu_payload=8192, seed=seed)
    )
    maze_rates = {f.flow_id: f.average_throughput_bps() for f in maze.completed_flows()}
    sim_rates = {f.flow_id: f.average_throughput_bps() for f in sim.completed_flows()}
    shared = sorted(set(maze_rates) & set(sim_rates))
    if not shared:
        raise SimulationError(f"sim-vs-maze case seed={seed}: no completed flows")
    mean_maze = sum(maze_rates[i] for i in shared) / len(shared)
    mean_sim = sum(sim_rates[i] for i in shared) / len(shared)
    error = abs(mean_sim - mean_maze) / max(mean_maze, _RATE_FLOOR)
    return DifferentialCase(
        seed=seed,
        description=f"sim-vs-maze on torus{dims} with {n_flows} flows",
        n_flows=len(shared),
        max_rel_error=error,
        per_flow_rel_error={
            i: abs(sim_rates[i] - maze_rates[i]) / max(maze_rates[i], _RATE_FLOOR)
            for i in shared
        },
    )


def sim_vs_maze_report(
    n_cases: int = 10,
    seed: int = 0,
    tolerance: float = 0.35,
    n_flows: int = 12,
    size_bytes: int = 500_000,
) -> DifferentialReport:
    """Randomized sweep of :func:`sim_vs_maze_case`.

    The default tolerance is loose by design: the emulator quantizes time
    into steps and moves 8 KB slots, so per-run mean rates land within tens
    of percent of the simulator's, not within it (observed max ≈ 0.22 over
    the first ten seeds).
    """
    report = DifferentialReport(name="sim-vs-maze", tolerance=tolerance)
    for i in range(n_cases):
        report.cases.append(
            sim_vs_maze_case(
                seed * 1000 + i, n_flows=n_flows, size_bytes=size_bytes
            )
        )
    return report


# ----------------------------------------------------------------------
# Sharded simulator vs serial engine (exact equality)
# ----------------------------------------------------------------------
def _random_sharded_workload(seed: int, n_flows: int):
    """A randomized (topology, trace, config) triple that supports sharding."""
    from ..topology.clos import FoldedClosTopology
    from ..topology.torus import TorusTopology
    from ..workloads.generator import poisson_trace
    from ..workloads.sizes import ParetoSizes

    rng = random.Random(seed ^ 0x5A4D)
    sizes = ParetoSizes(mean_bytes=rng.choice([20_000, 50_000]))
    if rng.random() < 0.5:
        topology = TorusTopology(rng.choice([(4, 4), (3, 4), (2, 4)]))
        trace = poisson_trace(
            topology,
            n_flows,
            mean_interarrival_ns=10_000,
            sizes=sizes,
            seed=seed,
        )
    else:
        topology = FoldedClosTopology(n_hosts=16, radix=8)
        # Host-to-host traffic only: switches neither send nor receive.
        trace = []
        start_ns = 0
        for flow_id in range(n_flows):
            src = rng.randrange(topology.n_hosts)
            dst = rng.randrange(topology.n_hosts - 1)
            if dst >= src:
                dst += 1
            trace.append(
                FlowArrival(
                    flow_id=flow_id,
                    src=src,
                    dst=dst,
                    size_bytes=sizes.sample(rng),
                    start_ns=start_ns,
                )
            )
            start_ns += rng.randrange(1, 20_000)
    # Wire loss and auditing are simulation semantics, not execution policy,
    # so the oracle space covers them: per-port loss RNG streams and merged
    # per-shard audit reports must reproduce the serial run exactly.  Lossy
    # r2c2 uses the reliable transport so flows still complete (the plain
    # stack has no retransmission and would run to the horizon).
    loss_rate = rng.choice([0.0, 0.0, 0.01])
    audit = rng.random() < 0.5
    if rng.random() < 0.5:
        config = SimConfig(
            stack="r2c2",
            control_plane="per_node",
            seed=seed,
            loss_rate=loss_rate,
            reliable=loss_rate > 0,
            audit=audit,
        )
    else:
        config = SimConfig(stack="tcp", seed=seed, loss_rate=loss_rate, audit=audit)
    return topology, trace, config


def sharded_vs_serial_case(
    seed: int,
    shards: int = 2,
    n_flows: int = 30,
) -> DifferentialCase:
    """One exact-equality check of the sharded engine against the serial one.

    Runs the same randomized workload through :func:`repro.sim.runner.
    run_simulation` and :func:`repro.distsim.run_sharded_simulation` (both
    with metrics-only telemetry) and compares the canonical metrics digest
    *and* the merged telemetry snapshot for equality.  ``max_rel_error`` is
    0.0 on agreement and 1.0 on any difference; ``per_flow_rel_error``
    pinpoints the differing flows (the telemetry comparison, if it is the
    one that differs, appears under flow id -1).
    """
    from ..distsim import (
        canonical_flow,
        canonical_metrics,
        comparable_snapshot,
        run_sharded_simulation,
    )
    from ..telemetry import Telemetry, TelemetryConfig

    topology, trace, config = _random_sharded_workload(seed, n_flows)
    telemetry = Telemetry(TelemetryConfig(metrics=True, trace=False))
    serial = run_simulation(topology, trace, config, telemetry=telemetry)
    sharded = run_sharded_simulation(
        topology,
        trace,
        config,
        shards=shards,
        telemetry_config=TelemetryConfig(metrics=True, trace=False),
    )

    per_flow: Dict[FlowId, float] = {}
    for serial_flow, sharded_flow in zip(serial.flows, sharded.metrics.flows):
        if canonical_flow(serial_flow) != canonical_flow(sharded_flow):
            per_flow[serial_flow.flow_id] = 1.0
    if comparable_snapshot(telemetry.metrics.snapshot()) != comparable_snapshot(
        sharded.telemetry_snapshot
    ):
        per_flow[-1] = 1.0
    equal = (
        not per_flow
        and canonical_metrics(serial) == canonical_metrics(sharded.metrics)
    )
    return DifferentialCase(
        seed=seed,
        description=(
            f"sharded-vs-serial on {topology.name} ({config.stack}, "
            f"K={shards})"
        ),
        n_flows=len(trace),
        max_rel_error=0.0 if equal else 1.0,
        per_flow_rel_error=per_flow,
    )


def sharded_vs_serial_report(
    n_cases: int = 6,
    seed: int = 0,
    shards: Tuple[int, ...] = (2, 4),
    n_flows: int = 30,
) -> DifferentialReport:
    """Randomized sweep of :func:`sharded_vs_serial_case` (tolerance 0)."""
    report = DifferentialReport(name="sharded-vs-serial", tolerance=0.0)
    for i in range(n_cases):
        for k in shards:
            report.cases.append(
                sharded_vs_serial_case(seed * 1000 + i, shards=k, n_flows=n_flows)
            )
    return report
