"""Scenario generation: one derived seed -> one valid experiment Scenario.

The fuzzer explores the cross product of topology (torus / mesh / folded
Clos, sizes, link latency and capacity), workload (poisson or host-pair
traffic, flow counts, size distributions), failure storms, stack (R2C2
shared / per-node control plane, reliable transport, TCP) and engine
parameters (wire loss, drop-tail queue limits, horizon, MTU).  A
*genome* — a plain dict with one entry per axis, every axis always
present — names one point of that space; :func:`assemble` turns a genome
into a :class:`repro.experiments.Scenario` and is the single place where
cross-axis validity rules live (Clos fabrics only carry host-pair
workloads, lossy R2C2 runs the reliable transport, storms only hit
fabrics that can absorb them).  Generation and mutation both go through
it, so **every scenario the fuzzer ever builds is valid by
construction** — a property test in ``tests/fuzz`` holds us to that.

Determinism: all randomness flows through one ``random.Random`` seeded by
the caller (the fuzzer derives per-scenario seeds with
:func:`repro.core.derive_seed`), and the genome pins explicit ``sim_seed``
/ ``trace_seed`` / ``fail_seed`` params, so a scenario's *behavior* is a
function of its spec alone — renaming it or re-running it under a
different campaign seed reproduces the same simulation.  Every generated
scenario runs under the invariant auditor (``audit=True``, collecting
mode) and with a safety horizon, so no input can hang a fuzzing run.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Tuple

from ..distsim import validate_sharded_config
from ..errors import SimulationError
from ..experiments import Scenario
from ..experiments.tasks import sim_config

__all__ = [
    "SAFETY_HORIZON_NS",
    "assemble",
    "generate_scenario",
    "genome_of",
    "sharding_eligible",
]

#: Every fuzz scenario gets a horizon so pathological interactions (e.g.
#: reliable retransmission against a starved drop-tail queue) terminate;
#: generated workloads finish far inside it.
SAFETY_HORIZON_NS = 20_000_000

#: (dims) choices for torus and mesh fabrics — small enough that a 200
#: scenario CI budget stays fast, varied enough to move routing diversity,
#: path length and broadcast-tree shape.
_GRID_DIMS: Tuple[Tuple[int, ...], ...] = (
    (2, 2),
    (2, 3),
    (3, 3),
    (2, 2, 2),
    (3, 4),
    (4, 4),
    (2, 2, 3),
)

#: (n_hosts, radix) choices for folded-Clos fabrics (n_hosts must be a
#: positive multiple of radix/2, leaves must not exceed the radix).
_CLOS_SHAPES: Tuple[Tuple[int, int], ...] = ((4, 4), (6, 4), (8, 4), (8, 8), (12, 8))

#: Per-flow routing-protocol axis: mostly the paper's default spraying,
#: sometimes deterministic (dor/ecmp) or adaptive/non-minimal (wlb/vlb)
#: routing — moving queueing skew, reorder-buffer depth and the causal
#: decomposition's per-hop attribution (repro.obs).
_PROTOCOL_CHOICES = ("rps", "rps", "rps", "dor", "ecmp", "wlb", "vlb")
#: Selection-objective axis: what a selection-kind scenario maximizes
#: (repro.selection.objective; §3.4's operator-chosen utility).
_OBJECTIVE_CHOICES = ("aggregate", "tail", "blended")
#: Candidate protocol sets for selection searches.
_SELECTION_PROTOCOL_CHOICES = (("rps", "vlb"), ("rps", "dor"), ("rps", "vlb", "wlb"))
#: Scenario kind: mostly packet sims, occasionally a protocol-selection
#: search or a control-plane churn replay so those axes get fuzzed too.
_KIND_CHOICES = ("sim", "sim", "sim", "sim", "sim", "selection", "churn")
_LATENCY_CHOICES = (None, None, None, 50, 200, 1000)
_CAPACITY_CHOICES = (None, None, None, 1e9, 40e9)
_MTU_CHOICES = (1500, 1500, 1500, 512, 3000)
_LOSS_CHOICES = (0.0, 0.0, 0.0, 0.005, 0.01, 0.02)
_QUEUE_LIMIT_CHOICES = (None, None, None, 30_000, 150_000)
_HORIZON_CHOICES = (None, None, None, 500_000, 2_000_000)
_FAIL_CHOICES = (0, 0, 0, 1, 2)
_STACK_CHOICES = ("r2c2", "r2c2", "tcp")
_CONTROL_CHOICES = ("shared", "per_node")
_SIZE_KIND_CHOICES = ("fixed", "pareto")


# ----------------------------------------------------------------------
# Per-axis draws (shared by generation and mutation)
# ----------------------------------------------------------------------
def _draw_fabric(rng: random.Random, genome: Dict[str, Any]) -> None:
    kind = rng.choice(("torus", "mesh", "clos"))
    genome["topology"] = kind
    if kind == "clos":
        n_hosts, radix = rng.choice(_CLOS_SHAPES)
        genome["dims"] = (n_hosts,)
        genome["radix"] = radix
    else:
        genome["dims"] = rng.choice(_GRID_DIMS)
        genome["radix"] = 8  # carried but unused off-Clos


def _draw_link(rng: random.Random, genome: Dict[str, Any]) -> None:
    genome["latency_ns"] = rng.choice(_LATENCY_CHOICES)
    genome["capacity_bps"] = rng.choice(_CAPACITY_CHOICES)
    genome["mtu_payload"] = rng.choice(_MTU_CHOICES)


def _draw_workload(rng: random.Random, genome: Dict[str, Any]) -> None:
    genome["workload"] = rng.choice(("poisson", "hostpairs"))
    genome["n_flows"] = rng.randint(2, 12)
    genome["tau_ns"] = rng.randint(2_000, 20_000)
    genome["sizes"] = rng.choice(_SIZE_KIND_CHOICES)
    # Log-uniform-ish flow sizes, capped small: fuzzing wants many varied
    # scenarios per CPU-second, not paper-scale transfers.
    genome["flow_bytes"] = 2_000 * 2 ** rng.randint(0, 6)
    genome["mean_bytes"] = 4_000 * 2 ** rng.randint(0, 3)


def _draw_stack(rng: random.Random, genome: Dict[str, Any]) -> None:
    genome["stack"] = rng.choice(_STACK_CHOICES)
    genome["control_plane"] = rng.choice(_CONTROL_CHOICES)


def _draw_routing(rng: random.Random, genome: Dict[str, Any]) -> None:
    genome["protocol"] = rng.choice(_PROTOCOL_CHOICES)


def _draw_selection(rng: random.Random, genome: Dict[str, Any]) -> None:
    genome["kind"] = rng.choice(_KIND_CHOICES)
    genome["objective"] = rng.choice(_OBJECTIVE_CHOICES)
    genome["load"] = rng.choice((0.1, 0.25, 0.5))
    genome["protocols"] = rng.choice(_SELECTION_PROTOCOL_CHOICES)


def _draw_churn(rng: random.Random, genome: Dict[str, Any]) -> None:
    genome["churn_ops"] = rng.choice((40, 80, 150))
    genome["churn_flows"] = rng.choice((8, 16, 24))
    genome["churn_fallback"] = rng.random() < 0.5


def _draw_loss(rng: random.Random, genome: Dict[str, Any]) -> None:
    genome["loss_rate"] = rng.choice(_LOSS_CHOICES)


def _draw_queue(rng: random.Random, genome: Dict[str, Any]) -> None:
    genome["queue_limit_bytes"] = rng.choice(_QUEUE_LIMIT_CHOICES)


def _draw_horizon(rng: random.Random, genome: Dict[str, Any]) -> None:
    genome["horizon_ns"] = rng.choice(_HORIZON_CHOICES)


def _draw_storm(rng: random.Random, genome: Dict[str, Any]) -> None:
    genome["fail_links"] = rng.choice(_FAIL_CHOICES)


def _draw_seeds(rng: random.Random, genome: Dict[str, Any]) -> None:
    genome["sim_seed"] = rng.getrandbits(32)
    genome["trace_seed"] = rng.getrandbits(32)
    genome["fail_seed"] = rng.getrandbits(32)


#: Mutable axes, in a fixed order (mutation picks from this list).
AXES = (
    _draw_fabric,
    _draw_link,
    _draw_workload,
    _draw_stack,
    _draw_routing,
    _draw_selection,
    _draw_churn,
    _draw_loss,
    _draw_queue,
    _draw_horizon,
    _draw_storm,
    _draw_seeds,
)


# ----------------------------------------------------------------------
# Genome -> Scenario (the validity chokepoint)
# ----------------------------------------------------------------------
def assemble(genome: Dict[str, Any], name: str) -> Scenario:
    """Build a valid :class:`Scenario` from *genome*.

    All coupling rules live here; callers may hand in any genome whose
    individual axes came from the draw tables and the result is runnable.
    """
    topology = genome["topology"]
    dims = tuple(int(d) for d in genome["dims"])
    n_nodes = 1
    for d in dims:
        n_nodes *= d

    # Selection searches assign routing protocols per flow over
    # permutation traffic on the full node set, and their candidate pools
    # may include WLB — both need a coordinate (grid) fabric.
    kind = genome.get("kind", "sim")
    if topology == "clos":
        kind = "sim"
    # Churn replays exercise the incremental allocator's arrival/departure
    # path; the failure-view fallback injection mirrors the storm rule
    # (grids big enough to survive a symmetric link loss connected).
    if kind == "churn":
        churn_params: Dict[str, Any] = {
            "n_ops": int(genome["churn_ops"]),
            "max_flows": int(genome["churn_flows"]),
            "op_seed": int(genome["sim_seed"]),
        }
        if genome["churn_fallback"] and n_nodes >= 8:
            churn_params["fallback_at"] = int(genome["churn_ops"]) // 2
            churn_params["fail_links"] = 1
            churn_params["fail_seed"] = int(genome["fail_seed"])
        return Scenario(
            name=name,
            kind="churn",
            topology=topology,
            dims=dims,
            capacity_bps=genome["capacity_bps"],
            params=churn_params,
            replicates=1,
            shards=1,
        )

    if kind == "selection":
        return Scenario(
            name=name,
            kind="selection",
            topology=topology,
            dims=dims,
            capacity_bps=genome["capacity_bps"],
            params={
                "load": float(genome["load"]),
                "selector": "genetic",
                "objective": genome["objective"],
                "protocols": list(genome["protocols"]),
                # Small search budget: fuzzing wants many varied searches
                # per CPU-second, not converged optimizations.
                "max_generations": 6,
                "patience": 3,
                "search_seed": int(genome["sim_seed"]),
                "trace_seed": int(genome["trace_seed"]),
            },
            replicates=1,
            shards=1,
        )

    # Clos fabrics number switches as nodes too; only the host-pair
    # workload keeps traffic off the switch "hosts".
    workload = genome["workload"]
    if topology == "clos":
        workload = "hostpairs"

    # WLB's direction choice needs coordinates; on a Clos fall back to
    # the default spraying.
    protocol = genome["protocol"]
    if topology == "clos" and protocol == "wlb":
        protocol = "rps"

    # Storms ride only on grids big enough to stay connected without
    # retry pathologies (Clos host links are single points of attachment).
    fail_links = int(genome["fail_links"])
    if topology == "clos" or n_nodes < 8:
        fail_links = 0

    params: Dict[str, Any] = {
        "workload": workload,
        "n_flows": int(genome["n_flows"]),
        "tau_ns": int(genome["tau_ns"]),
        "sizes": genome["sizes"],
        "stack": genome["stack"],
        "mtu_payload": int(genome["mtu_payload"]),
        "audit": True,
        "audit_strict": False,
        "sim_seed": int(genome["sim_seed"]),
        "trace_seed": int(genome["trace_seed"]),
        # Always bounded: a drawn horizon tightens the safety net.
        "horizon_ns": int(genome["horizon_ns"] or SAFETY_HORIZON_NS),
    }
    if protocol != "rps":
        # Default omitted so pre-axis scenarios keep their fingerprints.
        params["protocol"] = protocol
    if genome["sizes"] == "fixed":
        params["flow_bytes"] = int(genome["flow_bytes"])
    else:
        params["mean_bytes"] = int(genome["mean_bytes"])
        params["cap_bytes"] = 200_000  # keep Pareto tails CI-sized
    if genome["stack"] == "r2c2":
        params["control_plane"] = genome["control_plane"]
        if genome["loss_rate"] > 0:
            params["loss_rate"] = float(genome["loss_rate"])
            params["reliable"] = True  # lossy R2C2 runs the reliable transport
    else:
        if genome["loss_rate"] > 0:
            params["loss_rate"] = float(genome["loss_rate"])
    if genome["queue_limit_bytes"] is not None:
        params["queue_limit_bytes"] = int(genome["queue_limit_bytes"])
    if genome["latency_ns"] is not None:
        params["latency_ns"] = int(genome["latency_ns"])
    if topology == "clos":
        params["radix"] = int(genome["radix"])
    if fail_links > 0:
        params["fail_links"] = fail_links
        params["fail_seed"] = int(genome["fail_seed"])

    return Scenario(
        name=name,
        kind="sim",
        topology=topology,
        dims=dims,
        capacity_bps=genome["capacity_bps"],
        params=params,
        replicates=1,
        shards=1,
    )


def genome_of(scenario: Scenario) -> Dict[str, Any]:
    """Recover a genome from *scenario* (inverse of :func:`assemble`).

    Absent params fall back to the axis defaults, so genomes extracted
    from shrunk or hand-written scenarios still carry every axis and can
    be mutated like generated ones.
    """
    params = scenario.params_dict
    horizon = params.get("horizon_ns")
    return {
        "kind": scenario.kind if scenario.kind in ("selection", "churn") else "sim",
        "objective": params.get("objective", "aggregate"),
        "churn_ops": int(params.get("n_ops", 80)),
        "churn_flows": int(params.get("max_flows", 16)),
        "churn_fallback": "fallback_at" in params,
        "load": float(params.get("load", 0.25)),
        "protocols": tuple(params.get("protocols", ("rps", "vlb"))),
        "topology": scenario.topology,
        "dims": tuple(scenario.dims),
        "radix": int(params.get("radix", 8)),
        "capacity_bps": scenario.capacity_bps,
        "latency_ns": params.get("latency_ns"),
        "mtu_payload": int(params.get("mtu_payload", 1500)),
        "workload": params.get("workload", "poisson"),
        "n_flows": int(params.get("n_flows", 4)),
        "tau_ns": int(params.get("tau_ns", 5_000)),
        "sizes": params.get("sizes", "pareto"),
        "flow_bytes": int(params.get("flow_bytes", 16_000)),
        "mean_bytes": int(params.get("mean_bytes", 8_000)),
        "stack": params.get("stack", "r2c2"),
        "control_plane": params.get("control_plane", "shared"),
        "protocol": params.get("protocol", "rps"),
        "loss_rate": float(params.get("loss_rate", 0.0)),
        "queue_limit_bytes": params.get("queue_limit_bytes"),
        "horizon_ns": None if horizon in (None, SAFETY_HORIZON_NS) else int(horizon),
        "fail_links": int(params.get("fail_links", 0)),
        # Selection scenarios carry the sim seed as the search seed,
        # churn scenarios as the op seed.
        "sim_seed": int(
            params.get("sim_seed", params.get("search_seed", params.get("op_seed", 0)))
        ),
        "trace_seed": int(params.get("trace_seed", 0)),
        "fail_seed": int(params.get("fail_seed", 0)),
    }


def generate_scenario(seed: int, name: str) -> Scenario:
    """One derived seed -> one valid scenario (byte-stable: same seed and
    name always produce the identical spec and fingerprint)."""
    rng = random.Random(seed)
    genome: Dict[str, Any] = {}
    for draw in AXES:
        draw(rng, genome)
    return assemble(genome, name)


def sharding_eligible(scenario: Scenario) -> bool:
    """True when the sharded-vs-serial differential can run this scenario:
    a packet sim whose ``SimConfig``
    :func:`~repro.distsim.validate_sharded_config` accepts (selection
    searches are water-fill loops, not event simulations)."""
    if scenario.kind != "sim":
        return False
    config = sim_config(scenario, 0)  # the seed is not part of the rule
    try:
        validate_sharded_config(config)
    except SimulationError:
        return False
    return True
