"""Automated inter-rack fabric synthesis (ROADMAP: "scale past the rack").

The paper's §6 leaves inter-rack networking as future work and sketches
two designs (direct gateway cables, an aggregation switch).  This module
*synthesizes* inter-rack fabrics from a declarative :class:`FabricSpec`
under explicit port and cost budgets, and is the only builder of
:class:`~repro.topology.composed.ComposedFabric` instances besides
hand-wiring one.  Four designs, following the two families retrieved in
PAPERS.md plus the paper's own sketches:

* ``fattree`` — Solnushkin-style automated two-layer fat-tree design: given
  a switch radix and per-rack uplink budget, enumerate the feasible
  (downlinks, uplinks) port splits of the edge layer, reject candidates
  that miss the oversubscription target, and pick the cheapest under the
  cost model.  Edge switches follow the hosts, core switches the edge.
* ``flat`` — RNG / Space-Shuffle-style flat direct-connect fabric: a seeded
  random regular graph over racks (pairing model, redrawn until simple and
  connected), wired with host-to-host cables.  Deterministic per seed.
* ``ring`` — racks in a ring, parallel host-to-host cables per side.
* ``switched`` — every rack uplinked to one aggregation switch.

Every synthesis is deterministic: the same spec (same seed) produces the
same bridge list and the same content :attr:`SynthesizedFabric.fingerprint`
in any process, which is what lets campaign caching treat generated fabrics
as content-addressed artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import TopologyError
from ..types import NodeId
from .base import Topology
from .build import build_topology
from .composed import ComposedFabric

__all__ = [
    "FabricSpec",
    "SynthesizedFabric",
    "SYNTH_DESIGNS",
    "synthesize",
]

#: Designs :func:`synthesize` knows how to generate.
SYNTH_DESIGNS = ("fattree", "flat", "ring", "switched")

#: What a design function hands :func:`synthesize`: the topology name, the
#: switch count, the gateway wiring (``SynthesizedFabric.bridges``) and the
#: design's figures of merit.
_Wiring = Tuple[str, int, Sequence[Tuple[int, ...]], Dict[str, Any]]

#: How many pairing-model redraws the flat design attempts before declaring
#: the (n_racks, degree) combination infeasible for this seed.
_FLAT_MAX_ATTEMPTS = 200


@dataclass(frozen=True)
class FabricSpec:
    """A declarative inter-rack fabric synthesis problem.

    Budgets are hard constraints: :func:`synthesize` raises
    :class:`~repro.errors.TopologyError` rather than emit a fabric that
    uses more than ``gateway_ports`` ports per rack, exceeds a switch's
    ``switch_radix``, overshoots the ``oversubscription`` target or (when
    ``max_cost`` is set) the cost budget.
    """

    design: str = "flat"
    rack: str = "torus"
    rack_dims: Tuple[int, ...] = (3, 3, 3)
    n_racks: int = 8
    #: Per-rack gateway-port budget (uplinks or direct cables).
    gateway_ports: int = 4
    #: Target: rack injection capacity over gateway capacity, per rack.
    oversubscription: float = 64.0
    capacity_bps: Optional[float] = None
    bridge_capacity_bps: Optional[float] = None
    bridge_latency_ns: int = 500
    seed: int = 0
    #: Switch port count for the fattree/switched designs.
    switch_radix: int = 64
    switch_cost: float = 300.0
    cable_cost: float = 10.0
    #: Optional hard cost ceiling (same units as switch/cable cost).
    max_cost: Optional[float] = None

    def __post_init__(self) -> None:
        if self.design not in SYNTH_DESIGNS:
            raise TopologyError(
                f"unknown fabric design {self.design!r}; choose from {SYNTH_DESIGNS}"
            )
        if self.n_racks < 2:
            raise TopologyError("fabric synthesis needs at least two racks")
        if self.gateway_ports < 1:
            raise TopologyError("gateway-port budget must be >= 1")
        if self.oversubscription <= 0:
            raise TopologyError("oversubscription target must be positive")
        if self.switch_radix < 2:
            raise TopologyError("switch radix must be >= 2")
        object.__setattr__(self, "rack_dims", tuple(int(d) for d in self.rack_dims))

    @property
    def rack_size(self) -> int:
        if self.rack == "hypercube":
            return 1 << self.rack_dims[0]
        n = 1
        for d in self.rack_dims:
            n *= d
        return n

    @property
    def n_nodes(self) -> int:
        """Host nodes (switches of the fattree/switched designs excluded)."""
        return self.n_racks * self.rack_size

    def to_dict(self) -> Dict[str, Any]:
        return {
            "design": self.design,
            "rack": self.rack,
            "rack_dims": list(self.rack_dims),
            "n_racks": self.n_racks,
            "gateway_ports": self.gateway_ports,
            "oversubscription": self.oversubscription,
            "capacity_bps": self.capacity_bps,
            "bridge_capacity_bps": self.bridge_capacity_bps,
            "bridge_latency_ns": self.bridge_latency_ns,
            "seed": self.seed,
            "switch_radix": self.switch_radix,
            "switch_cost": self.switch_cost,
            "cable_cost": self.cable_cost,
            "max_cost": self.max_cost,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FabricSpec":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        kwargs = {k: v for k, v in data.items() if k in known}
        if "rack_dims" in kwargs:
            kwargs["rack_dims"] = tuple(kwargs["rack_dims"])
        return cls(**kwargs)

    def fingerprint(self) -> str:
        """SHA-256 of the canonical spec JSON (the synthesis *problem*)."""
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SynthesizedFabric:
    """One synthesis result: the fabric, its wiring and its cost report."""

    spec: FabricSpec
    topology: ComposedFabric
    #: Gateway wiring.  ``flat``/``ring``: ``(rack_a, local_a, rack_b,
    #: local_b)`` host-to-host cables; ``fattree``/``switched``: global
    #: ``(node, switch)`` pairs.
    bridges: Tuple[Tuple[int, ...], ...]
    #: Deterministic figures of merit: switches, cables, ports, cost,
    #: achieved oversubscription, budget verdicts.
    report: Dict[str, Any] = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        """Content hash of the generated artifact (not just the problem).

        Covers the design, node/link counts, the exact bridge list and the
        gateway parameters — two independent processes synthesizing the
        same spec must produce identical fingerprints, which is what makes
        campaign caching of synth scenarios sound.
        """
        payload = {
            "design": self.spec.design,
            "n_nodes": self.topology.n_nodes,
            "n_links": self.topology.n_links,
            "bridges": [list(b) for b in self.bridges],
            "rack": self.spec.rack,
            "rack_dims": list(self.spec.rack_dims),
            "bridge_capacity_bps": self.report["gateway_capacity_bps"],
            "bridge_latency_ns": self.spec.bridge_latency_ns,
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def describe(self) -> Dict[str, Any]:
        """JSON-able manifest: spec + report + fingerprints + wiring."""
        return {
            "spec": self.spec.to_dict(),
            "spec_fingerprint": self.spec.fingerprint(),
            "fingerprint": self.fingerprint,
            "report": dict(self.report),
            "bridges": [list(b) for b in self.bridges],
        }


def synthesize(spec: FabricSpec) -> SynthesizedFabric:
    """Generate the fabric described by *spec*, enforcing its budgets.

    Raises :class:`~repro.errors.TopologyError` when no fabric satisfies
    the port, radix, oversubscription or cost budget.
    """
    rack = build_topology(spec.rack, spec.rack_dims, capacity_bps=spec.capacity_bps)
    if rack.n_hosts != rack.n_nodes:
        raise TopologyError(f"{spec.rack} racks have switches; compose direct-connect racks")
    gateway_cap = (
        spec.bridge_capacity_bps
        if spec.bridge_capacity_bps is not None
        else rack.capacity_bps
    )
    wire = {
        "fattree": _wire_fattree,
        "flat": _wire_flat,
        "ring": _wire_ring,
        "switched": _wire_switched,
    }[spec.design]
    name, n_switches, bridges, report = wire(spec, rack, gateway_cap)
    cables = bridges
    if not n_switches:  # host-to-host cables, as (rack_a, local_a, rack_b, local_b)
        size = rack.n_nodes
        cables = [(ra * size + la, rb * size + lb) for ra, la, rb, lb in bridges]
    topology = ComposedFabric(
        [rack] * spec.n_racks,
        cables,
        n_switches=n_switches,
        gateway_capacity_bps=gateway_cap,
        gateway_latency_ns=spec.bridge_latency_ns,
        name=name,
    )
    report["gateway_capacity_bps"] = float(gateway_cap)
    report["n_nodes"] = topology.n_nodes
    report["n_links"] = topology.n_links
    report["n_racks"] = spec.n_racks
    report["rack_size"] = spec.rack_size
    report["cost"] = (
        report["switches"] * spec.switch_cost + report["cables"] * spec.cable_cost
    )
    _enforce_budgets(spec, report)
    return SynthesizedFabric(spec, topology, tuple(bridges), report)


def _enforce_budgets(spec: FabricSpec, report: Dict[str, Any]) -> None:
    ports = report["gateway_ports_per_rack"]
    if ports > spec.gateway_ports:
        raise TopologyError(
            f"{spec.design}: needs {ports} gateway ports per rack, "
            f"budget is {spec.gateway_ports}"
        )
    achieved = report["oversubscription"]
    if achieved > spec.oversubscription * (1 + 1e-9):
        raise TopologyError(
            f"{spec.design}: achieved oversubscription {achieved:.2f} exceeds "
            f"target {spec.oversubscription:g} — raise the gateway budget or "
            "the target"
        )
    if spec.max_cost is not None and report["cost"] > spec.max_cost:
        raise TopologyError(
            f"{spec.design}: cost {report['cost']:.0f} exceeds budget "
            f"{spec.max_cost:g}"
        )
    report["budget_ok"] = True


def _gateway_locals(rack_size: int, count: int) -> List[int]:
    """Spread *count* gateway attachment points across a rack by stride."""
    stride = max(1, rack_size // count)
    out, used = [], set()
    local = 0
    while len(out) < count:
        while local in used:
            local = (local + 1) % rack_size
        out.append(local)
        used.add(local)
        local = (local + stride) % rack_size
    return out


def _flat_rack_graph(n_racks: int, degree: int, seed: int) -> List[Tuple[int, int]]:
    """A seeded simple connected *degree*-regular graph on *n_racks* vertices.

    Pairing (configuration) model with rejection: stubs are shuffled by a
    derived-seed RNG and paired; draws with self-loops, parallel edges or a
    disconnected result are redrawn.  Deterministic per (n, d, seed).
    """
    if degree >= n_racks:
        raise TopologyError(
            f"flat design needs degree {degree} < racks {n_racks}"
        )
    if (n_racks * degree) % 2 != 0:
        raise TopologyError(
            f"flat design needs an even stub count, got {n_racks} racks x "
            f"degree {degree}"
        )
    # Imported lazily: repro.core pulls in config -> congestion -> topology.
    from ..core.seeds import derive_seed

    rng = random.Random(derive_seed(seed, "synth-flat", n_racks, degree))
    for _ in range(_FLAT_MAX_ATTEMPTS):
        stubs = [r for r in range(n_racks) for _ in range(degree)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            a, b = stubs[i], stubs[i + 1]
            if a == b or (min(a, b), max(a, b)) in edges:
                ok = False
                break
            edges.add((min(a, b), max(a, b)))
        if not ok:
            continue
        # Connectivity check over the undirected rack graph.
        adj: Dict[int, List[int]] = {r: [] for r in range(n_racks)}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for r in frontier:
                for s in adj[r]:
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
            frontier = nxt
        if len(seen) == n_racks:
            return sorted(edges)
    if degree < 2:
        # A 1-regular rack graph is a perfect matching: disconnected for
        # more than two racks, and the pairing loop handles two.
        raise TopologyError(
            f"flat design: no connected {degree}-regular graph on "
            f"{n_racks} racks exists"
        )
    # Dense pairings (degree close to n_racks) rarely come out simple, so
    # rejection sampling can exhaust its draws even though a graph exists.
    # Fall back to the deterministic circulant graph — ring plus chords at
    # strides 2..degree/2, antipodal matching for odd degree — which is
    # simple and connected for every 2 <= degree < n_racks.
    fallback = set()
    for rack in range(n_racks):
        for stride in range(1, degree // 2 + 1):
            pair = (rack, (rack + stride) % n_racks)
            fallback.add((min(pair), max(pair)))
    if degree % 2:
        for rack in range(n_racks // 2):
            fallback.add((rack, rack + n_racks // 2))
    return sorted(fallback)


def _rack_oversubscription(rack: Topology, ports: int, gateway_cap: float) -> float:
    """Rack injection capacity over the capacity of its *ports* gateway ports."""
    return (rack.n_nodes * rack.capacity_bps) / (ports * gateway_cap)


def _single_stage_wiring(
    spec: FabricSpec,
    rack: Topology,
    gateway_cap: float,
    label: str,
    n_switches: int,
    bridges: Sequence[Tuple[int, ...]],
    ports_per_rack: int,
) -> _Wiring:
    """The wiring of a design whose only gateway stage is the racks' own
    ports (flat, ring, switched)."""
    report = {
        "design": spec.design,
        "switches": n_switches,
        "cables": len(bridges),
        "gateway_ports_per_rack": ports_per_rack,
        "oversubscription": _rack_oversubscription(rack, ports_per_rack, gateway_cap),
    }
    return f"{label}({spec.n_racks}x{rack.name})", n_switches, bridges, report


def _wire_flat(
    spec: FabricSpec, rack: Topology, gateway_cap: float
) -> _Wiring:
    degree = spec.gateway_ports
    rack_edges = _flat_rack_graph(spec.n_racks, degree, spec.seed)
    # Rack r's i-th cable attaches at its i-th strided gateway local.
    locals_of = _gateway_locals(spec.rack_size, degree)
    next_port = [0] * spec.n_racks
    bridges: List[Tuple[int, int, int, int]] = []
    for a, b in rack_edges:
        bridges.append((a, locals_of[next_port[a]], b, locals_of[next_port[b]]))
        next_port[a] += 1
        next_port[b] += 1
    return _single_stage_wiring(spec, rack, gateway_cap, "multirack", 0, bridges, degree)


def _wire_ring(
    spec: FabricSpec, rack: Topology, gateway_cap: float
) -> _Wiring:
    per_side = spec.gateway_ports // 2 if spec.n_racks > 2 else spec.gateway_ports
    if per_side < 1:
        raise TopologyError(
            "ring design needs a gateway budget of at least 2 ports "
            "(one cable per ring side)"
        )
    locals_of = _gateway_locals(spec.rack_size, per_side)
    bridges: List[Tuple[int, int, int, int]] = []
    for rack_idx in range(spec.n_racks):
        nxt = (rack_idx + 1) % spec.n_racks
        for cable in range(per_side):
            bridges.append((rack_idx, locals_of[cable], nxt, locals_of[cable]))
        if spec.n_racks == 2:
            break  # avoid duplicating the single pair's cables
    ports = per_side if spec.n_racks == 2 else 2 * per_side
    return _single_stage_wiring(spec, rack, gateway_cap, "multirack", 0, bridges, ports)


def _wire_fattree(
    spec: FabricSpec, rack: Topology, gateway_cap: float
) -> _Wiring:
    """Solnushkin-style two-layer design: enumerate edge-port splits, keep
    the candidates meeting the oversubscription target, take the cheapest."""
    n_uplinks = spec.n_racks * spec.gateway_ports
    rack_oversub = _rack_oversubscription(rack, spec.gateway_ports, gateway_cap)
    best = None
    radix = spec.switch_radix
    for down in range(1, radix):
        up = radix - down
        n_edge = math.ceil(n_uplinks / down)
        n_core = math.ceil(n_edge * up / radix)
        # Achieved oversubscription: rack uplink stage times edge stage.
        achieved = rack_oversub * (down / up)
        if achieved > spec.oversubscription * (1 + 1e-9):
            continue
        cables = n_uplinks + n_edge * up
        cost = (n_edge + n_core) * spec.switch_cost + cables * spec.cable_cost
        key = (cost, n_edge + n_core, down)
        if best is None or key < best[0]:
            best = (key, down, up, n_edge, n_core, achieved, cables, cost)
    if best is None:
        raise TopologyError(
            f"fattree: no (down, up) split of a radix-{radix} edge switch "
            f"meets oversubscription {spec.oversubscription:g} for "
            f"{spec.n_racks} racks x {spec.gateway_ports} uplinks"
        )
    _key, down, up, n_edge, n_core, achieved, cables, _cost = best
    n_hosts = spec.n_racks * spec.rack_size
    locals_of = _gateway_locals(spec.rack_size, spec.gateway_ports)
    uplinks: List[Tuple[NodeId, NodeId]] = []
    uplink_no = 0
    for rack_idx in range(spec.n_racks):
        base = rack_idx * spec.rack_size
        for port in range(spec.gateway_ports):
            edge = n_hosts + (uplink_no // down)
            uplinks.append((base + locals_of[port], edge))
            uplink_no += 1
    corelinks: List[Tuple[NodeId, NodeId]] = []
    core_base = n_hosts + n_edge
    for edge_rank in range(n_edge):
        for u in range(up):
            core = core_base + (edge_rank * up + u) % n_core
            pair = (n_hosts + edge_rank, core)
            if pair not in corelinks:  # parallel cables collapse to one link
                corelinks.append(pair)
    report = {
        "design": "fattree",
        "switches": n_edge + n_core,
        "n_edge": n_edge,
        "n_core": n_core,
        "edge_down_ports": down,
        "edge_up_ports": up,
        "cables": len(uplinks) + len(corelinks),
        "gateway_ports_per_rack": spec.gateway_ports,
        "oversubscription": achieved,
    }
    name = f"fattree({spec.n_racks}x{rack.name}+{n_edge}e+{n_core}c)"
    return name, n_edge + n_core, uplinks + corelinks, report


def _wire_switched(
    spec: FabricSpec, rack: Topology, gateway_cap: float
) -> _Wiring:
    """Racks bridged by one aggregation switch (the Ethernet-tunnel option,
    :mod:`repro.wire.tunnel`).  The paper notes this "would dramatically
    increase costs" for high-radix, terabit-backplane switches — which the
    oversubscription report makes visible."""
    uplinks = spec.gateway_ports
    if spec.n_racks * uplinks > spec.switch_radix:
        raise TopologyError(
            f"switched: {spec.n_racks} racks x {uplinks} uplinks exceed the "
            f"radix-{spec.switch_radix} aggregation switch"
        )
    size = spec.rack_size
    switch = spec.n_racks * size
    stride = max(1, size // uplinks)
    # More uplinks than rack nodes wrap onto the same gateways: one cable each.
    locals_of = sorted({(uplink * stride) % size for uplink in range(uplinks)})
    bridges = [
        (rack_idx * size + local, switch)
        for rack_idx in range(spec.n_racks)
        for local in locals_of
    ]
    return _single_stage_wiring(
        spec, rack, gateway_cap, "switched-multirack", 1, bridges, uplinks
    )
