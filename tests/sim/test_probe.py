"""The simulator's one observation surface (repro.sim.probe).

Observation must never perturb a run, the probe must not exist when
nothing observes, every stack's sites must reach it, and the hot-path
modules must not grow per-subscriber hooks again.
"""

import json
import re
from collections import Counter
from pathlib import Path

import pytest

import repro.sim
from repro.distsim import canonical_metrics
from repro.errors import SimulationError
from repro.obs import FlightRecorder
from repro.sim import EventLoop, KIND_DATA, SimConfig, SimFlow, SimMetrics, SimPacket
from repro.sim import run_simulation
from repro.sim.network import FifoQueue, OutputPort
from repro.sim.probe import SimProbe, build_probe
from repro.sim.runner import _build_pfq, _build_r2c2, _build_tcp
from repro.telemetry import Telemetry, TelemetryConfig
from repro.topology import TorusTopology
from repro.types import gbps
from repro.workloads import FixedSize, ParetoSizes, poisson_trace

TOPO = TorusTopology((3, 3), capacity_bps=gbps(10))


def _trace(n=24):
    sizes = ParetoSizes(mean_bytes=80_000, shape=1.05, cap_bytes=1_000_000)
    return poisson_trace(TOPO, n, 2_000, sizes=sizes, seed=3)


class TestBuildProbe:
    def test_none_when_nothing_observes(self):
        loop = EventLoop()
        assert build_probe(SimConfig(), None, loop) is None
        disabled = Telemetry(TelemetryConfig(metrics=False, trace=False))
        assert build_probe(SimConfig(), disabled, loop) is None

    def test_subscribers_follow_the_knobs(self):
        probe = build_probe(SimConfig(audit=True, flight=True), None, EventLoop())
        assert probe.auditor is not None and probe.flight is not None
        assert probe.obs is None and probe.engine_event is not None
        assert probe.auditor.flight is probe.flight
        traced = build_probe(SimConfig(), Telemetry(), EventLoop())
        assert traced.auditor is None and traced.engine_event is None

    def test_obs_rejects_pfq(self):
        with pytest.raises(SimulationError, match="back-pressure"):
            run_simulation(TOPO, _trace(4), SimConfig(stack="pfq", obs=True))


SCENARIOS = {
    "r2c2-shared": dict(stack="r2c2"),
    "r2c2-per_node": dict(stack="r2c2", control_plane="per_node"),
    "r2c2-reliable-loss": dict(stack="r2c2", reliable=True, loss_rate=0.02),
    "tcp": dict(stack="tcp"),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_observation_never_perturbs(name):
    trace = _trace()
    off = run_simulation(TOPO, trace, SimConfig(seed=5, **SCENARIOS[name]))
    telemetry = Telemetry(TelemetryConfig(packet_sample_every=4))
    on = run_simulation(
        TOPO,
        trace,
        SimConfig(seed=5, audit=True, obs=True, flight=True, **SCENARIOS[name]),
        telemetry=telemetry,
    )
    assert json.dumps(canonical_metrics(on), sort_keys=True) == json.dumps(
        canonical_metrics(off), sort_keys=True
    )
    assert on.events_processed == off.events_processed
    # ... and every subscriber did observe the run.
    assert on.audit.ok and on.audit.events == on.events_processed
    assert sorted(on.flow_obs) == [f.flow_id for f in on.completed_flows()]
    assert {"engine", "stack"} <= set(on.flight_dump["subsystems"])
    assert len(telemetry.trace) > 0
    assert off.audit is None and off.flow_obs is None and off.flight_dump is None


class TestEngineSites:
    def test_engine_batch_becomes_a_trace_span(self):
        telemetry = Telemetry(TelemetryConfig(metrics=False))
        SimProbe(EventLoop(), telemetry=telemetry).engine_batch(1_000, 4_000, 7)
        (event,) = [e for e in telemetry.trace.events() if e["ph"] != "M"]
        assert event["name"] == "batch"
        assert event["dur"] == 3.0
        assert event["args"] == {"events": 7}

    def test_batch_only_probe_keeps_the_fast_path(self):
        loop = EventLoop()
        flight = FlightRecorder()
        SimProbe(loop, flight=flight)
        loop.schedule(5, lambda: None)
        loop.schedule(9, lambda: None)
        assert loop.run_batch() == 2
        (batch,) = flight.dump()["subsystems"]["engine"]["events"]
        assert batch == {"t_ns": 9, "kind": "batch", "start_ns": 0, "events": 2}


class TestPortSites:
    def test_queue_drop_is_recorded_with_the_packet_kind(self):
        """A drop under ``flight=True`` used to raise TypeError (the packet
        kind collided with the record's own ``kind``)."""
        loop = EventLoop()
        flight = FlightRecorder()
        port = OutputPort(
            loop, 0, 1, gbps(10), 100, FifoQueue(limit_bytes=100), lambda p: None,
            probe=SimProbe(loop, flight=flight),
        )
        assert port.send(SimPacket(KIND_DATA, 7, 0, 1, 0, 100, path=(0, 1)))
        assert port.send(SimPacket(KIND_DATA, 7, 0, 1, 1, 100, path=(0, 1)))
        assert not port.send(SimPacket(KIND_DATA, 7, 0, 1, 2, 100, path=(0, 1)))
        (drop,) = flight.dump()["subsystems"]["network"]["events"]
        assert drop == {
            "t_ns": 0, "kind": "queue_drop", "src": 0, "dst": 1,
            "flow": 7, "packet_kind": KIND_DATA, "seq": 2,
        }

    def test_flight_survives_a_congested_tcp_run(self):
        # 300 kB flows converging on 1 Gb/s links overflow TCP's drop-tail
        # queues.
        slow = TorusTopology((3, 3), capacity_bps=gbps(1))
        metrics = run_simulation(
            slow,
            poisson_trace(slow, 12, 5_000, sizes=FixedSize(300_000), seed=3),
            SimConfig(stack="tcp", seed=5, flight=True),
        )
        assert metrics.drops > 0
        kinds = Counter(
            e["kind"] for e in metrics.flight_dump["subsystems"]["network"]["events"]
        )
        assert kinds["queue_drop"] > 0


class _RecordingProbe:
    """Stands in for a SimProbe: counts which sites were emitted."""

    engine_event = None

    def __init__(self):
        self.sites = Counter()

    def __getattr__(self, site):
        return lambda *facts, **fields: self.sites.update([site])


NETWORK_SITES = {
    "engine_batch", "attach_network", "port_accept", "tx_start", "tx_finish",
    "arrive", "local_deliver", "flow_complete", "delivered",
}
R2C2_SITES = NETWORK_SITES | {
    "flow_start", "inject", "pacing", "packet_span", "bcast_announce",
    "bcast_receipt", "allocation", "control_epoch",
}


@pytest.mark.parametrize(
    "stack, control_plane, expected",
    [
        ("r2c2", "shared", R2C2_SITES),
        ("r2c2", "per_node", R2C2_SITES),
        ("tcp", "shared", NETWORK_SITES | {"inject"}),
        ("pfq", "shared", NETWORK_SITES),
    ],
)
def test_every_stack_reaches_the_probe(stack, control_plane, expected):
    """PFQ included: its ports and stacks used to be built without any
    observer, so ``flight=True`` recorded nothing from them."""
    loop = EventLoop()
    probe = _RecordingProbe()
    loop.attach_probe(probe)
    trace = _trace(6)
    flows = {a.flow_id: SimFlow(a) for a in trace}
    config = SimConfig(stack=stack, control_plane=control_plane, seed=5)
    args = (TOPO, loop, flows, SimMetrics(), config)
    if stack == "r2c2":
        network, _ = _build_r2c2(*args, None, probe)
    else:
        network = {"tcp": _build_tcp, "pfq": _build_pfq}[stack](*args, probe)
    for flow in flows.values():
        loop.schedule_at(
            flow.start_ns, lambda f=flow: network.stack_at[f.src].start_flow(f)
        )
    loop.run_batch(until_ns=20_000_000)
    assert all(f.completed for f in flows.values())
    assert set(probe.sites) == expected
    assert probe.sites["flow_complete"] == len(flows)
    assert probe.sites["port_accept"] == probe.sites["tx_start"]


def test_pfq_flight_dump_covers_the_stack():
    metrics = run_simulation(TOPO, _trace(6), SimConfig(stack="pfq", flight=True))
    stack_ring = metrics.flight_dump["subsystems"]["stack"]["events"]
    assert [e["kind"] for e in stack_ring] == ["flow_complete"] * 6


#: The per-subscriber hook attributes the probe replaced.  Written so TCP's
#: ``sender.in_flight`` does not match.
_FRAGMENT = re.compile(
    r"\._auditor\b|\._flight\b|\._obs\b|\._tel_trace\b|\._ctr_|\.auditor\b|\.flight\b"
)


def test_hot_path_modules_have_no_per_subscriber_hooks():
    """Tooling guard: the hot path talks to ``probe`` only, so the surface
    cannot re-fragment one hook at a time."""
    root = Path(repro.sim.__file__).parent
    files = [root / "engine.py", root / "network.py", *sorted((root / "stacks").glob("*.py"))]
    assert len(files) >= 7
    offenders = [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for path in files
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if _FRAGMENT.search(line)
    ]
    assert not offenders, "\n".join(offenders)
