"""Causal critical-path tracing: the decomposition is exact, everywhere.

The tentpole's acceptance bar: for every completed flow, pacing +
serialization + queueing + propagation + control-wait + host-wait +
retransmit-wait must equal the measured FCT within 1 ns (the construction
owes 0), on the Figure 7 workload, serially AND sharded — and a sharded
run's decompositions must be byte-identical to the serial run's.
"""

import types
from dataclasses import replace

import pytest

from repro.distsim import canonical_metrics, run_sharded_simulation
from repro.obs import COMPONENT_NAMES, ObsSession, PacketObs, check_decomposition
from repro.obs.report import explain_report
from repro.sim import SimConfig, run_simulation
from repro.topology import TorusTopology
from repro.workloads import FixedSize, poisson_trace

pytestmark = pytest.mark.obs


def _fig7_workload():
    """The Figure 7 cross-validation workload (see ``_run_crossval``)."""
    topology = TorusTopology((4, 4, 4))
    trace = poisson_trace(
        topology, 60, 150_000, sizes=FixedSize(1_000_000), seed=7
    )
    return topology, trace


def _fig7_config(**overrides):
    base = dict(
        stack="r2c2", mtu_payload=8192, control_plane="per_node", seed=7, obs=True
    )
    base.update(overrides)
    return SimConfig(**base)


class TestExactDecomposition:
    def test_fig7_serial_sums_exactly(self):
        topology, trace = _fig7_workload()
        metrics = run_simulation(topology, trace, _fig7_config())
        flow_obs = metrics.flow_obs
        assert flow_obs, "no flows completed with obs records"
        for record in flow_obs.values():
            # tolerance 0: the decomposition is exact by construction
            # (the acceptance criterion's +/-1 ns is headroom we don't use).
            assert check_decomposition(record, tolerance_ns=0) is None
            assert set(record["components"]) == set(COMPONENT_NAMES)

    def test_fig7_sharded_k4_matches_serial(self):
        topology, trace = _fig7_workload()
        serial = run_simulation(topology, trace, _fig7_config())
        sharded = run_sharded_simulation(topology, trace, _fig7_config(), shards=4)
        assert sharded.metrics.flow_obs == serial.flow_obs
        for record in sharded.metrics.flow_obs.values():
            assert check_decomposition(record, tolerance_ns=0) is None

    @pytest.mark.parametrize("stack", ["r2c2", "tcp"])
    def test_lossy_reliable_decomposition_still_exact(self, stack):
        topology = TorusTopology((4, 4))
        trace = poisson_trace(topology, 40, 8_000, seed=5)
        config = SimConfig(
            stack=stack,
            control_plane="per_node",
            reliable=(stack == "r2c2"),
            loss_rate=0.03,
            seed=5,
            obs=True,
        )
        metrics = run_simulation(topology, trace, config)
        assert metrics.flow_obs
        retransmitted = 0
        for record in metrics.flow_obs.values():
            assert check_decomposition(record, tolerance_ns=0) is None
            retransmitted += record["components"]["retransmit_wait_ns"] > 0
        if stack == "r2c2":
            # 3% wire loss must surface as retransmit-wait somewhere.
            # (TCP's loss recovery is ACK-clocked, so its recovery time
            # lands in the pacing remainder by design.)
            assert retransmitted > 0

    def test_host_limited_flows_report_host_wait(self):
        """The probe's ``host_wait`` site: a flow whose application produces
        bytes slower than its allocated rate waits on the host, and the
        wait is a component of its exact decomposition."""
        topology = TorusTopology((4, 4))
        trace = [
            replace(arrival, app_rate_bps=2e9)
            for arrival in poisson_trace(topology, 20, 8_000, seed=5)
        ]
        metrics = run_simulation(topology, trace, SimConfig(stack="r2c2", seed=5, obs=True))
        records = list(metrics.flow_obs.values())
        assert len(records) == len(trace)
        assert all(record["components"]["host_wait_ns"] > 0 for record in records)
        (latency_ns,) = {link.latency_ns for link in topology.links}
        for record in records:
            assert check_decomposition(record, tolerance_ns=0) is None
            # the finish instant a port reports at serialization start is
            # exact: one link latency per hop of the completing packet
            hops = len(record["critical_path"])
            assert record["components"]["propagation_ns"] == hops * latency_ns

    def test_obs_does_not_perturb_the_simulation(self):
        topology, trace = _fig7_workload()
        plain = run_simulation(topology, trace, _fig7_config(obs=False))
        observed = run_simulation(topology, trace, _fig7_config())
        assert canonical_metrics(plain) == canonical_metrics(observed)
        assert plain.flow_obs is None
        assert observed.flow_obs is not None


class TestRecords:
    def test_critical_path_and_top_hops(self):
        topology, trace = _fig7_workload()
        metrics = run_simulation(topology, trace, _fig7_config())
        for record in metrics.flow_obs.values():
            hops = record["critical_path"]
            assert hops, "completing packet traversed no links?"
            # The completing packet's per-hop queueing sums to the
            # flow-level queueing component.
            assert (
                sum(h["queue_ns"] for h in hops)
                == record["components"]["queueing_ns"]
            )
            top = record["top_queue_hops"]
            assert len(top) <= 5
            totals = [h["queue_ns"] for h in top]
            assert totals == sorted(totals, reverse=True)

    def test_explain_report_renders_and_checks(self):
        topology, trace = _fig7_workload()
        metrics = run_simulation(topology, trace, _fig7_config())
        lines, errors = explain_report(metrics.flow_obs, check=True)
        assert errors == []
        text = "\n".join(lines)
        assert "pacing" in text and "queueing" in text
        # Single-flow filter narrows the report to that flow.
        some_id = next(iter(metrics.flow_obs))
        only, errors = explain_report(
            metrics.flow_obs, flow_ids=[some_id], check=True
        )
        assert errors == []
        assert f"flow {some_id} " in "\n".join(only)
        assert len(only) < len(lines)


class TestSenderAccounting:
    """Unit-level checks of the stall/wait interval bookkeeping."""

    def test_stall_intervals_are_disjoint_and_idempotent(self):
        session = ObsSession()
        session.on_stall(1, 100)
        session.on_stall(1, 250)  # already stalled: no nested interval
        session.on_resume(1, 400)
        session.on_resume(1, 500)  # already resumed: no-op
        session.on_stall(1, 600)
        session.on_resume(1, 650)
        assert session._sender(1).ctl_ns == 300 + 50

    def test_injection_snapshots_freeze_past_waits(self):
        session = ObsSession()
        session.on_host_wait(1, 40)
        session.on_rto_wait(1, 7)
        flow = types.SimpleNamespace(flow_id=1)
        packet = types.SimpleNamespace(obs=None)
        session.on_inject(flow, packet, now_ns=1000)
        # Waits accrued after injection must not leak into this packet.
        session.on_host_wait(1, 999)
        assert packet.obs.inject_ns == 1000
        assert packet.obs.host_ns == 40
        assert packet.obs.rto_ns == 7
        assert packet.obs.ctl_ns == 0

    def test_completion_freezes_from_completing_packet(self):
        session = ObsSession()
        flow = types.SimpleNamespace(
            flow_id=3,
            src=0,
            dst=5,
            size_bytes=1000,
            start_ns=100,
            completed_ns=900,
        )
        obs = PacketObs(inject_ns=300, ctl_ns=50, host_ns=0, rto_ns=0)
        obs.queue_ns, obs.ser_ns, obs.prop_ns = 200, 300, 100
        obs.hops = [(0, 1, 150), (1, 5, 50)]
        packet = types.SimpleNamespace(obs=obs)
        session.on_delivered(flow, packet, now_ns=900)
        # A later delivery at a non-completion time must not overwrite.
        session.on_delivered(flow, packet, now_ns=950)
        (record,) = session.results().values()
        assert record["fct_ns"] == 800
        # pacing = inject - start - ctl - host - rto = 300-100-50 = 150
        assert record["components"]["pacing_ns"] == 150
        assert check_decomposition(record, tolerance_ns=0) is None

    def test_merge_unions_disjoint_shards_sorted(self):
        a = {4: {"flow_id": 4}, 1: {"flow_id": 1}}
        b = {2: {"flow_id": 2}}
        merged = ObsSession.merge([a, b, {}])
        assert list(merged) == [1, 2, 4]
