"""The per-node control plane (full visibility-skew fidelity) must agree
with the shared collapsed controller the simulator defaults to."""

import numpy as np
import pytest

from repro.congestion import ControllerConfig
from repro.sim import SimConfig, run_simulation
from repro.topology import MeshTopology
from repro.types import usec
from repro.workloads import FixedSize, FlowArrival, poisson_trace


@pytest.fixture(scope="module")
def mode_pair(torus3d_module):
    trace = poisson_trace(
        torus3d_module, 150, 4_000, sizes=FixedSize(80_000), seed=6
    )
    shared = run_simulation(
        torus3d_module, trace, SimConfig(stack="r2c2", control_plane="shared", seed=6)
    )
    per_node = run_simulation(
        torus3d_module,
        trace,
        SimConfig(stack="r2c2", control_plane="per_node", seed=6),
    )
    return shared, per_node


@pytest.fixture(scope="module")
def torus3d_module():
    from repro.topology import TorusTopology

    return TorusTopology((4, 4, 4))


class TestPerNodeControlPlane:
    def test_both_complete(self, mode_pair):
        shared, per_node = mode_pair
        assert shared.completion_rate() == 1.0
        assert per_node.completion_rate() == 1.0

    def test_fct_distributions_match(self, mode_pair):
        shared, per_node = mode_pair
        fs = np.sort([f.fct_ns() for f in shared.completed_flows()])
        fp = np.sort([f.fct_ns() for f in per_node.completed_flows()])
        rel = np.abs(fs - fp) / fs
        # Visibility skew is microseconds against 500 us epochs, so the
        # distributions are nearly identical.
        assert float(np.median(rel)) < 0.05
        assert float(np.percentile(rel, 95)) < 0.15

    def test_same_broadcast_traffic(self, mode_pair):
        shared, per_node = mode_pair
        assert shared.broadcast_bytes == per_node.broadcast_bytes

    def test_allocation_memo_effective(self, mode_pair):
        shared, per_node = mode_pair
        # One recompute per epoch per node, but thanks to the memo, wall
        # time stays within a small factor of the shared mode.
        assert per_node.wallclock_s < shared.wallclock_s * 5 + 2.0

    def test_reliable_stack_works_per_node(self, torus3d_module):
        trace = poisson_trace(
            torus3d_module, 40, 10_000, sizes=FixedSize(50_000), seed=9
        )
        metrics = run_simulation(
            torus3d_module,
            trace,
            SimConfig(
                stack="r2c2",
                control_plane="per_node",
                reliable=True,
                loss_rate=0.01,
                seed=9,
            ),
        )
        assert metrics.completion_rate() == 1.0

    def test_config_validation(self, torus3d_module):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            SimConfig(control_plane="quantum")


class TestRhoZero:
    """ρ = 0 recomputes at every start and finish, also where a node learns
    them from a delivered broadcast: per-node must then equal shared."""

    def test_learned_start_rates_the_senders_own_flows(self):
        # Flows 0->2 and 1->2 on a 3-node line share link 1->2.  Node 0
        # learns flow 1 by broadcast and must halve flow 0's rate.
        topo = MeshTopology((3,))
        trace = [
            FlowArrival(0, 0, 2, 2_000_000, 0),
            FlowArrival(1, 1, 2, 2_000_000, usec(50)),
        ]
        shared, per_node = (
            run_simulation(
                topo,
                trace,
                SimConfig(
                    stack="r2c2",
                    control_plane=plane,
                    controller=ControllerConfig(recompute_interval_ns=0),
                ),
            )
            for plane in ("shared", "per_node")
        )
        assert max(per_node.max_queue_occupancy_bytes) == max(
            shared.max_queue_occupancy_bytes
        )
        assert [f.fct_ns() for f in per_node.flows] == [
            f.fct_ns() for f in shared.flows
        ]
