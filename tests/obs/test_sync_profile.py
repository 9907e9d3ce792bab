"""Distsim sync profiler: where did the sharded wall clock go?

The profiler is observability-only: wall-clock quantities live solely on
``DistSimResult.sync_profile`` (never inside merged metrics or task
results, which must stay byte-identical to the serial run's), and the
simulated-time quantities it reports are deterministic.
"""

import pytest

from repro.distsim import canonical_metrics, run_sharded_simulation
from repro.sim import SimConfig, run_simulation
from repro.topology import TorusTopology
from repro.workloads import poisson_trace

pytestmark = [pytest.mark.obs, pytest.mark.distsim]


def _sharded(shards=4):
    topology = TorusTopology((4, 4))
    trace = poisson_trace(topology, 40, 8_000, seed=3)
    config = SimConfig(stack="r2c2", control_plane="per_node", seed=3)
    return (
        run_sharded_simulation(topology, trace, config, shards=shards),
        topology,
        trace,
        config,
    )


class TestSyncProfile:
    def test_profile_shape_and_consistency(self):
        result, *_ = _sharded()
        profile = result.sync_profile
        assert profile is not None
        assert profile["rounds"] == result.rounds > 0
        assert profile["boundary_messages"] == result.boundary_messages
        assert profile["lookahead_ns"] > 0
        # Windows are at least the lookahead on a busy fabric but can jump
        # past it when every shard's next event is farther out, so the
        # mean is only bounded below.
        assert profile["mean_window_ns"] > 0
        assert 0.0 < profile["lookahead_utilization"] <= 1.0
        assert profile["exec_s"] > 0.0
        shards = profile["shards"]
        assert len(shards) == result.shards
        for shard in shards:
            assert shard["rounds"] == profile["rounds"]
        # Shard boundary traffic is conserved: everything sent arrives.
        assert sum(s["boundary_out"] for s in shards) == sum(
            s["boundary_in"] for s in shards
        )

    def test_simulated_time_quantities_are_deterministic(self):
        a, *_ = _sharded()
        b, *_ = _sharded()

        def deterministic(profile):
            return {
                k: profile[k]
                for k in (
                    "rounds",
                    "boundary_messages",
                    "lookahead_ns",
                    "mean_window_ns",
                    "lookahead_utilization",
                )
            }

        assert deterministic(a.sync_profile) == deterministic(b.sync_profile)

    def test_wall_clock_stays_out_of_merged_results(self):
        result, topology, trace, config = _sharded()
        serial = run_simulation(topology, trace, config)
        # The sync profile must not leak into the byte-identity surface.
        assert canonical_metrics(result.metrics) == canonical_metrics(serial)
        assert "sync_profile" not in canonical_metrics(result.metrics)
