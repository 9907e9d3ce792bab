"""``sim_inputs``: one run description, one path to engine inputs."""

import pytest

from repro.experiments import Scenario
from repro.experiments.tasks import sim_inputs
from repro.topology import TorusTopology
from repro.types import gbps
from repro.workloads import FixedSize, permutation_load_trace, poisson_trace

pytestmark = pytest.mark.experiments


def test_crossval_defaults_live_in_its_kind():
    # Figure 7's pair: what its task used to build by hand.
    scenario = Scenario(
        name="crossval", kind="crossval", dims=(4, 4), capacity_bps=gbps(5),
        params={"n_flows": 12, "trace_seed": 21},
    )
    topology, trace, config, failed = sim_inputs(scenario, seed=5)
    assert trace == poisson_trace(
        TorusTopology((4, 4), capacity_bps=gbps(5)), 12, 150_000,
        sizes=FixedSize(1_000_000), seed=21,
    )
    assert (config.stack, config.mtu_payload, config.seed) == ("r2c2", 8192, 21)
    assert failed == [] and topology.capacity_bps == gbps(5)


def test_sim_kind_keeps_the_section_5_defaults():
    scenario = Scenario(name="sim", dims=(3, 3), params={"n_flows": 5})
    _topology, trace, config, _failed = sim_inputs(scenario, seed=9)
    assert len(trace) == 5 and config.mtu_payload == 1500 and config.seed == 9
    assert not config.audit_strict  # a campaign records violations, never raises


def test_selection_trace_is_the_permutation_workload():
    scenario = Scenario(
        name="sel", kind="selection", dims=(4, 4),
        params={"load": 0.5, "trace_seed": 4, "protocol": "vlb"},
    )
    topology, trace, _config, _failed = sim_inputs(scenario, seed=1)
    assert trace == permutation_load_trace(topology, 0.5, protocol="vlb", seed=4)
