"""Generator and mutator properties: determinism and validity by construction.

The fuzzer's contract with the rest of the stack is that *every* scenario
it builds — generated or mutated, any seed — is a valid, runnable spec.
These tests hold the genome/assembly chokepoint to that, and to byte-level
determinism: the same seed must always produce the identical spec.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import Campaign, Scenario
from repro.experiments.tasks import _topology, sim_inputs
from repro.fuzz import (
    SAFETY_HORIZON_NS,
    assemble,
    generate_scenario,
    genome_of,
    mutate_scenario,
    sharding_eligible,
)

pytestmark = pytest.mark.fuzz

seeds = st.integers(min_value=0, max_value=2**63 - 1)


def _check_runnable(scenario: Scenario) -> None:
    """A spec is valid iff every construction step up to the simulation
    itself accepts it (``sim_inputs``: topology, storm, trace, SimConfig;
    for selection kind: topology, objective, protocol pool, search budget;
    for churn kind: topology, bounded op budget, fallback only on
    storm-safe grids)."""
    params = scenario.params_dict
    campaign = Campaign(name="probe", scenarios=(scenario,), seed=1)
    (task,) = campaign.expand()
    if scenario.kind == "churn":
        topology = _topology(scenario)
        # Bounded replay: the fuzz loop's safety contract for this kind.
        assert 0 < int(params["n_ops"]) <= 500
        assert 0 < int(params["max_flows"]) <= 64
        fallback_at = params.get("fallback_at")
        if fallback_at is not None:
            assert 0 <= int(fallback_at) < int(params["n_ops"])
            # Injection rides only grids that survive a symmetric loss.
            assert scenario.topology != "clos" and topology.n_nodes >= 8
            assert int(params["fail_links"]) >= 1
        return
    if scenario.kind == "selection":
        from repro.experiments.tasks import _make_objective
        from repro.routing.base import make_protocol

        topology = _topology(scenario)
        _make_objective(params)  # must resolve
        for protocol in params["protocols"]:
            make_protocol(protocol, topology)  # every candidate routable
        assert params["selector"] == "genetic"
        # Bounded search: the fuzz loop's safety contract for this kind.
        assert 0 < int(params["max_generations"]) <= 10
        assert 0 < int(params["patience"]) <= int(params["max_generations"])
        assert 0.0 < float(params["load"]) <= 1.0
        return
    trace = sim_inputs(scenario, task.seed)[1]
    assert len(trace) >= 1
    # Always audited, always bounded: the fuzz loop's safety contract.
    assert params["audit"] is True
    assert 0 < int(params["horizon_ns"]) <= SAFETY_HORIZON_NS


class TestGenerate:
    def test_same_seed_same_bytes(self):
        a = generate_scenario(1234, "x")
        b = generate_scenario(1234, "x")
        assert a == b
        assert a.to_json() == b.to_json()
        assert a.fingerprint() == b.fingerprint()

    def test_different_seeds_differ(self):
        specs = {generate_scenario(s, "x").fingerprint() for s in range(30)}
        assert len(specs) > 25  # the space is big; collisions are rare

    def test_name_only_changes_label_not_behavior_params(self):
        a = generate_scenario(99, "a")
        b = generate_scenario(99, "b")
        assert a.params == b.params
        assert a.fingerprint() != b.fingerprint()  # name is in the identity

    @given(seed=seeds)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_generated_scenarios_are_valid(self, seed):
        scenario = generate_scenario(seed, "gen")
        _check_runnable(scenario)

    @given(seed=seeds)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_genome_round_trip(self, seed):
        scenario = generate_scenario(seed, "gen")
        assert assemble(genome_of(scenario), "gen") == scenario


class TestMutate:
    @given(parent_seed=seeds, mut_seed=seeds)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_mutants_are_valid(self, parent_seed, mut_seed):
        parent = generate_scenario(parent_seed, "parent")
        mutant = mutate_scenario(parent, mut_seed, "mutant")
        _check_runnable(mutant)

    def test_mutation_deterministic(self):
        parent = generate_scenario(5, "p")
        a = mutate_scenario(parent, 17, "m")
        b = mutate_scenario(parent, 17, "m")
        assert a == b and a.to_json() == b.to_json()

    def test_mutation_changes_something(self):
        parent = generate_scenario(5, "p")
        changed = sum(
            mutate_scenario(parent, s, "p").content_dict()
            != parent.content_dict()
            for s in range(20)
        )
        assert changed >= 18  # seed re-draws alone almost always differ


class TestEligibility:
    def test_sharding_eligibility_matches_validate(self):
        from repro.distsim import validate_sharded_config

        for seed in range(40):
            scenario = generate_scenario(seed, "e")
            if sharding_eligible(scenario):
                validate_sharded_config(sim_inputs(scenario, 1)[2])  # must not raise

    @pytest.mark.parametrize("control_plane", ["shared", "per_node"])
    def test_pfq_is_never_eligible(self, control_plane):
        # A replayed or hand-written pfq scenario: its sharded run raises
        # whatever the control plane, so the differential must not run it.
        scenario = Scenario(
            "pfq", dims=(3, 3),
            params=(("control_plane", control_plane), ("n_flows", 4), ("stack", "pfq")),
        )
        assert not sharding_eligible(scenario)

    def test_eligibility_builds_no_run_inputs(self, monkeypatch):
        # Only the SimConfig decides: a failure storm that cannot be built
        # is the task's own finding, never a silently skipped differential.
        from repro.errors import SimulationError
        from repro.experiments import tasks

        def no_view(*_args):
            raise SimulationError("no connected view found")

        monkeypatch.setattr(tasks, "_apply_failure_storm", no_view)
        scenario = Scenario(
            "storm", dims=(3, 3),
            params=(("control_plane", "per_node"), ("fail_links", 2), ("n_flows", 4)),
        )
        assert sharding_eligible(scenario)


def test_spec_json_round_trip():
    scenario = generate_scenario(7, "rt")
    again = Scenario.from_json(scenario.to_json())
    assert again == scenario
    assert json.loads(scenario.to_json()) == json.loads(again.to_json())
