"""Scenario/Campaign/Task specs: round-trips, fingerprints, seeds."""

import json

import pytest

from repro.core import derive_seed
from repro.errors import ExperimentError
from repro.experiments import CACHE_SCHEMA_VERSION, Campaign, Scenario, Task

pytestmark = pytest.mark.experiments


def make_scenario(**overrides):
    kwargs = dict(
        name="rps/uniform",
        kind="routing",
        topology="torus",
        dims=(8, 8),
        params={"protocol": "rps", "pattern": "uniform"},
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


# ----------------------------------------------------------------------
# Scenario
# ----------------------------------------------------------------------
def test_scenario_json_round_trip():
    scenario = make_scenario(replicates=3, capacity_bps=10e9)
    clone = Scenario.from_json(scenario.to_json())
    assert clone == scenario
    assert clone.fingerprint() == scenario.fingerprint()


def test_scenario_params_order_insensitive():
    a = make_scenario(params={"protocol": "rps", "pattern": "uniform"})
    b = make_scenario(params={"pattern": "uniform", "protocol": "rps"})
    assert a == b
    assert a.fingerprint() == b.fingerprint()


def test_scenario_fingerprint_sensitive_to_content():
    base = make_scenario()
    assert base.fingerprint() != make_scenario(dims=(4, 4)).fingerprint()
    assert (
        base.fingerprint()
        != make_scenario(params={"protocol": "dor", "pattern": "uniform"}).fingerprint()
    )
    assert base.fingerprint() != make_scenario(replicates=2).fingerprint()


def test_scenario_param_access():
    scenario = make_scenario()
    assert scenario.param("protocol") == "rps"
    assert scenario.param("absent", 42) == 42
    assert scenario.params_dict == {"protocol": "rps", "pattern": "uniform"}


def test_scenario_rejects_unknown_kind():
    with pytest.raises(ExperimentError, match="unknown kind"):
        make_scenario(kind="quantum")


def test_scenario_rejects_bad_replicates():
    with pytest.raises(ExperimentError, match="replicates"):
        make_scenario(replicates=0)


# ----------------------------------------------------------------------
# Campaign expansion
# ----------------------------------------------------------------------
def test_campaign_rejects_duplicate_scenario_names():
    with pytest.raises(ExperimentError, match="duplicate"):
        Campaign(name="c", scenarios=[make_scenario(), make_scenario()], seed=1)


def test_expand_keys_and_seeds():
    s1 = make_scenario(name="a", replicates=2)
    s2 = make_scenario(name="b")
    campaign = Campaign(name="c", scenarios=[s1, s2], seed=99)
    tasks = campaign.expand()
    assert [t.key for t in tasks] == ["a/r0", "a/r1", "b/r0"]
    # Seeds derive from (campaign seed, scenario fingerprint, replicate):
    # stable, distinct, and independent of sibling scenarios.
    assert tasks[0].seed == derive_seed(99, s1.fingerprint(), 0)
    assert len({t.seed for t in tasks}) == 3
    filtered = Campaign(name="c", scenarios=[s2], seed=99).expand()
    assert filtered[0].seed == tasks[2].seed
    assert filtered[0].fingerprint() == tasks[2].fingerprint()


def test_task_payload_round_trip():
    task = Campaign(name="c", scenarios=[make_scenario()], seed=5).expand()[0]
    clone = Task.from_payload(json.loads(json.dumps(task.to_payload())))
    assert clone == task
    assert clone.fingerprint() == task.fingerprint()


def test_task_fingerprint_includes_schema_version(monkeypatch):
    task = Campaign(name="c", scenarios=[make_scenario()], seed=5).expand()[0]
    before = task.fingerprint()
    import repro.experiments.spec as spec_module

    monkeypatch.setattr(spec_module, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1)
    assert task.fingerprint() != before


def test_task_fingerprint_includes_source_digest(monkeypatch):
    # A warm cache must not answer for edited code: the fingerprint covers
    # the repro source, so changing it (here: its digest) misses the cache.
    import repro.experiments.spec as spec_module

    task = Campaign(name="c", scenarios=[make_scenario()], seed=5).expand()[0]
    before = task.fingerprint()
    digest = spec_module.code_digest()
    assert len(digest) == 64 and spec_module.code_digest() == digest
    monkeypatch.setattr(spec_module, "code_digest", lambda: "0" * 64)
    assert task.fingerprint() != before


def test_campaign_json_round_trip():
    campaign = Campaign(
        name="c",
        scenarios=[make_scenario(name="a"), make_scenario(name="b")],
        seed=3,
        description="two cells",
    )
    clone = Campaign.from_json(campaign.to_json())
    assert clone == campaign
    assert clone.fingerprint() == campaign.fingerprint()
    assert [t.seed for t in clone.expand()] == [t.seed for t in campaign.expand()]
