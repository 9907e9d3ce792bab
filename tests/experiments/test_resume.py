"""Checkpoint/resume semantics: kill a campaign mid-run, resume it, and the
aggregate results are byte-identical to an uninterrupted run — with only the
missing tasks re-executed (satellite 4 of the campaign-runner PR).

The kill is injected through :class:`repro.validation.FaultEvent`, the same
deterministic fault-injection vocabulary the validation subsystem uses.
"""

import json

import pytest

from repro.experiments import Campaign, ExecutorConfig, Scenario, run_campaign
from repro.validation import FaultEvent

pytestmark = pytest.mark.experiments


def make_campaign():
    scenarios = [
        Scenario(name=f"cell{i}", kind="probe", dims=(2, 2), replicates=2)
        for i in range(3)
    ]
    return Campaign(name="resumable", scenarios=scenarios, seed=42)


def aggregate_bytes(run):
    return json.dumps(run.results, sort_keys=True).encode()


def test_kill_then_resume_is_byte_identical(tmp_path):
    campaign = make_campaign()
    # Reference: one uninterrupted run (separate cache).
    reference = run_campaign(
        campaign, ExecutorConfig(workers=1), cache_dir=tmp_path / "ref"
    )
    assert reference.complete

    # Interrupted run: the kill_campaign fault stops after 2 fresh tasks.
    cache_dir = tmp_path / "cache"
    killed = run_campaign(
        campaign,
        ExecutorConfig(workers=1),
        cache_dir=cache_dir,
        fault_events=[FaultEvent(at_ns=2, kind="kill_campaign", target=None)],
    )
    assert killed.status == "interrupted"
    assert killed.manifest["counts"]["computed"] == 2
    assert killed.manifest["counts"]["pending"] == 4

    # Resume: only the 4 missing tasks run; the 2 completed are cache hits.
    resumed = run_campaign(campaign, ExecutorConfig(workers=1), cache_dir=cache_dir)
    assert resumed.complete
    assert resumed.manifest["counts"]["cache_hits"] == 2
    assert resumed.manifest["counts"]["computed"] == 4

    assert aggregate_bytes(resumed) == aggregate_bytes(reference)


def test_double_kill_then_resume(tmp_path):
    """Two successive crashes still converge, one increment at a time."""
    campaign = make_campaign()
    cache_dir = tmp_path / "cache"
    kill = [FaultEvent(at_ns=2, kind="kill_campaign", target=None)]

    first = run_campaign(
        campaign, ExecutorConfig(workers=1), cache_dir=cache_dir, fault_events=kill
    )
    second = run_campaign(
        campaign, ExecutorConfig(workers=1), cache_dir=cache_dir, fault_events=kill
    )
    assert first.status == second.status == "interrupted"
    assert second.manifest["counts"]["cache_hits"] == 2
    final = run_campaign(campaign, ExecutorConfig(workers=1), cache_dir=cache_dir)
    assert final.complete
    assert final.manifest["counts"]["cache_hits"] == 4
    assert final.manifest["counts"]["computed"] == 2

    reference = run_campaign(
        campaign, ExecutorConfig(workers=1), cache_dir=tmp_path / "ref"
    )
    assert aggregate_bytes(final) == aggregate_bytes(reference)


def test_fully_cached_resume_computes_nothing(tmp_path):
    campaign = make_campaign()
    cache_dir = tmp_path / "cache"
    run_campaign(campaign, ExecutorConfig(workers=1), cache_dir=cache_dir)
    rerun = run_campaign(campaign, ExecutorConfig(workers=1), cache_dir=cache_dir)
    assert rerun.complete
    assert rerun.manifest["counts"]["cache_hits"] == 6
    assert rerun.manifest["counts"]["computed"] == 0


def test_resume_after_chaos_shares_cache_with_clean_runs(tmp_path):
    """Injected worker failures (retry chaos) never perturb cache keys, so
    a chaotic interrupted run and a clean resume share every record."""
    campaign = make_campaign()
    cache_dir = tmp_path / "cache"
    chaotic = run_campaign(
        campaign,
        ExecutorConfig(workers=1, backoff_s=0.0),
        cache_dir=cache_dir,
        fault_events=[
            FaultEvent(at_ns=2, kind="kill_campaign", target=None),
            FaultEvent(at_ns=1, kind="worker_failure", target="cell0/r0"),
        ],
    )
    assert chaotic.status == "interrupted"
    assert chaotic.manifest["counts"]["retries"] == 1
    resumed = run_campaign(campaign, ExecutorConfig(workers=1), cache_dir=cache_dir)
    assert resumed.complete
    assert resumed.manifest["counts"]["cache_hits"] == 2

    reference = run_campaign(
        campaign, ExecutorConfig(workers=1), cache_dir=tmp_path / "ref"
    )
    assert aggregate_bytes(resumed) == aggregate_bytes(reference)


def test_manifest_write_sweeps_what_a_killed_write_left(tmp_path):
    campaign = make_campaign()
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    name = f"manifest-{campaign.name}.json"
    stale = cache_dir / f".{name}.k1ll3d.tmp"
    stale.write_text("{half")
    look_alike = cache_dir / f".{name}.old.k1ll3d.tmp"
    look_alike.write_text("not ours")
    run = run_campaign(campaign, ExecutorConfig(workers=1), cache_dir=cache_dir)
    assert run.complete
    assert not stale.exists()
    assert look_alike.exists()
    assert json.loads((cache_dir / name).read_text())["status"] == "complete"
