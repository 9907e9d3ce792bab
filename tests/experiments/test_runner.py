"""The campaign executor: determinism, retries, timeouts, degradation."""

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    Campaign,
    ExecutorConfig,
    Scenario,
    run_campaign,
)
from repro.validation import FaultEvent

pytestmark = pytest.mark.experiments


def probe_campaign(n_scenarios=4, replicates=2, seed=11, **params):
    scenarios = [
        Scenario(
            name=f"probe{i}", kind="probe", dims=(2, 2),
            params=params, replicates=replicates,
        )
        for i in range(n_scenarios)
    ]
    return Campaign(name="probes", scenarios=scenarios, seed=seed)


def test_serial_run_completes_in_expansion_order():
    campaign = probe_campaign()
    run = run_campaign(campaign, ExecutorConfig(workers=1))
    assert run.complete
    assert list(run.results) == [t.key for t in campaign.expand()]
    assert run.manifest["counts"] == {
        "tasks": 8,
        "cache_hits": 0,
        "computed": 8,
        "failed": 0,
        "pending": 0,
        "retries": 0,
        "corrupt_cache_records": 0,
    }


def test_parallel_results_byte_identical_to_serial():
    campaign = probe_campaign()
    serial = run_campaign(campaign, ExecutorConfig(workers=1))
    pooled = run_campaign(campaign, ExecutorConfig(workers=2))
    assert json.dumps(serial.results, sort_keys=True) == json.dumps(
        pooled.results, sort_keys=True
    )
    assert list(serial.results) == list(pooled.results)


def test_retry_on_injected_scenario_failure():
    # fail_attempts lives in the scenario params: the task fails its first
    # attempt and succeeds on retry.
    campaign = probe_campaign(n_scenarios=1, replicates=1, fail_attempts=1)
    config = ExecutorConfig(workers=1, max_retries=2, backoff_s=0.0)
    run = run_campaign(campaign, config)
    assert run.complete
    assert run.manifest["counts"]["retries"] == 1
    assert run.manifest["tasks"]["probe0/r0"]["attempts"] == 2


def test_forced_failures_do_not_change_fingerprints():
    # Chaos injection lives in the executor config, NOT the scenario, so
    # results (and cache keys) are identical with and without it.
    campaign = probe_campaign(n_scenarios=2, replicates=1)
    clean = run_campaign(campaign, ExecutorConfig(workers=1))
    chaotic = run_campaign(
        campaign,
        ExecutorConfig(
            workers=1, backoff_s=0.0,
            forced_failures={"probe0/r0": 1},
        ),
    )
    assert chaotic.complete
    assert chaotic.manifest["counts"]["retries"] == 1
    assert json.dumps(clean.results, sort_keys=True) == json.dumps(
        chaotic.results, sort_keys=True
    )


def test_worker_failure_fault_event_forces_retries():
    campaign = probe_campaign(n_scenarios=1, replicates=1)
    faults = [FaultEvent(at_ns=2, kind="worker_failure", target="probe0/r0")]
    run = run_campaign(
        campaign,
        ExecutorConfig(workers=1, max_retries=3, backoff_s=0.0),
        fault_events=faults,
    )
    assert run.complete
    assert run.manifest["counts"]["retries"] == 2


def test_exhausted_retries_fail_the_task_and_campaign():
    campaign = probe_campaign(n_scenarios=2, replicates=1, fail_attempts=99)
    run = run_campaign(campaign, ExecutorConfig(workers=1, max_retries=1, backoff_s=0.0))
    assert run.status == "failed"
    assert run.manifest["counts"]["failed"] == 2
    assert "probe0/r0" not in run.results
    assert "InjectedWorkerFailure" in run.manifest["tasks"]["probe0/r0"]["error"]


def test_strict_mode_raises_on_failure():
    campaign = probe_campaign(n_scenarios=1, replicates=1, fail_attempts=99)
    with pytest.raises(ExperimentError, match="failed after retries"):
        run_campaign(
            campaign,
            ExecutorConfig(workers=1, max_retries=0, backoff_s=0.0, strict=True),
        )


def test_kill_campaign_fault_interrupts_after_threshold():
    campaign = probe_campaign(n_scenarios=3, replicates=1)
    faults = [FaultEvent(at_ns=2, kind="kill_campaign", target=None)]
    run = run_campaign(campaign, ExecutorConfig(workers=1), fault_events=faults)
    assert run.status == "interrupted"
    assert run.manifest["counts"]["computed"] == 2
    assert run.manifest["counts"]["pending"] == 1
    assert run.manifest["tasks"]["probe2/r0"] == {"status": "pending"}


def test_pool_timeout_abandons_and_records_failure():
    campaign = probe_campaign(n_scenarios=1, replicates=1, sleep_s=1.0)
    run = run_campaign(
        campaign,
        ExecutorConfig(
            workers=2, task_timeout_s=0.3, max_retries=0, backoff_s=0.0
        ),
    )
    assert run.status == "failed"
    assert "timeout" in run.manifest["tasks"]["probe0/r0"]["error"]


def test_degrades_to_serial_when_pool_unavailable(monkeypatch):
    import repro.experiments.runner as runner_module

    def no_pool(*args, **kwargs):
        raise OSError("no processes for you")

    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", no_pool)
    campaign = probe_campaign(n_scenarios=2, replicates=1)
    run = run_campaign(campaign, ExecutorConfig(workers=4))
    assert run.complete
    assert run.manifest["mode"] == "serial"
    assert len(run.results) == 2


def test_manifest_written_atomically(tmp_path):
    campaign = probe_campaign(n_scenarios=1, replicates=1)
    manifest_path = tmp_path / "manifest.json"
    run = run_campaign(campaign, ExecutorConfig(workers=1), manifest_path=manifest_path)
    on_disk = json.loads(manifest_path.read_text())
    assert on_disk["campaign"] == "probes"
    assert on_disk["campaign_fingerprint"] == campaign.fingerprint()
    assert on_disk["status"] == run.status == "complete"
    assert on_disk["tasks"]["probe0/r0"]["status"] == "computed"


def test_invalid_executor_config():
    with pytest.raises(ExperimentError):
        ExecutorConfig(workers=0)
    with pytest.raises(ExperimentError):
        ExecutorConfig(max_retries=-1)
