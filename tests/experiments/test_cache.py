"""Content-addressed result cache: hits, misses, corruption tolerance."""

import json

import pytest

from repro.experiments import Campaign, ResultCache, Scenario

pytestmark = pytest.mark.experiments


@pytest.fixture
def task():
    scenario = Scenario(name="probe", kind="probe", dims=(2, 2))
    return Campaign(name="c", scenarios=[scenario], seed=1).expand()[0]


def test_miss_then_hit(tmp_path, task):
    cache = ResultCache(tmp_path)
    assert cache.load(task) is None
    cache.store(task, {"value": 41})
    assert cache.load(task) == {"value": 41}
    assert cache.stats() == {"hits": 1, "misses": 1, "corrupt": 0}


def test_layout_is_sharded_by_fingerprint(tmp_path, task):
    cache = ResultCache(tmp_path)
    path = cache.store(task, {"value": 1})
    fp = task.fingerprint()
    assert path == tmp_path / fp[:2] / f"{fp}.json"
    assert path.exists()


def test_record_is_self_describing(tmp_path, task):
    cache = ResultCache(tmp_path)
    record = json.loads(cache.store(task, {"value": 1}).read_text())
    assert record["fingerprint"] == task.fingerprint()
    assert record["key"] == task.key
    assert record["seed"] == task.seed
    assert record["scenario"]["name"] == "probe"


def test_corrupt_json_is_a_counted_miss(tmp_path, task):
    cache = ResultCache(tmp_path)
    path = cache.path_for(task.fingerprint())
    path.parent.mkdir(parents=True)
    path.write_text('{"fingerprint": truncated')
    assert cache.load(task) is None
    assert cache.corrupt == 1 and cache.misses == 1


def test_fingerprint_mismatch_is_a_counted_miss(tmp_path, task):
    cache = ResultCache(tmp_path)
    path = cache.path_for(task.fingerprint())
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"fingerprint": "0" * 64, "result": {}}))
    assert cache.load(task) is None
    assert cache.corrupt == 1


def test_missing_result_field_is_a_counted_miss(tmp_path, task):
    cache = ResultCache(tmp_path)
    path = cache.path_for(task.fingerprint())
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"fingerprint": task.fingerprint()}))
    assert cache.load(task) is None
    assert cache.corrupt == 1


def test_store_overwrites_corrupt_record(tmp_path, task):
    cache = ResultCache(tmp_path)
    path = cache.path_for(task.fingerprint())
    path.parent.mkdir(parents=True)
    path.write_text("garbage")
    assert cache.load(task) is None
    cache.store(task, {"value": 7})
    assert cache.load(task) == {"value": 7}


def test_store_sweeps_what_a_killed_write_left(tmp_path, task):
    """A kill between an atomic write's temporary and its rename leaves a
    ``.<name>.<token>.tmp`` sibling; the next store of that path deletes
    it, and only it."""
    cache = ResultCache(tmp_path)
    path = cache.store(task, {"value": 1})
    stale = path.parent / f".{path.name}.k1ll3d.tmp"
    stale.write_text("{half")
    look_alike = path.parent / f".{path.name}.bak.k1ll3d.tmp"
    look_alike.write_text("not ours")
    assert cache.stale_tmp_swept == 0
    cache.store(task, {"value": 2})
    assert not stale.exists()
    assert look_alike.exists()
    assert cache.stale_tmp_swept == 1
    assert cache.load(task) == {"value": 2}
