"""Tests for the bounded-LRU mapping behind the allocation caches."""

import pytest

from repro.lru import BoundedLru


class TestBoundedLru:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedLru(0)

    def test_get_hit_and_miss(self):
        lru = BoundedLru(4)
        lru["a"] = 1
        assert lru.get("a") == 1
        assert lru.get("b") is None
        assert lru.get("b", "fallback") == "fallback"
        assert lru.hits == 1
        assert lru.misses == 2

    def test_getitem_raises_on_miss(self):
        lru = BoundedLru(2)
        with pytest.raises(KeyError):
            lru["missing"]

    def test_eviction_drops_least_recently_used(self):
        lru = BoundedLru(2)
        lru["a"] = 1
        lru["b"] = 2
        lru["c"] = 3  # evicts "a", the oldest untouched entry
        assert "a" not in lru
        assert set(lru.keys()) == {"b", "c"}
        assert len(lru) == 2

    def test_hit_refreshes_against_eviction(self):
        lru = BoundedLru(2)
        lru["a"] = 1
        lru["b"] = 2
        assert lru.get("a") == 1  # "a" becomes most recently used
        lru["c"] = 3  # must evict "b", not the refreshed "a"
        assert "a" in lru
        assert "b" not in lru

    def test_overwrite_refreshes_without_growth(self):
        lru = BoundedLru(2)
        lru["a"] = 1
        lru["b"] = 2
        lru["a"] = 10  # refresh by reassignment
        lru["c"] = 3
        assert lru["a"] == 10
        assert "b" not in lru
        assert len(lru) == 2

    def test_pop_and_clear(self):
        lru = BoundedLru(2)
        lru["a"] = 1
        assert lru.pop("a") == 1
        assert lru.pop("a", "gone") == "gone"
        lru["b"] = 2
        lru.clear()
        assert len(lru) == 0

    def test_values_iteration_does_not_reorder(self):
        lru = BoundedLru(3)
        lru["a"] = 1
        lru["b"] = 2
        # Iterating values() must not count as use (no move-to-end), so it
        # is safe inside loops that also index the cache.
        list(lru.values())
        lru["c"] = 3
        lru["d"] = 4  # evicts "a": values() did not refresh it
        assert "a" not in lru


class TestByteBudget:
    """``max_bytes`` bounds the summed ``sizeof`` of the values as well."""

    def test_budget_and_sizeof_go_together(self):
        with pytest.raises(ValueError):
            BoundedLru(4, max_bytes=10)
        with pytest.raises(ValueError):
            BoundedLru(4, sizeof=len)

    def test_eviction_by_bytes(self):
        lru = BoundedLru(100, max_bytes=10, sizeof=len)
        lru["a"] = "xxxx"
        lru["b"] = "xxxx"
        assert lru.nbytes == 8
        lru["c"] = "xxxx"  # 12 bytes: the oldest entry goes
        assert list(lru.keys()) == ["b", "c"]
        assert lru.nbytes == 8
        lru["d"] = "xxxxxxxxx"  # 9 bytes: both others must go
        assert list(lru.keys()) == ["d"]
        assert lru.nbytes == 9

    def test_eviction_by_count_still_applies(self):
        lru = BoundedLru(2, max_bytes=1000, sizeof=len)
        for key in "abc":
            lru[key] = "x"
        assert list(lru.keys()) == ["b", "c"]
        assert lru.nbytes == 2

    def test_newest_entry_survives_alone_over_budget(self):
        lru = BoundedLru(4, max_bytes=3, sizeof=len)
        lru["small"] = "x"
        lru["huge"] = "xxxxxxxx"
        assert list(lru.keys()) == ["huge"]
        assert lru.nbytes == 8
        lru["next"] = "xx"  # the oversized entry is evictable like any other
        assert list(lru.keys()) == ["next"]
        assert lru.nbytes == 2

    def test_hit_refreshes_against_byte_eviction(self):
        lru = BoundedLru(100, max_bytes=8, sizeof=len)
        lru["a"] = "xxxx"
        lru["b"] = "xxxx"
        assert lru.get("a") == "xxxx"
        lru["c"] = "xxxx"
        assert list(lru.keys()) == ["a", "c"]

    def test_replacing_a_live_key_adjusts_the_total(self):
        lru = BoundedLru(4, max_bytes=100, sizeof=len)
        lru["a"] = "xxxxxx"
        lru["b"] = "xx"
        lru["a"] = "x"
        assert lru.nbytes == 3
        assert list(lru.keys()) == ["b", "a"]  # reassignment refreshes

    def test_pop_and_clear_reset_the_total(self):
        lru = BoundedLru(4, max_bytes=100, sizeof=len)
        lru["a"] = "xxx"
        lru["b"] = "xx"
        assert lru.pop("a") == "xxx"
        assert lru.nbytes == 2
        assert lru.pop("a", "gone") == "gone"
        assert lru.nbytes == 2
        lru.clear()
        assert lru.nbytes == 0 and len(lru) == 0
        lru["c"] = "x"
        assert lru.nbytes == 1

    def test_count_only_cache_reports_zero_bytes(self):
        lru = BoundedLru(2)
        lru["a"] = "xxxx"
        assert lru.nbytes == 0
