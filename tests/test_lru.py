"""Tests for the bounded-LRU mapping behind the allocation memo."""

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

    def test_eviction_drops_least_recently_used(self):
        lru = BoundedLru(2)
        lru["a"] = 1
        lru["b"] = 2
        lru["c"] = 3  # evicts "a", the oldest untouched entry
        assert lru.get("a") is None
        assert (lru.get("b"), lru.get("c")) == (2, 3)
        assert len(lru) == 2

    def test_hit_refreshes_against_eviction(self):
        lru = BoundedLru(2)
        lru["a"] = 1
        lru["b"] = 2
        assert lru.get("a") == 1  # "a" becomes most recently used
        lru["c"] = 3  # must evict "b", not the refreshed "a"
        assert lru.get("a") == 1
        assert lru.get("b") is None

    def test_overwrite_refreshes_without_growth(self):
        lru = BoundedLru(2)
        lru["a"] = 1
        lru["b"] = 2
        lru["a"] = 10  # refresh by reassignment
        lru["c"] = 3
        assert lru.get("a") == 10
        assert lru.get("b") is None
        assert len(lru) == 2
