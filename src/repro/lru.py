"""A small bounded LRU mapping used by the performance-critical caches.

The allocation memo shared by per-node controllers and the
:class:`~repro.congestion.linkweights.WeightProvider` level-matrix cache
both need the same thing: a dict with an upper bound on entries (and, for
the matrices, on the bytes they hold), where a *hit* refreshes an entry's
position and eviction removes the least recently used one.
``functools.lru_cache`` does not fit (the key is computed by the caller and
entries are inserted explicitly), so this module provides a tiny mapping
built on ``OrderedDict``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Iterator, Optional


class BoundedLru:
    """A mapping bounded to *capacity* entries with LRU eviction.

    ``get`` and ``__getitem__`` count as uses (move-to-end); inserting past
    capacity evicts the least recently used entry.  With *max_bytes* the
    values' summed *sizeof* is bounded too: entries are evicted, oldest
    first, until the total fits — except the newest, which is kept even if
    it alone exceeds the budget.  The interface is the subset of ``dict``
    the caches actually exercise.
    """

    def __init__(
        self,
        capacity: int,
        max_bytes: Optional[int] = None,
        sizeof: Optional[Callable[[Any], int]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if (max_bytes is None) != (sizeof is None):
            raise ValueError("max_bytes and sizeof go together")
        self._capacity = capacity
        self._max_bytes = max_bytes or 0
        self._sizeof = sizeof or _no_size
        self._nbytes = 0
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    @property
    def capacity(self) -> int:
        """Maximum number of entries retained."""
        return self._capacity

    @property
    def nbytes(self) -> int:
        """Summed *sizeof* of the retained values (0 without a byte budget)."""
        return self._nbytes

    def get(self, key, default=None):
        """Return the value for *key* (refreshing it) or *default*."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def __getitem__(self, key):
        value = self.get(key, _SENTINEL)
        if value is _SENTINEL:
            raise KeyError(key)
        return value

    def __setitem__(self, key, value) -> None:
        self.pop(key)
        self._data[key] = value
        self._nbytes += self._sizeof(value)
        while len(self._data) > self._capacity or (
            self._nbytes > self._max_bytes and len(self._data) > 1
        ):
            self._nbytes -= self._sizeof(self._data.popitem(last=False)[1])

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator:
        return iter(self._data)

    def pop(self, key, default=None):
        """Remove *key* and return its value (or *default*)."""
        value = self._data.pop(key, _SENTINEL)
        if value is _SENTINEL:
            return default
        self._nbytes -= self._sizeof(value)
        return value

    def clear(self) -> None:
        """Drop every entry (the hit/miss counters are kept)."""
        self._data.clear()
        self._nbytes = 0

    def keys(self):
        """Current keys, least recently used first."""
        return self._data.keys()

    def values(self):
        """Current values, least recently used first (order untouched)."""
        return self._data.values()


_SENTINEL = object()


def _no_size(value) -> int:
    """Size of a value in a cache without a byte budget."""
    return 0
