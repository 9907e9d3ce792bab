"""A small bounded LRU mapping for the allocation memo.

Per-node controllers share one memo of water-fill results keyed by table
content: a dict with an upper bound on entries, where a *hit* refreshes an
entry's position and eviction removes the least recently used one.
``functools.lru_cache`` does not fit (the key is computed by the caller and
entries are inserted explicitly), so this module provides a tiny mapping
built on ``OrderedDict``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any


class BoundedLru:
    """A mapping bounded to *capacity* entries with LRU eviction.

    ``get`` counts as a use (move-to-end); inserting past capacity evicts
    the least recently used entry.  The interface is the subset of ``dict``
    the memo exercises.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._data: "OrderedDict[Any, Any]" = OrderedDict()

    def get(self, key, default=None):
        """Return the value for *key* (refreshing it) or *default*."""
        try:
            value = self._data[key]
        except KeyError:
            return default
        self._data.move_to_end(key)
        return value

    def __setitem__(self, key, value) -> None:
        self._data.pop(key, None)
        self._data[key] = value
        if len(self._data) > self._capacity:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)
