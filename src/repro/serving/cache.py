"""LRU cache of built incremental views, keyed by plan shape + parameters.

The cache key is the pair :meth:`~repro.plan.PlanSpec.shape_key`
produces — the plan tree's structure with expression constants slotted out,
plus the constant tuple — so ``select(v > 10)`` and ``select(v > 25)`` over the
same template occupy two entries under one *shape*, and the server can bind
new parameters into a registered template without re-deriving the plan.

>>> cache = PlanCache(capacity=2)
>>> cache.put("a", 1); cache.put("b", 2)
>>> cache.get("a")
1
>>> cache.put("c", 3)            # evicts "b" (least recently used)
>>> cache.get("b") is None
True
>>> cache.stats["evictions"], sorted(cache.keys())
(1, ['a', 'c'])
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterator

from repro.errors import ServingError

__all__ = ["PlanCache"]


class PlanCache:
    """A bounded LRU mapping from cache keys to built views.

    ``capacity`` bounds the number of *views* held (each maintains a
    materialised result, so the cap is the serving layer's memory knob);
    inserting past it evicts the least recently used entry.  ``get`` /
    ``put`` refresh recency and update the hit/miss/eviction counters;
    :meth:`peek` reads without touching either.
    """

    __slots__ = ("_capacity", "_entries", "hits", "misses", "evictions")

    def __init__(self, capacity: int = 32):
        if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
            raise ServingError(f"cache capacity must be a positive integer, got {capacity!r}")
        self._capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def stats(self) -> dict:
        """Counter snapshot: hits, misses, evictions, current size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
        }

    def get(self, key: Hashable):
        """The cached value (refreshing recency), or ``None`` on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def peek(self, key: Hashable):
        """The cached value without touching recency or the counters."""
        return self._entries.get(key)

    def put(self, key: Hashable, value) -> None:
        """Insert (or refresh) an entry, evicting LRU entries past capacity."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def evict(self, key: Hashable) -> bool:
        """Drop one entry (not counted as an LRU eviction); ``True`` if present."""
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        self._entries.clear()

    def keys(self) -> Iterator[Hashable]:
        return iter(tuple(self._entries.keys()))

    def values(self) -> Iterator:
        return iter(tuple(self._entries.values()))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries
