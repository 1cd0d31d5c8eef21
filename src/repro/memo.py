"""One bounded-memo type for every process-wide in-memory cache.

Partitions, CSR views, streamed transforms, device cost tables and the
other pure functions of graph content are memoised per process.  Each
memo is a :class:`BoundedMemo`: an LRU map with a fixed entry capacity
and plain hit/miss/eviction counters.  Every memo registers itself by
name, so :func:`clear_all` empties all of them at once (what a "cold"
measurement needs) and :func:`memo_stats` reports them side by side.

The module imports nothing from the package, so any layer can own a
memo without an import cycle.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

_REGISTRY: dict[str, "BoundedMemo"] = {}
_MISSING = object()


class BoundedMemo:
    """A named, thread-safe LRU memo holding at most ``capacity`` entries."""

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        _REGISTRY[name] = self

    def get_or_compute(self, key: Hashable, fn: Callable[[], object]):
        """The value for ``key``, computing and remembering it on a miss.

        ``fn`` runs outside the lock, so it may itself consult this
        memo (a wrapped device memoises the device it wraps).  When two
        threads miss on one key together, the first value stored wins
        and both callers return it.
        """
        with self._lock:  # one lookup: frozen-config keys hash slowly
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self.hits += 1
                return value
            self.misses += 1
        value = fn()
        with self._lock:
            if key not in self._entries:
                self._insert(key, value)
            return self._entries[key]

    def put(self, key: Hashable, value: object) -> None:
        """Store ``value`` under ``key`` (most recently used)."""
        with self._lock:
            self._entries.pop(key, None)
            self._insert(key, value)

    def _insert(self, key: Hashable, value: object) -> None:
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (the counters keep counting)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries


def clear_all() -> None:
    """Empty every registered memo, as in a fresh process."""
    for memo in list(_REGISTRY.values()):
        memo.clear()


def memo_stats() -> dict[str, dict[str, int]]:
    """Size, capacity and counters of every registered memo, by name."""
    return {
        name: {"entries": len(memo), "capacity": memo.capacity,
               "hits": memo.hits, "misses": memo.misses,
               "evictions": memo.evictions}
        for name, memo in sorted(_REGISTRY.items())
    }
