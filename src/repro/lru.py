"""The one bounded LRU map, shared by the search, engine and serving caches.

It lives outside every subsystem so none of them imports another just to
bound a cache.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator


class LruDict:
    """A bounded mapping with LRU eviction (insertion-order based).

    ``get`` promotes a hit to most recently used; ``put`` past ``capacity``
    evicts the least recently used entry.  Iteration runs from least to most
    recently used and promotes nothing.  ``hits``, ``misses`` and
    ``evictions`` count over the map's lifetime (``clear`` keeps them).

    Not thread-safe: a map shared between threads is guarded by its owner's
    lock around every call.
    """

    __slots__ = ("capacity", "_entries", "hits", "misses", "evictions")

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("LruDict capacity must be positive")
        self.capacity = capacity
        self._entries: dict[Hashable, Any] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._entries)

    def items(self):
        """``(key, value)`` pairs, least recently used first."""
        return self._entries.items()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value for ``key`` (promoted to most recently used), else ``default``.

        Pass a private sentinel as ``default`` to tell a stored ``None`` from
        a miss.
        """
        if key in self._entries:
            value = self._entries.pop(key)
            self._entries[key] = value  # re-insert: most recently used
            self.hits += 1
            return value
        self.misses += 1
        return default

    def __getitem__(self, key: Hashable) -> Any:
        if key not in self._entries:
            raise KeyError(key)
        return self.get(key)

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self.put(key, value)

    def __delitem__(self, key: Hashable) -> None:
        del self._entries[key]

    def put(self, key: Hashable, value: Any) -> tuple[Hashable, Any] | None:
        """Store ``value`` as most recently used.

        Returns the ``(key, value)`` pair evicted to make room, or None when
        nothing was evicted.
        """
        evicted = None
        if key in self._entries:
            self._entries.pop(key)
        elif len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            evicted = (oldest, self._entries.pop(oldest))
            self.evictions += 1
        self._entries[key] = value
        return evicted

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
