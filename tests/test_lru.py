"""Unit tests for :class:`repro.lru.LruDict`, the one bounded LRU map."""

from __future__ import annotations

import pytest

from repro.lru import LruDict


def filled(*keys, capacity=3) -> LruDict:
    lru = LruDict(capacity)
    for key in keys:
        lru.put(key, key.upper())
    return lru


class TestCapacity:
    @pytest.mark.parametrize("capacity", [0, -1])
    def test_capacity_must_be_positive(self, capacity):
        with pytest.raises(ValueError):
            LruDict(capacity)

    def test_never_holds_more_than_capacity(self):
        lru = filled("a", "b", "c", "d", "e", capacity=2)
        assert len(lru) == 2
        assert list(lru) == ["d", "e"]


class TestRecency:
    def test_put_past_capacity_evicts_the_oldest(self):
        lru = filled("a", "b", "c")
        assert lru.put("d", "D") == ("a", "A")
        assert "a" not in lru
        assert list(lru) == ["b", "c", "d"]

    def test_get_promotes_to_most_recent(self):
        lru = filled("a", "b", "c")
        assert lru.get("a") == "A"
        assert lru.put("d", "D") == ("b", "B")
        assert list(lru) == ["c", "a", "d"]

    def test_put_of_a_present_key_replaces_and_promotes_without_evicting(self):
        lru = filled("a", "b", "c")
        assert lru.put("a", "A2") is None
        assert list(lru.items()) == [("b", "B"), ("c", "C"), ("a", "A2")]
        assert lru.evictions == 0

    def test_membership_and_iteration_do_not_promote(self):
        lru = filled("a", "b", "c")
        assert "a" in lru
        assert list(lru) == ["a", "b", "c"]
        assert list(lru.items()) == [("a", "A"), ("b", "B"), ("c", "C")]
        assert lru.put("d", "D") == ("a", "A")

    def test_delete_removes_the_entry(self):
        lru = filled("a", "b")
        del lru["a"]
        assert "a" not in lru and len(lru) == 1
        with pytest.raises(KeyError):
            del lru["a"]


class TestMissesAndNone:
    def test_get_returns_default_on_a_miss(self):
        lru = filled("a")
        assert lru.get("zz") is None
        assert lru.get("zz", "fallback") == "fallback"

    def test_sentinel_tells_a_stored_none_from_a_miss(self):
        missing = object()
        lru = LruDict(2)
        lru.put("none", None)
        assert lru.get("none", missing) is None
        assert lru.get("absent", missing) is missing

    def test_getitem_raises_on_a_miss(self):
        lru = filled("a")
        assert lru["a"] == "A"
        with pytest.raises(KeyError):
            lru["zz"]


class TestCounters:
    def test_hits_misses_and_evictions_are_counted(self):
        lru = filled("a", "b", capacity=2)
        lru.get("a")
        lru.get("a")
        lru.get("zz")
        lru.put("c", "C")
        assert (lru.hits, lru.misses, lru.evictions) == (2, 1, 1)

    def test_stats_shape(self):
        lru = filled("a", "b", "c", capacity=2)
        lru.get("c")
        lru.get("a")
        assert lru.stats() == {
            "entries": 2,
            "capacity": 2,
            "hits": 1,
            "misses": 1,
            "evictions": 1,
        }

    def test_clear_drops_entries_and_keeps_counters(self):
        lru = filled("a", "b", "c", capacity=2)
        lru.get("b")
        lru.clear()
        assert len(lru) == 0 and list(lru) == []
        assert (lru.hits, lru.evictions) == (1, 1)
