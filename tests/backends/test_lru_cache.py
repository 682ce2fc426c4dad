"""The service's in-memory LRU: eviction order, accounting, thread safety."""

import threading

from repro.backends.service import _LruCache


class TestLruBasics:
    def test_miss_then_hit(self):
        cache = _LruCache(maxsize=4)
        assert cache.get("a") is None
        cache.put_if_absent("a", 1)
        assert cache.get("a") == 1
        info = cache.info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_put_if_absent_keeps_the_first_entry(self):
        cache = _LruCache(maxsize=4)
        assert cache.put_if_absent("a", 1) == 1
        assert cache.put_if_absent("a", 2) == 1  # no overwrite: the kept entry
        assert cache.get("a") == 1
        info = cache.info()
        assert (info.hits, info.misses, info.currsize) == (1, 0, 1)

    def test_evicts_least_recently_used(self):
        cache = _LruCache(maxsize=2)
        cache.put_if_absent("a", 1)
        cache.put_if_absent("b", 2)
        cache.put_if_absent("c", 3)  # evicts "a"
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3

    def test_get_refreshes_recency(self):
        cache = _LruCache(maxsize=2)
        cache.put_if_absent("a", 1)
        cache.put_if_absent("b", 2)
        assert cache.get("a") == 1  # "a" is now most recent
        cache.put_if_absent("c", 3)  # evicts "b", not "a"
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_put_refreshes_recency(self):
        cache = _LruCache(maxsize=2)
        cache.put_if_absent("a", 1)
        cache.put_if_absent("b", 2)
        assert cache.put_if_absent("a", 10) == 1  # keeps 1: "a" most recent
        cache.put_if_absent("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_eviction_is_fifo_among_untouched(self):
        cache = _LruCache(maxsize=3)
        for key in "abc":
            cache.put_if_absent(key, key)
        cache.put_if_absent("d", "d")
        cache.put_if_absent("e", "e")
        assert cache.get("a") is None
        assert cache.get("b") is None
        assert [cache.get(k) for k in "cde"] == ["c", "d", "e"]

    def test_clear_resets_entries_and_counters(self):
        cache = _LruCache(maxsize=4)
        cache.put_if_absent("a", 1)
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        info = cache.info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        assert cache.get("a") is None  # still functional after clear

    def test_info_reports_maxsize(self):
        assert _LruCache(maxsize=7).info().maxsize == 7


class TestLruThreadSafety:
    def test_concurrent_mixed_operations_keep_invariants(self):
        cache = _LruCache(maxsize=16)
        errors = []

        def worker(worker_id: int) -> None:
            try:
                for i in range(300):
                    key = (worker_id * 7 + i) % 24
                    cache.put_if_absent(key, key)
                    value = cache.get(key)
                    assert value is None or value == key
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        info = cache.info()
        assert info.currsize <= 16
        assert info.hits + info.misses == 8 * 300

    def test_racing_stores_of_one_key_all_get_the_first(self):
        cache = _LruCache(maxsize=4)
        start = threading.Barrier(8)
        kept = [None] * 8

        def worker(worker_id: int) -> None:
            start.wait()
            kept[worker_id] = cache.put_if_absent("k", object())

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(value is kept[0] for value in kept)
        assert cache.get("k") is kept[0]
        assert cache.info().currsize == 1
