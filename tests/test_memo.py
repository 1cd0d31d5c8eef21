"""The one bounded-memo type behind every process-wide cache."""

from __future__ import annotations

import sys
import threading

from repro.arch.scheduler import IMBALANCE_MEMO
from repro.memo import BoundedMemo, clear_all, memo_stats


class TestBoundedMemo:
    def test_lru_order_capacity_and_counters(self):
        memo = BoundedMemo("test.lru", capacity=2)
        assert memo.get_or_compute("a", lambda: 1) == 1
        assert memo.get_or_compute("b", lambda: 2) == 2
        # A hit refreshes "a", so "b" is now the least recently used.
        assert memo.get_or_compute("a", lambda: 0) == 1
        memo.put("c", 3)
        assert "b" not in memo and "a" in memo and "c" in memo
        memo.put("a", 10)  # replaces and refreshes: "c" goes next
        memo.put("d", 4)
        assert "c" not in memo and len(memo) == 2
        assert memo.get_or_compute("a", lambda: 0) == 10
        assert (memo.hits, memo.misses, memo.evictions) == (2, 2, 2)

    def test_reentrant_compute(self):
        """The computation may consult the same memo (a wrapped device
        memoises the device it wraps)."""
        memo = BoundedMemo("test.reentrant", capacity=4)

        def outer():
            return ("wrapped", memo.get_or_compute("inner", lambda: "raw"))

        assert memo.get_or_compute("outer", outer) == ("wrapped", "raw")
        assert "inner" in memo and "outer" in memo
        assert memo.misses == 2

    def test_clear_all_empties_every_registered_memo(self):
        memo = BoundedMemo("test.clear_all", capacity=4)
        memo.put("k", 1)
        IMBALANCE_MEMO.put(("fp", 8, True), 1.5)
        clear_all()
        assert len(memo) == 0
        assert len(IMBALANCE_MEMO) == 0

    def test_memo_stats_lists_the_process_memos(self):
        stats = memo_stats()
        assert {"algorithms.transform", "algorithms.csr", "arch.device",
                "arch.imbalance", "graph.partition", "graph.hash_partition",
                "graph.hashed_graph", "graph.nonempty_blocks",
                "experiments.fig20_capped"} <= set(stats)
        assert stats["arch.imbalance"] == {
            "entries": len(IMBALANCE_MEMO), "capacity": 128,
            "hits": IMBALANCE_MEMO.hits, "misses": IMBALANCE_MEMO.misses,
            "evictions": IMBALANCE_MEMO.evictions}

    def test_threads_share_one_value_per_key(self):
        """More threads than cores and a short switch interval: every
        caller of a key gets the first value stored, and no counter
        update is lost."""
        memo = BoundedMemo("test.threads", capacity=16)
        results: list[list] = [[] for _ in range(8)]

        def work(t):
            for i in range(400):
                key = (t + i) % 12
                results[t].append((key, memo.get_or_compute(key, object)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,))
                       for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(memo) == 12
        stored = {key: memo.get_or_compute(key, object) for key in range(12)}
        assert all(v is stored[k] for pairs in results for k, v in pairs)
        assert memo.hits + memo.misses == 8 * 400 + 12
