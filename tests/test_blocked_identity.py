"""Equivalence of the fused block-major executor and the reference.

The blocked engine permutes edges once into block-major order and
dispatches whole super-block rows in fused calls; these tests pin down
that none of that reordering changes the answer, across PU counts,
interval counts, and weighted/unweighted graphs.

Min/label-propagation algorithms (BFS, CC, SSSP) must be *bit*
identical: min is order-independent.  Sum-based algorithms (PR, SpMV)
accumulate floating point in a different order per block, so they are
compared to tight tolerance instead.
"""

import numpy as np
import pytest

from repro.algorithms import (
    BFS,
    ConnectedComponents,
    PageRank,
    SSSP,
    SpMV,
    run_blocked,
    run_vectorized,
)
from repro.graph import IntervalBlockPartition
from repro.graph.partition import _PARTITION_MEMO

EXACT = [BFS, ConnectedComponents, SSSP]
SUMMED = [PageRank, SpMV]
GRIDS = [(4, 1), (4, 2), (4, 4), (8, 1), (8, 2), (8, 4)]


def _graphs(small_rmat, weighted_graph):
    return {"unweighted": small_rmat, "weighted": weighted_graph}


class TestExactIdentity:
    @pytest.mark.parametrize("factory", EXACT)
    @pytest.mark.parametrize("p,n", GRIDS)
    def test_min_based_bit_identical(self, factory, p, n, small_rmat,
                                     weighted_graph):
        for graph in (small_rmat, weighted_graph):
            vec = run_vectorized(factory(), graph)
            blk = run_blocked(factory(), graph, num_intervals=p, num_pus=n)
            np.testing.assert_array_equal(blk.values, vec.values)
            assert blk.iterations == vec.iterations
            assert blk.active_sources == vec.active_sources


class TestSummedEquivalence:
    @pytest.mark.parametrize("factory", SUMMED)
    @pytest.mark.parametrize("p,n", GRIDS)
    def test_sum_based_close(self, factory, p, n, small_rmat,
                             weighted_graph):
        for graph in (small_rmat, weighted_graph):
            vec = run_vectorized(factory(), graph)
            blk = run_blocked(factory(), graph, num_intervals=p, num_pus=n)
            np.testing.assert_allclose(blk.values, vec.values,
                                       rtol=1e-12, atol=1e-12)
            assert blk.iterations == vec.iterations


class TestPartitionMemo:
    def test_cached_returns_same_object(self, small_rmat):
        _PARTITION_MEMO.clear()
        a = IntervalBlockPartition.cached(small_rmat, 8)
        b = IntervalBlockPartition.cached(small_rmat, 8)
        assert a is b
        assert len(_PARTITION_MEMO) == 1

    def test_blocked_runs_share_one_partition(self, small_rmat):
        """Two blocked executions at the same P reuse the memoised
        partition: the permute-once preprocessing really happens once."""
        _PARTITION_MEMO.clear()
        run_blocked(PageRank(), small_rmat, num_intervals=8, num_pus=2)
        assert len(_PARTITION_MEMO) == 1
        run_blocked(BFS(0), small_rmat, num_intervals=8, num_pus=4)
        # BFS streams the same (unweighted) graph at the same P: no new
        # partition was built.
        assert len(_PARTITION_MEMO) == 1

    def test_distinct_p_distinct_entries(self, small_rmat):
        _PARTITION_MEMO.clear()
        IntervalBlockPartition.cached(small_rmat, 4)
        IntervalBlockPartition.cached(small_rmat, 8)
        assert len(_PARTITION_MEMO) == 2

    def test_streamed_edges_preserve_multiset(self, small_rmat):
        part = IntervalBlockPartition.cached(small_rmat, 8)
        src, dst, weights = part.streamed_edges
        assert weights is None
        original = sorted(zip(small_rmat.src.tolist(),
                              small_rmat.dst.tolist()))
        permuted = sorted(zip(src.tolist(), dst.tolist()))
        assert permuted == original
