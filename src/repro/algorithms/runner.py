"""Edge-centric execution: one convergence loop, several edge orders.

Algorithm 2 only changes the order in which Algorithm 1's loop streams
each iteration's edges, so there is one loop, :func:`converge`, and
each executor hands it a *sweep* that streams the edges in its order:

* :func:`run_vectorized` — one whole-graph pass; fastest, used to
  obtain results and iteration counts.
* :func:`run_blocked` — the exact super-block order of Algorithm 2
  (round-robin data sharing across PUs included), validating that the
  schedule computes the same answer.
* :func:`repro.graph.shards.run_sharded` — one shard of an on-disk
  store at a time (out of core).

They agree exactly for min-based algorithms and within 1e-12 for the
sum-based ones (the tests verify it).  The vertex-centric executor is
a different execution model with its own loop.

The *trace* the architecture model consumes is deliberately small: the
iteration count and per-iteration edge activity — every other access
count follows analytically from the schedule (Equations (3), (4), (7),
(8)) and is derived in :mod:`repro.arch.scheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConvergenceError
from ..graph.graph import Graph
from ..graph.partition import IntervalBlockPartition
from ..memo import BoundedMemo
from ..obs import metrics as obs_metrics
from ..obs.trace import get_tracer
from .base import EdgeCentricAlgorithm


@dataclass(frozen=True)
class AlgorithmRun:
    """Result of executing an algorithm to convergence.

    Attributes:
        algorithm: name of the algorithm.
        graph_name: name of the *streamed* graph (post transform).
        values: final per-vertex values.
        iterations: number of full edge sweeps executed.
        num_vertices: vertices of the streamed graph.
        edges_per_iteration: edges streamed per sweep (all of them; the
            paper applies no frontier optimisation).
        vertex_bits: serialised vertex width (from the algorithm).
        edge_bits: serialised edge width (64, or 96 with weights).
    """

    algorithm: str
    graph_name: str
    values: np.ndarray
    iterations: int
    num_vertices: int
    edges_per_iteration: int
    vertex_bits: int
    edge_bits: int
    #: Vertices whose value changed *entering* each iteration (the
    #: sources the scheduler must have on-chip); length == iterations.
    active_sources: tuple[int, ...] = ()

    @property
    def total_edges(self) -> int:
        """Total edges traversed across all iterations."""
        return self.iterations * self.edges_per_iteration


def converge(
    algorithm: EdgeCentricAlgorithm,
    streamed: Graph,
    sweep: Callable[[np.ndarray, np.ndarray, int], None],
    executor: str,
) -> AlgorithmRun:
    """Run ``algorithm`` on ``streamed`` to convergence (Algorithm 1).

    Each iteration starts the accumulator, lets ``sweep(values, acc,
    iteration)`` stream every edge through ``process_edges`` in the
    executor's order, then runs the ``apply`` phase.  Updates read
    previous-iteration source values only, so the order never changes
    the answer.
    """
    tracer = get_tracer()
    values = algorithm.initial_values(streamed)
    active = algorithm.initial_active(streamed)
    active_sources: list[int] = []
    iterations = 0
    with tracer.span("converge", executor=executor,
                     algorithm=algorithm.name, graph=streamed.name):
        while True:
            active_sources.append(active)
            acc = algorithm.iteration_start(values, streamed)
            sweep(values, acc, iterations)
            with tracer.span("apply", iteration=iterations):
                result = algorithm.iteration_end(
                    values, acc, streamed, iterations
                )
            values = result.values
            active = result.active_vertices
            iterations += 1
            if result.converged:
                break
            if iterations > algorithm.max_iterations:
                raise ConvergenceError(
                    f"{algorithm.name} exceeded "
                    f"{algorithm.max_iterations} sweeps"
                )
    metrics = obs_metrics.get_metrics()
    metrics.counter(obs_metrics.EXECUTOR_EDGES).add(
        iterations * streamed.num_edges
    )
    metrics.histogram(obs_metrics.CONVERGENCE_ITERATIONS).observe(iterations)
    return AlgorithmRun(
        algorithm=algorithm.name,
        graph_name=streamed.name,
        values=values,
        iterations=iterations,
        num_vertices=streamed.num_vertices,
        edges_per_iteration=streamed.num_edges,
        vertex_bits=algorithm.vertex_bits,
        edge_bits=algorithm.edge_bits,
        active_sources=tuple(active_sources),
    )


def run_vectorized(
    algorithm: EdgeCentricAlgorithm, graph: Graph
) -> AlgorithmRun:
    """Execute with one whole-graph edge pass per iteration."""
    with get_tracer().span("preprocess", executor="vectorized",
                           graph=graph.name):
        streamed = algorithm.transform_graph(graph)

    def sweep(values, acc, iteration):
        algorithm.process_edges(values, acc, streamed.src, streamed.dst,
                                streamed.weights, streamed)

    return converge(algorithm, streamed, sweep, "vectorized")


def run_blocked(
    algorithm: EdgeCentricAlgorithm,
    graph: Graph,
    num_intervals: int,
    num_pus: int = 1,
) -> AlgorithmRun:
    """Execute in the block-major super-block order of Algorithm 2.

    Super blocks are scanned column-major (``y`` outer, ``x`` inner, as
    in Algorithm 2).  Edges are permuted once into block-major order
    (the partition's :attr:`streamed_edges`, mirroring the one-shot
    Section 3.4 preprocessing), so every dispatch below consumes a
    *contiguous slice* of the permuted arrays — no per-block gather.
    Within a super block the N blocks sharing a source interval are
    adjacent, so a whole super block dispatches to ``process_edges`` in
    at most N fused calls (one per source-interval row) instead of N^2.
    """
    tracer = get_tracer()
    with tracer.span("preprocess", executor="blocked", graph=graph.name,
                     num_intervals=num_intervals):
        streamed = algorithm.transform_graph(graph)
        partition = IntervalBlockPartition.cached(streamed, num_intervals)
        q = num_intervals // num_pus
        partition.num_super_blocks(num_pus)  # validates divisibility
        bm_src, bm_dst, bm_weights = partition.streamed_edges

    def sweep(values, acc, iteration):
        for y in range(q):
            j_start = y * num_pus
            j_stop = j_start + num_pus
            with tracer.span("superblock_row", iteration=iteration, y=y):
                # Every source row i, in Algorithm 2's (x, pu) order.
                for i in range(num_intervals):
                    sel = partition.block_row_slice(i, j_start, j_stop)
                    if sel.start == sel.stop:
                        continue
                    with tracer.span("block_dispatch", row=i,
                                     j_start=j_start, j_stop=j_stop,
                                     edges=sel.stop - sel.start):
                        algorithm.process_edges(
                            values, acc, bm_src[sel], bm_dst[sel],
                            None if bm_weights is None else bm_weights[sel],
                            streamed,
                        )

    return converge(algorithm, streamed, sweep, "blocked")


# --- streamed-transform memo ------------------------------------------------

#: Streamed (post-``transform_graph``) graphs, keyed on
#: ``(graph.fingerprint(), algorithm.signature())``.  CC symmetrises and
#: SSSP/SpMV attach weights on every call; memoising the result means
#: repeated runs (and the GraphR shape statistics) reuse one object —
#: and therefore one memoised fingerprint — instead of rebuilding and
#: re-hashing O(E) arrays each time.
_TRANSFORM_MEMO = BoundedMemo("algorithms.transform", capacity=64)


def transform_cached(
    algorithm: EdgeCentricAlgorithm, graph: Graph
) -> Graph:
    """Memoised ``algorithm.transform_graph(graph)``."""
    return _TRANSFORM_MEMO.get_or_compute(
        (graph.fingerprint(), algorithm.signature()),
        lambda: algorithm.transform_graph(graph),
    )


# --- run cache -------------------------------------------------------------


def run_cached(
    algorithm: EdgeCentricAlgorithm, graph: Graph
) -> AlgorithmRun:
    """Vectorised run memoised on (graph content, algorithm signature).

    The benchmarks evaluate dozens of machine configurations against the
    same (graph, algorithm) pairs; the algorithm result and iteration
    count are configuration-independent, so they are computed once.

    Keyed on :meth:`Graph.fingerprint` — a content digest — rather than
    ``id(graph)``: object ids are recycled after garbage collection, so
    an address-based key can serve a stale run for a *different* graph
    that happens to reuse the same address (and misses needlessly for
    equal graphs loaded twice).

    Backed by :class:`repro.perf.cache.RunCache`: a bounded in-memory
    LRU in front of an on-disk store, so fresh processes (the CLI,
    benchmarks, parallel sweep workers) skip re-convergence entirely.

    Also accepts a :class:`repro.perf.shm.SharedGraphRef`: pool
    workers can pass the shared-memory handle straight through and the
    attached graph (same fingerprint, so same cache key) is used.
    """
    from ..perf.cache import get_run_cache
    from ..perf.shm import resolve_graph

    return get_run_cache().get_or_run(algorithm, resolve_graph(graph))


def clear_run_cache() -> None:
    """Drop the in-memory run cache (the on-disk store is kept; use
    :meth:`repro.perf.cache.RunCache.clear` to wipe both)."""
    from ..perf.cache import get_run_cache

    get_run_cache().clear(disk=False)

