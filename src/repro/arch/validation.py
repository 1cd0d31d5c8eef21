"""Empirical validation of the schedule model.

:class:`~repro.arch.scheduler.ScheduleCounts` derives access counts
*analytically* from Equations (3)-(8) plus the active-interval
approximation.  This module walks the **concrete** schedule of
Algorithm 2 — block by block, step by step, interval load by interval
load — while counting every access, so the analytic model can be checked
against a ground-truth measurement (the tests do exactly that).

The concrete scheduling rules mirrored here:

* every edge of every block is streamed once per iteration;
* per edge: two on-chip reads (source, destination) and one write;
* a *source* interval is loaded only if it contains at least one vertex
  whose value changed entering the iteration (active-interval
  scheduling); with data sharing it is loaded once per (x, y) group of
  N, without sharing once per block that streams from it;
* a *destination* interval is loaded/stored once per super-block column
  if any of its incoming blocks has an active source interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms.base import EdgeCentricAlgorithm
from ..errors import ConvergenceError
from ..graph.graph import Graph
from ..graph.partition import IntervalBlockPartition


@dataclass(frozen=True)
class MeasuredSchedule:
    """Ground-truth access counts from a concrete Algorithm-2 walk.

    All counts are totals over the full run, in operations (not bits),
    at the synthetic graph's own scale.
    """

    iterations: int
    edge_reads: int                 # edges streamed
    onchip_reads: int               # per-edge source + destination reads
    onchip_writes: int              # per-edge destination writes
    pu_ops: int
    steps: int                      # synchronisation barriers
    src_vertices_loaded: int        # vertices moved on-chip (source)
    dst_vertices_loaded: int        # vertices moved on-chip (destination)
    dst_vertices_stored: int        # vertices written back
    values: np.ndarray


def measure_schedule(
    algorithm: EdgeCentricAlgorithm,
    graph: Graph,
    num_intervals: int,
    num_pus: int,
    data_sharing: bool = True,
) -> MeasuredSchedule:
    """Execute Algorithm 2 concretely, counting every access."""
    streamed = algorithm.transform_graph(graph)
    partition = IntervalBlockPartition.cached(streamed, num_intervals)
    q = num_intervals // num_pus
    partition.num_super_blocks(num_pus)  # validates divisibility
    sizes = partition.interval_sizes()

    values = algorithm.initial_values(streamed)
    # "Changed entering the iteration": initially the point-initialised
    # vertices (BFS root) or everything (PR/CC).
    changed = algorithm.initial_frontier(streamed)

    edge_reads = onchip_reads = onchip_writes = pu_ops = steps = 0
    src_loaded = dst_loaded = dst_stored = 0
    iterations = 0

    while True:
        interval_active = np.array([
            bool(changed[partition.bounds[i]:partition.bounds[i + 1]].any())
            for i in range(num_intervals)
        ])

        nonempty = partition.block_counts > 0
        acc = algorithm.iteration_start(values, streamed)
        for y in range(q):
            dst_ids = [y * num_pus + k for k in range(num_pus)]
            # A destination interval participates this iteration if any
            # of its non-empty incoming blocks has an active source.
            dst_needed = [
                bool((interval_active & nonempty[:, j]).any())
                for j in dst_ids
            ]
            for j, needed in zip(dst_ids, dst_needed):
                if needed:
                    dst_loaded += int(sizes[j])
            for x in range(q):
                src_ids = [x * num_pus + k for k in range(num_pus)]
                if data_sharing:
                    # N intervals loaded once, shared via the router.
                    for i in src_ids:
                        if interval_active[i]:
                            src_loaded += int(sizes[i])
                for step in range(num_pus):
                    for pu in range(num_pus):
                        i = x * num_pus + (pu + step) % num_pus
                        j = y * num_pus + pu
                        if not data_sharing and interval_active[i]:
                            # Reload the source interval per block.
                            src_loaded += int(sizes[i])
                        idx = partition.block_edge_indices(i, j)
                        edges = int(idx.size)
                        edge_reads += edges
                        onchip_reads += 2 * edges
                        onchip_writes += edges
                        pu_ops += edges
                        if edges:
                            w = (
                                streamed.weights[idx]
                                if streamed.weights is not None
                                else None
                            )
                            algorithm.process_edges(
                                values, acc,
                                streamed.src[idx], streamed.dst[idx],
                                w, streamed,
                            )
                    steps += 1
            for j, needed in zip(dst_ids, dst_needed):
                if needed:
                    dst_stored += int(sizes[j])

        result = algorithm.iteration_end(values, acc, streamed, iterations)
        changed = _changed_mask(values, result.values)
        values = result.values
        iterations += 1
        if result.converged:
            break
        if iterations > algorithm.max_iterations:
            raise ConvergenceError(
                f"{algorithm.name} exceeded {algorithm.max_iterations} sweeps"
            )

    return MeasuredSchedule(
        iterations=iterations,
        edge_reads=edge_reads,
        onchip_reads=onchip_reads,
        onchip_writes=onchip_writes,
        pu_ops=pu_ops,
        steps=steps,
        src_vertices_loaded=src_loaded,
        dst_vertices_loaded=dst_loaded,
        dst_vertices_stored=dst_stored,
        values=values,
    )


def _changed_mask(prev: np.ndarray, new: np.ndarray) -> np.ndarray:
    if prev.dtype.kind == "f" or new.dtype.kind == "f":
        with np.errstate(invalid="ignore"):
            same = np.isclose(prev, new, rtol=0.0, atol=0.0, equal_nan=True)
        return ~same
    return prev != new
