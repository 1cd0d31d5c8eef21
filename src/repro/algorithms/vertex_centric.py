"""Vertex-centric execution (the Section 2.1 alternative to edge-centric).

Vertex-centric iterates over *active* vertices and pushes their value
along their out-edges.  Compared with the edge-centric model HyVE
adopts, it examines fewer edges on traversal algorithms (only the
frontier's out-edges) but accesses the edge array *randomly* — the
locality trade-off X-Stream [9] articulated and that motivates HyVE's
sequential ReRAM edge stream.

With the same synchronous (previous-iteration source values) semantics,
vertex-centric computes exactly the same result as the edge-centric
executor for every algorithm in this library; the tests verify that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError
from ..graph.graph import Graph
from ..memo import BoundedMemo
from ..obs import metrics as obs_metrics
from .base import EdgeCentricAlgorithm
from .runner import AlgorithmRun, transform_cached


@dataclass(frozen=True)
class VertexCentricRun:
    """An :class:`AlgorithmRun` plus vertex-centric traffic statistics.

    Attributes:
        run: the embedded result (same fields as the edge-centric one;
            ``edges_per_iteration`` remains the full edge count so that
            machine models see comparable workloads).
        edges_examined: edges actually touched, summed over iterations —
            the vertex-centric saving.
        vertices_scanned: active vertices processed, summed.
    """

    run: AlgorithmRun
    edges_examined: int
    vertices_scanned: int

    @property
    def edge_savings(self) -> float:
        """Fraction of edge-centric edge traffic avoided (0..1)."""
        total = self.run.total_edges
        if total == 0:
            return 0.0
        return 1.0 - self.edges_examined / total


#: CSR adjacency views keyed on the streamed graph's fingerprint.  The
#: stable argsort behind CSR construction is O(E log E) and was paid on
#: *every* vertex-centric run; the adjacency is pure graph shape, so
#: repeated runs (the execution-model ablation prices 15 of them per
#: sweep) reuse one build.
_CSR_MEMO = BoundedMemo("algorithms.csr", capacity=64)


def _csr(graph: Graph):
    """CSR adjacency: out-edges of each vertex, contiguous (memoised)."""
    return _CSR_MEMO.get_or_compute(graph.fingerprint(),
                                    lambda: _build_csr(graph))


def _build_csr(graph: Graph):
    # numpy's radix path behind kind="stable" only covers <= 16-bit
    # keys; wider ints fall back to merge sort, several times slower.
    # Any stable sort yields the same permutation, so the CSR (and
    # every downstream result) is bit-identical across these branches.
    sort_keys = graph.src
    if sort_keys.size == 0:
        order = np.empty(0, dtype=np.intp)
    elif graph.num_vertices <= np.iinfo(np.uint16).max + 1:
        order = np.argsort(sort_keys.astype(np.uint16), kind="stable")
    elif graph.num_vertices <= np.iinfo(np.uint32).max + 1:
        # Two stable LSB->MSB passes on 16-bit halves sort 32-bit ids.
        low = np.argsort((sort_keys & 0xFFFF).astype(np.uint16),
                         kind="stable")
        high = (sort_keys[low] >> 16).astype(np.uint16)
        order = low[np.argsort(high, kind="stable")]
    else:
        order = np.argsort(sort_keys, kind="stable")
    src = graph.src[order]
    dst = graph.dst[order]
    weights = None if graph.weights is None else graph.weights[order]
    indptr = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    counts = np.bincount(src, minlength=graph.num_vertices)
    np.cumsum(counts, out=indptr[1:])
    return indptr, src, dst, weights


def run_vertex_centric(
    algorithm: EdgeCentricAlgorithm, graph: Graph
) -> VertexCentricRun:
    """Execute vertex-centrically: scan active vertices, push out-edges."""
    streamed = transform_cached(algorithm, graph)
    indptr, src, dst, weights = _csr(streamed)
    values = algorithm.initial_values(streamed)

    if algorithm.supports_frontier:
        active = algorithm.initial_frontier(streamed)
    else:
        active = np.ones(streamed.num_vertices, dtype=bool)

    edges_examined = 0
    vertices_scanned = 0
    iterations = 0
    num_vertices = streamed.num_vertices
    while True:
        acc = algorithm.iteration_start(values, streamed)
        if bool(active.all()):
            # Full frontier: the range expansion would select every edge
            # in CSR order, so skip the selection and gathers entirely
            # and pass the memoised arrays through (bit-identical —
            # ``sel`` would be ``arange(num_edges)``).
            vertices_scanned += num_vertices
            edges_examined += int(src.size)
            if src.size:
                algorithm.process_edges(
                    values, acc, src, dst, weights, streamed
                )
        else:
            active_ids = np.nonzero(active)[0]
            vertices_scanned += int(active_ids.size)
            # Gather the out-edges of the active vertices (random CSR
            # rows).
            if active_ids.size:
                starts = indptr[active_ids]
                ends = indptr[active_ids + 1]
                lengths = ends - starts
                sel = _expand_ranges(starts, lengths)
            else:
                sel = np.empty(0, dtype=np.int64)
            edges_examined += int(sel.size)
            if sel.size:
                w = None if weights is None else weights[sel]
                algorithm.process_edges(
                    values, acc, src[sel], dst[sel], w, streamed
                )
        result = algorithm.iteration_end(values, acc, streamed, iterations)
        if algorithm.supports_frontier:
            active = _changed(values, result.values)
        else:
            # Accumulating algorithms rebuild every destination from
            # zero: an "unchanged" source still owes its contribution
            # (a graph at its fixpoint — e.g. PR on a symmetric cycle —
            # would otherwise lose all rank mass next sweep).
            active = np.ones(streamed.num_vertices, dtype=bool)
        values = result.values
        iterations += 1
        if result.converged:
            break
        if iterations > algorithm.max_iterations:
            raise ConvergenceError(
                f"{algorithm.name} exceeded {algorithm.max_iterations} sweeps"
            )

    obs_metrics.get_metrics().counter(
        obs_metrics.EXECUTOR_VECTORIZED_EDGES
    ).add(edges_examined)
    run = AlgorithmRun(
        algorithm=algorithm.name,
        graph_name=streamed.name,
        values=values,
        iterations=iterations,
        num_vertices=streamed.num_vertices,
        edges_per_iteration=streamed.num_edges,
        vertex_bits=algorithm.vertex_bits,
        edge_bits=algorithm.edge_bits,
    )
    return VertexCentricRun(
        run=run,
        edges_examined=edges_examined,
        vertices_scanned=vertices_scanned,
    )


def run_vertex_centric_cached(
    algorithm: EdgeCentricAlgorithm, graph: Graph
) -> VertexCentricRun:
    """:func:`run_vertex_centric` through the persistent run cache."""
    from ..perf.cache import get_run_cache

    return get_run_cache().get_or_run_vertex_centric(algorithm, graph)


def _expand_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate [start, start+length) ranges without a Python loop."""
    keep = lengths > 0
    starts = starts[keep]
    lengths = lengths[keep]
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Classic vectorised range expansion: ones everywhere, with a jump
    # at each range boundary from the previous range's end to the next
    # range's start.
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    if starts.size > 1:
        boundaries = np.cumsum(lengths[:-1])
        prev_end = starts[:-1] + lengths[:-1]
        out[boundaries] = starts[1:] - prev_end + 1
    return np.cumsum(out)


def _changed(prev: np.ndarray, new: np.ndarray) -> np.ndarray:
    if prev.dtype.kind == "f" or new.dtype.kind == "f":
        with np.errstate(invalid="ignore"):
            same = np.isclose(prev, new, rtol=0.0, atol=0.0, equal_nan=True)
        return ~same
    return prev != new
