"""Single-source shortest paths (Bellman-Ford style) edge-centrically.

Distances relax synchronously each iteration until no distance changes;
with non-negative weights this converges in at most |V| - 1 iterations.
Edges carry a 32-bit weight, widening the edge stream to 96 bits — one
of the two extra algorithms of the GraphR comparison (Fig. 21).
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from ..graph.graph import Graph
from .base import EdgeCentricAlgorithm, IterationResult, scatter_min

#: Distance of vertices not reachable from the source.
UNREACHABLE = np.inf


class SSSP(EdgeCentricAlgorithm):
    """Bellman-Ford relaxation to a fixpoint."""

    name = "SSSP"
    vertex_bits = 32
    needs_weights = True

    def __init__(self, source: int = 0) -> None:
        if source < 0:
            raise ValueError(f"source must be a valid vertex id: {source}")
        self.source = source

    def transform_graph(self, graph: Graph) -> Graph:
        # SSSP needs weights; default to unit weights if absent, which
        # degrades gracefully to BFS distances.
        return graph if graph.is_weighted else graph.with_unit_weights()

    def initial_values(self, graph: Graph) -> np.ndarray:
        if graph.num_vertices == 0:
            raise GraphError("SSSP needs at least one vertex")
        if self.source >= graph.num_vertices:
            raise GraphError(
                f"source {self.source} not in graph of "
                f"{graph.num_vertices} vertices"
            )
        if graph.is_weighted and graph.num_edges and graph.weights.min() < 0:
            raise GraphError("SSSP requires non-negative edge weights")
        dist = np.full(graph.num_vertices, UNREACHABLE)
        dist[self.source] = 0.0
        return dist

    def initial_frontier(self, graph: Graph) -> np.ndarray:
        # Only the source can propagate initially.
        frontier = np.zeros(graph.num_vertices, dtype=bool)
        frontier[self.source] = True
        return frontier

    def process_edges(self, prev, acc, src, dst, weights, graph) -> None:
        reached = np.isfinite(prev[src])
        if not reached.any():
            return
        w = weights[reached] if weights is not None else 1.0
        scatter_min(acc, dst[reached], prev[src[reached]] + w)

    def iteration_end(self, prev, acc, graph, iteration) -> IterationResult:
        changed = int(np.count_nonzero(acc != prev))
        self.check_iteration_budget(iteration)
        return IterationResult(
            values=acc, converged=changed == 0, active_vertices=changed
        )
