"""Breadth-first search in the edge-centric model.

Levels propagate synchronously: iteration k settles every vertex at
distance k from the root.  The machine streams *all* edges each
iteration (the paper applies no BFS-specific frontier optimisation:
"we do not apply a specific design for certain graph algorithms"), so
the iteration count — the BFS depth — is what the trace reports.

Unreached vertices keep the sentinel :data:`UNREACHED`.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from ..graph.graph import Graph
from .base import EdgeCentricAlgorithm, IterationResult, scatter_min

#: Level assigned to vertices the search never reaches.
UNREACHED = np.iinfo(np.int64).max


class BFS(EdgeCentricAlgorithm):
    """Single-source BFS producing hop distances."""

    name = "BFS"
    vertex_bits = 32

    def __init__(self, root: int = 0) -> None:
        if root < 0:
            raise ValueError(f"root must be a valid vertex id, got {root}")
        self.root = root

    def initial_values(self, graph: Graph) -> np.ndarray:
        if graph.num_vertices == 0:
            raise GraphError("BFS needs at least one vertex")
        if self.root >= graph.num_vertices:
            raise GraphError(
                f"root {self.root} not in graph of {graph.num_vertices} "
                "vertices"
            )
        levels = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
        levels[self.root] = 0
        return levels

    def initial_frontier(self, graph: Graph) -> np.ndarray:
        # Only the root can propagate initially.
        frontier = np.zeros(graph.num_vertices, dtype=bool)
        frontier[self.root] = True
        return frontier

    def process_edges(self, prev, acc, src, dst, weights, graph) -> None:
        reached = prev[src] != UNREACHED
        if not reached.any():
            return
        candidate = prev[src[reached]] + 1
        scatter_min(acc, dst[reached], candidate)

    def iteration_end(self, prev, acc, graph, iteration) -> IterationResult:
        changed = int(np.count_nonzero(acc != prev))
        self.check_iteration_budget(iteration)
        return IterationResult(
            values=acc, converged=changed == 0, active_vertices=changed
        )
