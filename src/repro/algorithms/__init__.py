"""Edge-centric graph algorithms (the paper's evaluated workloads)."""

from .base import (
    EdgeCentricAlgorithm,
    IterationResult,
    scatter_add,
    scatter_min,
)
from .pagerank import PageRank
from .bfs import BFS, UNREACHED
from .cc import ConnectedComponents
from .sssp import SSSP, UNREACHABLE
from .spmv import SpMV
from .runner import (
    AlgorithmRun,
    clear_run_cache,
    converge,
    run_blocked,
    run_cached,
    run_vectorized,
)
from .vertex_centric import (VertexCentricRun, run_vertex_centric,
                             run_vertex_centric_cached)

#: The three algorithms of the main evaluation (Figs. 14-18, Table 4).
CORE_ALGORITHMS = ("BFS", "CC", "PR")

#: The five algorithms of the GraphR comparison (Fig. 21).
GRAPHR_ALGORITHMS = ("BFS", "CC", "PR", "SSSP", "SpMV")


def make_algorithm(name: str) -> EdgeCentricAlgorithm:
    """Instantiate an algorithm by its paper tag (case-insensitive)."""
    factories = {
        "pr": PageRank,
        "bfs": BFS,
        "cc": ConnectedComponents,
        "sssp": SSSP,
        "spmv": SpMV,
    }
    key = name.lower()
    if key not in factories:
        known = ", ".join(sorted(factories))
        raise KeyError(f"unknown algorithm {name!r}; known: {known}")
    return factories[key]()


__all__ = [
    "EdgeCentricAlgorithm",
    "IterationResult",
    "scatter_add",
    "scatter_min",
    "PageRank",
    "BFS",
    "UNREACHED",
    "ConnectedComponents",
    "SSSP",
    "UNREACHABLE",
    "SpMV",
    "AlgorithmRun",
    "clear_run_cache",
    "converge",
    "run_blocked",
    "run_cached",
    "run_vectorized",
    "VertexCentricRun",
    "run_vertex_centric",
    "run_vertex_centric_cached",
    "CORE_ALGORITHMS",
    "GRAPHR_ALGORITHMS",
    "make_algorithm",
]
