"""Fig. 20: throughput of dynamic graph updates, HyVE vs GraphR."""

from __future__ import annotations

import numpy as np

from ..dynamic.throughput import compare_dynamic_throughput, modeled_update_ratio
from ..graph.graph import Graph
from ..memo import BoundedMemo
from .common import ExperimentResult, workloads

#: The paper's numbers: up to 46.98 M edges/s (HyVE), 8.04x over GraphR.
PAPER_RATIO = 8.04

#: Per-operation throughput is size-insensitive; large graphs are
#: subsampled so GraphR's dense per-tile directory fits in RAM.
MAX_EDGES = 120_000


#: Capped subsamples memoised on graph content: the permutation draw is
#: O(E) and identical on every invocation (fixed seed), so warm runs
#: skip it.
_CAPPED_MEMO = BoundedMemo("experiments.fig20_capped", capacity=16)


def _capped(graph: Graph) -> Graph:
    if graph.num_edges <= MAX_EDGES:
        return graph

    def subsample() -> Graph:
        rng = np.random.default_rng(0)
        sel = rng.choice(graph.num_edges, size=MAX_EDGES, replace=False)
        return Graph(graph.num_vertices, graph.src[sel], graph.dst[sel],
                     name=graph.name)

    return _CAPPED_MEMO.get_or_compute(graph.fingerprint(), subsample)


def run(num_requests: int = 20_000) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig20",
        title="Throughput of dynamically adding/deleting edges/vertices "
              "(single thread)",
        headers=[
            "Dataset",
            "HyVE (M edges/s)",
            "GraphR (M edges/s)",
            "Measured ratio",
            "Modeled ratio",
        ],
        notes=(
            "absolute Python throughput is interpreter-bound; the "
            "modeled ratio is data movement per update "
            f"(paper measured {PAPER_RATIO}x)"
        ),
    )
    for dataset, workload in workloads().items():
        hyve, graphr = compare_dynamic_throughput(
            _capped(workload.graph), num_requests=num_requests
        )
        result.add(
            dataset,
            hyve.million_edges_per_second,
            graphr.million_edges_per_second,
            hyve.million_edges_per_second
            / graphr.million_edges_per_second,
            modeled_update_ratio(),
        )
    return result
