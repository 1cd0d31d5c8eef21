"""Edge-centric algorithm interface (the GAS model of Section 2.1).

Every algorithm is expressed in the edge-centric form of Algorithm 1:
iterate over edges; for each edge, update the destination vertex from
the source vertex's *previous-iteration* value (synchronous/Jacobi
semantics, which makes the result independent of block processing order
— the property HyVE's data-sharing scheme relies on: "vertex data in
the source interval will not be modified during processing").

An algorithm defines:

* how vertex state is initialised,
* the per-edge update (vectorised over an arbitrary batch of edges),
* the end-of-iteration reduction (damping, convergence test),
* metadata the cost model needs: the serialised width of one vertex
  value and whether edges carry weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError
from ..graph.graph import Graph


@dataclass(frozen=True)
class IterationResult:
    """Outcome of one edge-centric iteration."""

    values: np.ndarray
    converged: bool
    active_vertices: int


class EdgeCentricAlgorithm:
    """Base class for edge-centric graph algorithms."""

    #: Short name used in reports ("PR", "BFS"...).
    name: str = "base"

    #: Instance attributes holding per-run scratch state (derived from
    #: the graph during execution, e.g. PageRank's out-degree array).
    #: They are excluded from :meth:`signature` so an algorithm object
    #: hashes the same before and after it has been run.
    transient_attrs: tuple[str, ...] = ()

    #: Serialised width of one vertex value in bits.  PageRank carries a
    #: wider vertex record (rank + out-degree) than BFS/CC/SSSP, which is
    #: why data sharing helps PR most (Section 7.3.1).
    vertex_bits: int = 32

    #: Whether the edge stream carries a 32-bit weight per edge.
    needs_weights: bool = False

    #: Safety cap on iterations for convergence-driven algorithms.
    max_iterations: int = 10_000

    #: Whether a vertex-centric executor may skip the out-edges of
    #: vertices whose value did not change last iteration.  Sound for
    #: idempotent min/label propagation (an unchanged source would
    #: re-contribute the same value); unsound for accumulating
    #: algorithms (PageRank, SpMV) whose iteration rebuilds every
    #: destination from zero, so *every* edge must be re-applied even
    #: at a fixpoint.
    supports_frontier: bool = True

    # --- hooks -------------------------------------------------------------

    def transform_graph(self, graph: Graph) -> Graph:
        """Graph actually streamed by the machine.

        Most algorithms stream the graph as-is; connected components
        symmetrises it (an edge-centric system stores both directions of
        each undirected edge, as X-Stream does).
        """
        return graph

    def initial_values(self, graph: Graph) -> np.ndarray:
        """Per-vertex state before the first iteration."""
        raise NotImplementedError

    def initial_frontier(self, graph: Graph) -> np.ndarray:
        """Mask of the vertices whose initial value can propagate: all
        of them, unless the algorithm starts from a root (BFS, SSSP)."""
        return np.ones(graph.num_vertices, dtype=bool)

    def initial_active(self, graph: Graph) -> int:
        """Number of vertices in :meth:`initial_frontier`.

        The scheduler loads a source interval only if it holds at least
        one vertex whose value changed (active-interval scheduling).
        """
        return int(np.count_nonzero(self.initial_frontier(graph)))

    def iteration_start(self, prev: np.ndarray, graph: Graph) -> np.ndarray:
        """State a fresh iteration accumulates into.

        Defaults to a copy of the previous values (min-style algorithms);
        accumulating algorithms (PageRank, SpMV) reset to zero.
        """
        return prev.copy()

    def process_edges(
        self,
        prev: np.ndarray,
        acc: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray | None,
        graph: Graph,
    ) -> None:
        """Apply a batch of edges: update ``acc[dst]`` from ``prev[src]``.

        Must be order-independent and idempotent across batch splits so
        block-ordered execution matches whole-graph execution exactly.
        """
        raise NotImplementedError

    def iteration_end(
        self, prev: np.ndarray, acc: np.ndarray, graph: Graph, iteration: int
    ) -> IterationResult:
        """Finish an iteration: apply() phase plus the convergence test."""
        raise NotImplementedError

    # --- helpers -------------------------------------------------------------

    def signature(self) -> str:
        """Stable cache key for this algorithm's parameterisation.

        Derived from the instance ``__dict__`` (minus
        :attr:`transient_attrs`), so *every* parameter that can change
        the result participates — algorithms with differently named
        parameters cannot silently collide the way a hardcoded
        attribute list allowed.  Array-valued parameters (e.g. SpMV's
        input vector) contribute a content digest.
        """
        parts = [f"{type(self).__qualname__}:{self.name}"]
        state = vars(self)
        for key in sorted(state):
            if key in self.transient_attrs:
                continue
            parts.append(f"{key}={stable_value_repr(state[key])}")
        return "|".join(parts)

    def check_iteration_budget(self, iteration: int) -> None:
        if iteration >= self.max_iterations:
            raise ConvergenceError(
                f"{self.name} did not converge within "
                f"{self.max_iterations} iterations"
            )

    @property
    def edge_bits(self) -> int:
        """Serialised width of one edge in the stream."""
        return 96 if self.needs_weights else 64

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def stable_value_repr(value: object) -> str:
    """Deterministic, content-based repr for signature/cache keys.

    Plain ``repr`` is stable for scalars and strings but useless for
    numpy arrays (it elides elements); arrays are digested instead.
    """
    if isinstance(value, np.ndarray):
        import hashlib

        h = hashlib.blake2b(digest_size=8)
        h.update(np.ascontiguousarray(value).tobytes())
        return f"ndarray[{value.dtype},{value.shape}]#{h.hexdigest()}"
    return repr(value)


def scatter_add(acc: np.ndarray, dst: np.ndarray, contrib: np.ndarray) -> None:
    """acc[dst] += contrib, with duplicate destinations accumulated.

    Uses bincount (much faster than ``np.add.at`` for large batches).
    """
    if dst.size == 0:
        return
    acc += np.bincount(dst, weights=contrib, minlength=acc.size)


def scatter_min(acc: np.ndarray, dst: np.ndarray, candidate: np.ndarray) -> None:
    """acc[dst] = min(acc[dst], candidate), duplicates resolved to the min."""
    if dst.size == 0:
        return
    np.minimum.at(acc, dst, candidate)
