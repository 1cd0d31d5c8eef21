"""Seedable random test cases for the differential-conformance harness.

A :class:`Case` is a *self-contained, JSON-serialisable* description of
one fuzzing input: which random graph to generate, which machine
configuration to build (a named base plus optional knob overrides),
which algorithm to run, and at which reported scale.  Everything an
oracle needs is derived from the case on demand (``graph()``,
``config()``, ``workload()``, ``algorithm()``), so a failing case can
be written to disk and replayed bit-identically by a later process —
the repro-file workflow of :mod:`repro.verify.corpus`.

:func:`generate_cases` draws cases from one ``numpy`` PCG64 stream, so
``repro verify --seed S --cases K`` explores the same K cases on every
machine and the shrinker (:mod:`repro.verify.shrink`) can mutate the
recorded fields directly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..algorithms import BFS, SSSP, EdgeCentricAlgorithm, make_algorithm
from ..arch.config import NAMED_CONFIGS, HyVEConfig, Workload
from ..errors import VerificationError
from ..graph import generators
from ..graph.graph import Graph
from ..units import KB

#: Graph shapes the generator samples; random kinds honour
#: ``num_vertices``/``num_edges``, structured kinds only the former.
GRAPH_KINDS = (
    "rmat", "erdos-renyi", "path", "cycle", "star", "complete", "grid",
)
RANDOM_KINDS = ("rmat", "erdos-renyi")

ALGORITHMS = ("pr", "bfs", "cc", "sssp", "spmv")

#: Sampled knob overrides (``None`` keeps the named config's value).
NUM_PUS_CHOICES = (1, 2, 4, 8)
SRAM_KB_CHOICES = (64, 256, 2048)
HIT_RATE_CHOICES = (0.5, 0.85, 1.0)
#: No named machine puts ReRAM vertex memory behind an on-chip SRAM,
#: the one place write-verify prices interval stores.
OFFCHIP_VERTEX_CHOICES = ("reram", "dram")
#: Reported-scale multipliers are powers of two so the linearity oracle
#: can demand *exact* IEEE-754 doubling; 2^20 reaches paper scale,
#: where edge memory spans enough chips for bank sparing to engage.
SCALE_EXP_CHOICES = (0, 1, 2, 20)

#: The optional machine-knob overrides (``None`` keeps the default).
KNOBS = ("num_pus", "sram_kb", "hash_placement", "region_hit_rate",
         "offchip_vertex")

_CASE_FIELDS: tuple[str, ...] = (
    "seed", "graph_kind", "num_vertices", "num_edges", "weighted",
    "machine", "algorithm", "root", *KNOBS, "vertex_scale_exp",
    "edge_scale_exp",
)


@dataclass(frozen=True)
class Case:
    """One replayable fuzzing input (all fields JSON-serialisable)."""

    seed: int = 0
    graph_kind: str = "rmat"
    num_vertices: int = 64
    num_edges: int = 256
    weighted: bool = False
    machine: str = "acc+HyVE-opt"
    algorithm: str = "pr"
    #: Seed vertex for BFS/SSSP (taken modulo the vertex count).
    root: int = 0
    #: Optional HyVEConfig overrides; ``None`` keeps the named default.
    num_pus: int | None = None
    sram_kb: int | None = None
    hash_placement: bool | None = None
    region_hit_rate: float | None = None
    offchip_vertex: str | None = None
    #: Reported scale = synthetic size << exponent (exact powers of 2).
    vertex_scale_exp: int = 0
    edge_scale_exp: int = 0

    def __post_init__(self) -> None:
        if self.graph_kind not in GRAPH_KINDS:
            raise VerificationError(
                f"unknown graph kind {self.graph_kind!r}; "
                f"known: {', '.join(GRAPH_KINDS)}"
            )
        if self.machine not in NAMED_CONFIGS:
            raise VerificationError(
                f"unknown machine {self.machine!r}; "
                f"known: {', '.join(NAMED_CONFIGS)}"
            )
        if self.algorithm not in ALGORITHMS:
            raise VerificationError(
                f"unknown algorithm {self.algorithm!r}; "
                f"known: {', '.join(ALGORITHMS)}"
            )
        if self.num_vertices < 2:
            raise VerificationError(
                f"cases need at least 2 vertices, got {self.num_vertices}"
            )
        if self.num_edges < 1:
            raise VerificationError(
                f"cases need at least 1 edge, got {self.num_edges}"
            )

    # --- builders -----------------------------------------------------------

    def graph(self) -> Graph:
        """Materialise the case's graph (deterministic in the case)."""
        name = f"verify-{self.graph_kind}-{self.seed}"
        nv = self.num_vertices
        if self.graph_kind == "rmat":
            g = generators.rmat(nv, self.num_edges, seed=self.seed,
                                name=name)
        elif self.graph_kind == "erdos-renyi":
            g = generators.erdos_renyi(nv, self.num_edges, seed=self.seed,
                                       name=name)
        elif self.graph_kind == "path":
            g = generators.path(nv, name=name)
        elif self.graph_kind == "cycle":
            g = generators.cycle(nv, name=name)
        elif self.graph_kind == "star":
            g = generators.star(nv - 1, name=name)
        elif self.graph_kind == "complete":
            g = generators.complete(min(nv, 24), name=name)
        else:  # grid
            side = max(2, int(np.sqrt(nv)))
            g = generators.grid_2d(side, side, name=name)
        if self.weighted:
            g = generators.random_weights(g, seed=self.seed + 1)
        return g

    def config(self) -> HyVEConfig:
        """The machine configuration (named base + knob overrides)."""
        base = NAMED_CONFIGS[self.machine]()
        overrides: dict = {}
        if self.num_pus is not None:
            overrides["num_pus"] = self.num_pus
        if self.sram_kb is not None:
            overrides["sram_bits"] = self.sram_kb * KB
        if self.hash_placement is not None:
            overrides["hash_placement"] = self.hash_placement
        if self.region_hit_rate is not None:
            overrides["region_hit_rate"] = self.region_hit_rate
        if self.offchip_vertex is not None:
            overrides["offchip_vertex"] = self.offchip_vertex
        if not overrides:
            return base
        return dataclasses.replace(base, **overrides)

    def workload(self, graph: Graph | None = None) -> Workload:
        """Workload at the case's reported scale (powers of two)."""
        graph = self.graph() if graph is None else graph
        return Workload(
            graph,
            reported_vertices=graph.num_vertices << self.vertex_scale_exp,
            reported_edges=max(1, graph.num_edges) << self.edge_scale_exp,
        )

    def make_algorithm(self, graph: Graph | None = None,
                       root: int | None = None) -> EdgeCentricAlgorithm:
        """A *fresh* algorithm instance (executors consume state).

        ``root`` overrides the seed vertex (the permutation oracle maps
        it through the relabeling); it is taken modulo the vertex count
        so shrunk cases stay valid.
        """
        nv = (self.graph() if graph is None else graph).num_vertices
        seed_vertex = (self.root if root is None else root) % nv
        if self.algorithm == "bfs":
            return BFS(root=seed_vertex)
        if self.algorithm == "sssp":
            return SSSP(source=seed_vertex)
        return make_algorithm(self.algorithm)

    # --- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in _CASE_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "Case":
        unknown = set(data) - set(_CASE_FIELDS)
        if unknown:
            raise VerificationError(
                f"unknown case field(s): {sorted(unknown)}"
            )
        try:
            return cls(**data)
        except TypeError as exc:
            raise VerificationError(f"malformed case record: {exc}") from exc

    def describe(self) -> str:
        """One-line summary for failure reports."""
        knobs = []
        for knob in KNOBS:
            value = getattr(self, knob)
            if value is not None:
                knobs.append(f"{knob}={value}")
        scale = ""
        if self.vertex_scale_exp or self.edge_scale_exp:
            scale = (f" scale=2^{self.vertex_scale_exp}v"
                     f"/2^{self.edge_scale_exp}e")
        return (f"{self.algorithm} on {self.graph_kind}"
                f"({self.num_vertices}v/{self.num_edges}e"
                f"{',w' if self.weighted else ''}) @ {self.machine}"
                + (f" [{', '.join(knobs)}]" if knobs else "") + scale)


def generate_cases(seed: int, count: int) -> list[Case]:
    """Draw ``count`` cases from one seeded PCG64 stream.

    The distribution leans on the random kinds (they exercise the block
    machinery hardest) but keeps structured graphs in the mix for their
    degenerate shapes (stars concentrate one interval, paths/cycles
    have unit degree, complete graphs stress every block).
    """
    if count < 0:
        raise VerificationError(f"case count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    kinds = list(RANDOM_KINDS) * 3 + [
        k for k in GRAPH_KINDS if k not in RANDOM_KINDS
    ]
    cases: list[Case] = []
    for _ in range(count):
        kind = kinds[int(rng.integers(len(kinds)))]
        nv = int(2 ** rng.uniform(1.0, 8.0))  # 2..256, log-uniform
        nv = max(2, nv)
        ne = int(min(1024, max(1, nv * rng.uniform(0.5, 4.0))))
        algorithm = ALGORITHMS[int(rng.integers(len(ALGORITHMS)))]
        machine = list(NAMED_CONFIGS)[int(rng.integers(len(NAMED_CONFIGS)))]

        def maybe(choices, p=0.5):
            if rng.random() >= p:
                return None
            return choices[int(rng.integers(len(choices)))]

        cases.append(Case(
            seed=int(rng.integers(2 ** 31)),
            graph_kind=kind,
            num_vertices=nv,
            num_edges=ne,
            weighted=bool(rng.random() < 0.3),
            machine=machine,
            algorithm=algorithm,
            root=int(rng.integers(nv)),
            num_pus=maybe(NUM_PUS_CHOICES),
            sram_kb=maybe(SRAM_KB_CHOICES),
            hash_placement=maybe((True, False), p=0.25),
            region_hit_rate=maybe(HIT_RATE_CHOICES, p=0.25),
            vertex_scale_exp=SCALE_EXP_CHOICES[
                int(rng.integers(len(SCALE_EXP_CHOICES)))],
            edge_scale_exp=SCALE_EXP_CHOICES[
                int(rng.integers(len(SCALE_EXP_CHOICES)))],
            offchip_vertex=maybe(OFFCHIP_VERTEX_CHOICES, p=0.25),
        ))
    return cases
