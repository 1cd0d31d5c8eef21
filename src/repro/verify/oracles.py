"""The oracle registry: every cross-path promise, checked on demand.

An **oracle** takes a :class:`~repro.verify.cases.Case` and raises
:class:`~repro.errors.VerificationError` when two execution paths that
promise identical results disagree.  Three families are registered:

* *cross-engine report identity* — the scalar reference fold
  (:mod:`repro.verify.reference`) vs serial ``AcceleratorMachine.run``
  vs ``fold_many`` vs ``run_grid`` vs a cache-warm replay vs the
  (batched / unbatched / ``max_workers=N``) sweep drivers, compared
  field-for-field including the energy-dict insertion order, with and
  without a fault profile;
* *algorithm-output equivalence* — the edge-centric vectorized,
  block-major and vertex-centric executors must agree on the value
  vector (bit-exact for the min-based algorithms, 1e-12 relative for
  the sum-based ones, matching tests/test_blocked_identity.py);
* *metamorphic invariants* — vertex-relabeling permutation invariance,
  interval-count ``P`` invariance of algorithm results, exact traffic
  linearity under power-of-two ``edge_scale``, and zero-fault-profile
  pass-through;
* *infrastructure-chaos recovery* — runs against a result store under
  injected torn writes, bit flips and stale locks
  (:mod:`repro.faults.chaos`) must recover to bit-identical reports,
  and an all-zero chaos profile must be an exact pass-through;
* *streaming conformance* — a :class:`repro.dynamic.stream.StreamEngine`
  replaying a seeded update log must match a from-scratch rebuild of
  the same log prefix at every queried instant
  (``stream-rebuild-identity``), and permuting a log within
  commutative batches must leave every snapshot fingerprint and
  maintained value unchanged (``window-invariance``).

The equality policy is deliberately the strictest one the codebase
already commits to elsewhere; an oracle failure is a broken promise,
not a tolerance call.
"""

from __future__ import annotations

import dataclasses
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..algorithms.runner import run_blocked, run_cached, run_vectorized
from ..algorithms.vertex_centric import run_vertex_centric
from ..arch.config import Workload
from ..arch.machine import AcceleratorMachine, fold_many
from ..arch.report import EnergyReport
from ..arch.scheduler import ScheduleCounts
from ..arch.sweep import SweepPolicy, points_to_csv, sweep
from ..errors import VerificationError
from ..faults import FaultProfile, FaultReport, make_profile
from ..faults.chaos import ChaosProfile, chaos_context
from ..perf.batch import run_grid, scheduled_counts
from ..perf.cache import temporary_run_cache
from .cases import Case
from .reference import reference_run

#: Algorithms whose executors are bit-identical everywhere (min-based
#: updates commute exactly); the sum-based rest carry accumulation-order
#: differences between executors bounded by SUM_RTOL.
EXACT_ALGORITHMS = frozenset({"bfs", "cc", "sssp"})
#: Cross-executor tolerance for sum-based algorithms (PR, SpMV) — the
#: policy of tests/test_blocked_identity.py.
SUM_RTOL = 1e-12
SUM_ATOL = 1e-12
#: Permutation invariance reorders *within* accumulation bins (the
#: dangling-mass sum, scatter segments), so sum-based algorithms get a
#: slightly looser bound there.
PERM_RTOL = 1e-9
PERM_ATOL = 1e-12

#: The config field the sweep oracles vary: pricing-only (all points
#: share one counts key), so it exercises the batched fold hardest.
SWEEP_FIELD = "region_hit_rate"
SWEEP_VALUES = (0.25, 0.75, 1.0)

#: ScheduleCounts fields that must double exactly when the reported
#: edge count doubles, and fields that must not move at all.  Any field
#: outside both sets must still be exactly x1 or x2 (the oracle rejects
#: anything in between).
LINEAR_IN_EDGE_SCALE = ("edges_total", "edge_stream_bits", "pu_ops")
EDGE_SCALE_INVARIANT = (
    "iterations", "num_pus", "num_intervals", "vertices",
    "vertex_bits", "edge_bits", "steps_total",
)


@dataclass(frozen=True)
class Oracle:
    """A registered conformance check.

    ``stride`` runs the oracle on every stride-th case only — the
    escape hatch for oracles whose setup cost (process pools) would
    otherwise dominate a CI fuzz-smoke run.
    """

    name: str
    description: str
    fn: Callable[[Case], None]
    stride: int = 1


ORACLES: dict[str, Oracle] = {}


def oracle(name: str, description: str, stride: int = 1):
    """Register a conformance oracle under ``name``."""
    if stride < 1:
        raise VerificationError(f"oracle stride must be >= 1: {stride}")

    def register(fn: Callable[[Case], None]) -> Callable[[Case], None]:
        if name in ORACLES:
            raise VerificationError(f"duplicate oracle name {name!r}")
        ORACLES[name] = Oracle(name, description, fn, stride)
        return fn

    return register


def get_oracles(names: list[str] | None = None) -> list[Oracle]:
    """Resolve a name selection (``None``: every registered oracle)."""
    if names is None:
        return list(ORACLES.values())
    unknown = [n for n in names if n not in ORACLES]
    if unknown:
        raise VerificationError(
            f"unknown oracle(s): {', '.join(unknown)}; "
            f"known: {', '.join(ORACLES)}"
        )
    return [ORACLES[n] for n in names]


# --- comparison helpers ------------------------------------------------------

def fail(message: str) -> None:
    raise VerificationError(message)


def assert_reports_identical(
    a: EnergyReport, b: EnergyReport, context: str,
    ignore_machine_label: bool = False,
) -> None:
    """Field-for-field bit identity, including energy insertion order."""
    diffs: list[str] = []
    scalar_fields = ["machine", "algorithm", "graph", "edges_traversed",
                     "iterations", "time"]
    if ignore_machine_label:
        scalar_fields.remove("machine")
    for name in scalar_fields:
        va, vb = getattr(a, name), getattr(b, name)
        if va != vb:
            diffs.append(f"{name}: {va!r} != {vb!r}")
    if list(a.energy) != list(b.energy):
        diffs.append(
            f"energy component order: {list(a.energy)} != {list(b.energy)}"
        )
    else:
        for component, va in a.energy.items():
            vb = b.energy[component]
            if va != vb:
                diffs.append(f"energy[{component}]: {va!r} != {vb!r}")
    if diffs:
        fail(f"{context}: reports differ — " + "; ".join(diffs))


def assert_values_match(
    case: Case, a: np.ndarray, b: np.ndarray, context: str,
    rtol: float = SUM_RTOL, atol: float = SUM_ATOL,
) -> None:
    """Value-vector agreement under the repo's per-algorithm policy."""
    if a.shape != b.shape:
        fail(f"{context}: value shapes differ {a.shape} vs {b.shape}")
    if case.algorithm in EXACT_ALGORITHMS:
        mismatches = np.nonzero(a != b)[0]
        if mismatches.size:
            v = int(mismatches[0])
            fail(f"{context}: {mismatches.size} exact mismatch(es), "
                 f"first at vertex {v}: {a[v]!r} != {b[v]!r}")
    elif not np.allclose(a, b, rtol=rtol, atol=atol):
        delta = np.abs(a - b)
        v = int(np.argmax(delta))
        fail(f"{context}: sum-based values disagree beyond "
             f"rtol={rtol}/atol={atol}, worst at vertex {v}: "
             f"{a[v]!r} vs {b[v]!r}")


@dataclass(frozen=True)
class _CaseAlgorithmFactory:
    """Picklable algorithm factory (sweep workers rebuild from the
    case, which serialises; a closure over a Graph would not)."""

    case: Case

    def __call__(self):
        return self.case.make_algorithm(self.case.graph())


def _partition(values: np.ndarray) -> set[frozenset[int]]:
    """Vertex partition induced by equal labels (CC canonical form)."""
    groups: dict[float, list[int]] = {}
    for v, label in enumerate(values.tolist()):
        groups.setdefault(label, []).append(v)
    return {frozenset(g) for g in groups.values()}


# --- cross-engine report identity --------------------------------------------

#: Non-zero fault profiles the engine-identity oracle cycles through
#: (picked by case seed), so every fault effect reaches the kernel.
ENGINE_FAULT_PROFILES = ("mild", "harsh", "worn")


def assert_fault_reports_identical(
    a: FaultReport | None, b: FaultReport | None, context: str
) -> None:
    """Both absent, or equal field for field (floats bit-exact)."""
    if a is None or b is None:
        if a is not b:
            fail(f"{context}: fault report {a!r} vs {b!r}")
        return
    da, db = a.to_dict(), b.to_dict()
    diffs = [f"{k}: {da[k]!r} != {db[k]!r}" for k in da if da[k] != db[k]]
    if diffs:
        fail(f"{context}: fault reports differ — " + "; ".join(diffs))


@oracle(
    "engine-identity",
    "scalar reference == serial run == cache-warm replay == fold_many "
    "== run_grid, field-for-field, fault-free and under a fault profile",
)
def engine_report_identity(case: Case) -> None:
    graph = case.graph()
    workload = case.workload(graph)
    config = case.config()
    profile = make_profile(
        ENGINE_FAULT_PROFILES[case.seed % len(ENGINE_FAULT_PROFILES)],
        seed=case.seed,
    )
    for faults in (None, profile):
        where = "" if faults is None else " (faulted)"
        serial, warm = (
            AcceleratorMachine(config, faults=faults).run(
                case.make_algorithm(graph), workload
            )
            for _ in range(2)
        )
        expected = reference_run(config, case.make_algorithm(graph),
                                 workload, faults)
        for context, result in (("serial run", serial),
                                ("cache-warm replay", warm)):
            assert_reports_identical(expected.report, result.report,
                                     context + where)
            assert_fault_reports_identical(expected.faults, result.faults,
                                           context + where)
        counts = scheduled_counts(serial.run, workload, config)
        fault_reports: list = []
        [folded] = fold_many(serial.run, counts, workload, [config],
                             faults=faults, fault_reports=fault_reports)
        assert_reports_identical(expected.report, folded, "fold_many" + where)
        assert_fault_reports_identical(expected.faults, fault_reports[0],
                                       "fold_many" + where)
        [gridded] = run_grid(case.make_algorithm(graph), workload, [config],
                             faults=faults)
        assert_reports_identical(expected.report, gridded.report,
                                 "run_grid" + where)
        assert_fault_reports_identical(expected.faults, gridded.faults,
                                       "run_grid" + where)


@oracle(
    "sweep-identity",
    "batched sweep == per-point sweep == direct machine runs, "
    "byte-identical CSV",
)
def sweep_path_identity(case: Case) -> None:
    graph = case.graph()
    workload = case.workload(graph)
    config = case.config()
    factory = _CaseAlgorithmFactory(case)
    batched = sweep(SWEEP_FIELD, list(SWEEP_VALUES), factory, workload,
                    config, SweepPolicy(batch=True))
    per_point = sweep(SWEEP_FIELD, list(SWEEP_VALUES), factory, workload,
                      config, SweepPolicy(batch=False))
    csv_batched = points_to_csv(batched)
    csv_serial = points_to_csv(per_point)
    if csv_batched != csv_serial:
        fail("sweep CSV differs between batched and per-point paths:\n"
             f"batched:\n{csv_batched}\nper-point:\n{csv_serial}")
    for point, value in zip(batched, SWEEP_VALUES):
        direct_config = dataclasses.replace(
            config, **{SWEEP_FIELD: value,
                       "label": f"{SWEEP_FIELD}={value}"})
        direct = AcceleratorMachine(direct_config).run(factory(), workload)
        assert_reports_identical(
            direct.report, point.report,
            f"sweep point {SWEEP_FIELD}={value} vs direct run",
        )


@oracle(
    "parallel-sweep",
    "max_workers=2 sweep reproduces the serial sweep byte-for-byte",
    stride=10,
)
def parallel_sweep_identity(case: Case) -> None:
    graph = case.graph()
    workload = case.workload(graph)
    config = case.config()
    factory = _CaseAlgorithmFactory(case)
    serial = sweep(SWEEP_FIELD, list(SWEEP_VALUES), factory, workload,
                   config, SweepPolicy(max_workers=1))
    parallel = sweep(SWEEP_FIELD, list(SWEEP_VALUES), factory, workload,
                     config, SweepPolicy(max_workers=2))
    csv_serial = points_to_csv(serial)
    csv_parallel = points_to_csv(parallel)
    if csv_serial != csv_parallel:
        fail("sweep CSV differs between serial and max_workers=2 paths:\n"
             f"serial:\n{csv_serial}\nparallel:\n{csv_parallel}")


# --- algorithm-output equivalence --------------------------------------------

@oracle(
    "algorithm-equivalence",
    "vectorized == block-major == vertex-centric executor outputs",
)
def algorithm_equivalence(case: Case) -> None:
    graph = case.graph()
    vec = run_vectorized(case.make_algorithm(graph), graph)
    p = 4 if graph.num_vertices >= 4 else 2
    blocked = run_blocked(case.make_algorithm(graph), graph,
                          num_intervals=p, num_pus=2)
    if vec.iterations != blocked.iterations:
        fail(f"blocked executor iterated {blocked.iterations}x, "
             f"vectorized {vec.iterations}x")
    assert_values_match(case, vec.values, blocked.values,
                        "vectorized vs block-major")
    vc = run_vertex_centric(case.make_algorithm(graph), graph)
    assert_values_match(case, vec.values, vc.run.values,
                        "edge-centric vs vertex-centric",
                        rtol=PERM_RTOL, atol=PERM_ATOL)


# --- metamorphic invariants --------------------------------------------------

@oracle(
    "permutation-invariance",
    "relabeling vertices permutes the outputs and nothing else",
)
def permutation_invariance(case: Case) -> None:
    graph = case.graph()
    nv = graph.num_vertices
    rng = np.random.default_rng(case.seed ^ 0x5EED)
    perm = rng.permutation(nv)
    mapped = graph.relabel(perm)
    base = run_vectorized(case.make_algorithm(graph), graph).values
    mapped_root = int(perm[case.root % nv])
    permuted = run_vectorized(
        case.make_algorithm(graph, root=mapped_root), mapped
    ).values
    if case.algorithm == "cc":
        # CC labels are representative vertex *ids*: not equivariant as
        # values, but the induced component partition must map exactly.
        expected = {frozenset(int(perm[v]) for v in comp)
                    for comp in _partition(base)}
        actual = _partition(permuted)
        if expected != actual:
            fail(f"CC component partition changed under relabeling: "
                 f"{len(expected)} vs {len(actual)} components")
        return
    # permuted[perm[v]] is vertex v's value in the relabelled run.
    assert_values_match(case, base, permuted[perm],
                        "relabelled run (mapped back)",
                        rtol=PERM_RTOL, atol=PERM_ATOL)


@oracle(
    "interval-invariance",
    "algorithm outputs do not depend on the partition grid (P, N)",
)
def interval_count_invariance(case: Case) -> None:
    graph = case.graph()
    vec = run_vectorized(case.make_algorithm(graph), graph)
    grids = [(p, n) for p, n in ((2, 1), (4, 2), (8, 4))
             if p <= graph.num_vertices]
    for p, n in grids:
        blocked = run_blocked(case.make_algorithm(graph), graph,
                              num_intervals=p, num_pus=n)
        if blocked.iterations != vec.iterations:
            fail(f"P={p},N={n}: iterated {blocked.iterations}x, "
                 f"vectorized {vec.iterations}x")
        assert_values_match(case, vec.values, blocked.values,
                            f"P={p},N={n} vs vectorized")


@oracle(
    "scale-linearity",
    "doubling reported_edges exactly doubles the edge-traffic counts "
    "and moves nothing else",
)
def scale_linearity(case: Case) -> None:
    graph = case.graph()
    config = case.config()
    base_workload = case.workload(graph)
    doubled_workload = Workload(
        graph,
        reported_vertices=base_workload.reported_vertices,
        reported_edges=base_workload.reported_edges * 2,
    )
    run = run_cached(case.make_algorithm(graph), graph)
    base = ScheduleCounts.compute(run, base_workload, config)
    doubled = ScheduleCounts.compute(run, doubled_workload, config)
    for f in dataclasses.fields(ScheduleCounts):
        va = getattr(base, f.name)
        vb = getattr(doubled, f.name)
        if f.name in LINEAR_IN_EDGE_SCALE:
            if vb != va * 2:
                fail(f"{f.name} must double exactly under 2x edge "
                     f"scale: {va!r} -> {vb!r}")
        elif f.name in EDGE_SCALE_INVARIANT:
            if vb != va:
                fail(f"{f.name} must not move under edge scale: "
                     f"{va!r} -> {vb!r}")
        elif vb != va and vb != va * 2:
            fail(f"{f.name} is neither invariant nor exactly doubled "
                 f"under 2x edge scale: {va!r} -> {vb!r}")


# --- infrastructure-chaos recovery -------------------------------------------

#: Chaos rates for the recovery oracle: hostile enough that most cases
#: actually tear/flip something, but with slow-I/O kept cheap so the
#: oracle stays fuzz-smoke friendly.  No killed workers — the oracle is
#: single-process by construction.
_RECOVERY_CHAOS = dict(
    torn_write_rate=0.30,
    bit_flip_rate=0.25,
    stale_lock_rate=0.25,
    slow_io_rate=0.10,
    slow_io_max_s=0.0005,
)


@oracle(
    "chaos-recovery",
    "runs against a store under torn writes / bit flips / stale locks "
    "recover to bit-identical reports",
    stride=2,
)
def chaos_recovery(case: Case) -> None:
    graph = case.graph()
    workload = case.workload(graph)
    config = case.config()

    def evaluate():
        return AcceleratorMachine(config).run(
            case.make_algorithm(graph), workload
        )

    with tempfile.TemporaryDirectory() as clean_dir:
        with temporary_run_cache(clean_dir):
            baseline = evaluate()
    profile = ChaosProfile(seed=case.seed, **_RECOVERY_CHAOS)
    with tempfile.TemporaryDirectory() as chaos_dir:
        with temporary_run_cache(chaos_dir) as cache:
            with chaos_context(profile):
                cold = evaluate()
                # Drop the memory level so the warm run must go through
                # the (possibly damaged) disk store: a torn or
                # bit-flipped entry is quarantined and recomputed.
                cache.clear(disk=False)
                warm = evaluate()
            # Chaos off: recovery against whatever damage remains.
            cache.clear(disk=False)
            recovered = evaluate()
    for context, result in (("chaos cold run", cold),
                            ("chaos warm run", warm),
                            ("post-chaos recovery run", recovered)):
        assert_reports_identical(baseline.report, result.report, context)
        assert_values_match(case, baseline.run.values,
                            result.run.values, f"{context} values")


@oracle(
    "zero-chaos",
    "an all-zero chaos profile draws no entropy and is bit-identical "
    "to no injector at all",
    stride=2,
)
def zero_chaos_passthrough(case: Case) -> None:
    graph = case.graph()
    workload = case.workload(graph)
    config = case.config()

    def evaluate():
        return AcceleratorMachine(config).run(
            case.make_algorithm(graph), workload
        )

    with tempfile.TemporaryDirectory() as scratch:
        with temporary_run_cache(scratch):
            plain = evaluate()
    with tempfile.TemporaryDirectory() as scratch:
        with temporary_run_cache(scratch):
            with chaos_context(
                ChaosProfile.zero(seed=case.seed)
            ) as injector:
                zeroed = evaluate()
    if injector.total_injections:
        fail(f"zero chaos profile injected "
             f"{injector.total_injections} fault(s): "
             f"{injector.summary()}")
    assert_reports_identical(plain.report, zeroed.report,
                             "zero-chaos profile")
    assert_values_match(case, plain.run.values, zeroed.run.values,
                        "zero-chaos profile values")


# --- out-of-core shard identity ----------------------------------------------

@oracle(
    "shard-identity",
    "shard round trip preserves the fingerprint; streamed runs and "
    "merged per-shard counts reproduce the in-memory path",
    stride=2,
)
def shard_identity(case: Case) -> None:
    """The out-of-core promises of :mod:`repro.graph.shards`.

    Writes the case's graph to an on-disk shard store cut into several
    shards, then checks every identity the paper-scale path relies on:
    the memory-mapped round trip preserves the content fingerprint
    (and survives :meth:`ShardStore.verify`'s re-hash); streamed
    convergence matches ``run_vectorized`` under the per-algorithm
    value policy with identical iteration and active-source traces;
    and schedule counts merged from per-shard partials are
    **bit-identical** — not merely close — to the whole-graph
    computation, under fresh scratch caches on both sides so the
    comparison is compute-vs-compute, never compute-vs-recall.
    """
    from pathlib import Path

    from ..arch.scheduler import clear_imbalance_cache
    from ..graph.shards import (run_sharded, sharded_scheduled_counts,
                                write_graph_shards)

    graph = case.graph()
    config = case.config()
    # Cut into ~4 shards so merge order and boundary handling are real.
    shard_edges = max(1, -(-graph.num_edges // 4))
    with tempfile.TemporaryDirectory() as scratch:
        store = write_graph_shards(graph, Path(scratch) / "store",
                                   shard_edges=shard_edges)
        mapped = store.as_graph()
        if mapped.fingerprint() != graph.fingerprint():
            fail(f"shard round trip changed the fingerprint: "
                 f"{graph.fingerprint()} -> {mapped.fingerprint()}")
        store.verify()

        vec = run_vectorized(case.make_algorithm(graph), graph)
        with temporary_run_cache():
            streamed = run_sharded(case.make_algorithm(graph), store)
        if streamed.iterations != vec.iterations:
            fail(f"sharded executor iterated {streamed.iterations}x, "
                 f"vectorized {vec.iterations}x")
        if streamed.active_sources != vec.active_sources:
            fail("sharded executor's active-source trace diverged: "
                 f"{streamed.active_sources} vs {vec.active_sources}")
        assert_values_match(case, vec.values, streamed.values,
                            "sharded vs vectorized")

        try:
            with temporary_run_cache():
                clear_imbalance_cache()
                whole = scheduled_counts(
                    vec, case.workload(graph), config
                )
            with temporary_run_cache():
                clear_imbalance_cache()
                merged = sharded_scheduled_counts(
                    vec, case.workload(mapped), config, store=store,
                )
        finally:
            # The seeded memo keys on the graph fingerprint; drop it so
            # later oracles compute rather than recall.
            clear_imbalance_cache()
        if merged != whole:
            diffs = [
                f"{f.name}: {getattr(whole, f.name)!r} != "
                f"{getattr(merged, f.name)!r}"
                for f in dataclasses.fields(ScheduleCounts)
                if getattr(whole, f.name) != getattr(merged, f.name)
            ]
            fail("merged per-shard counts are not bit-identical to the "
                 "whole-graph counts — " + "; ".join(diffs))


@oracle(
    "zero-fault",
    "an all-zero fault profile is bit-identical to no profile at all",
)
def zero_fault_passthrough(case: Case) -> None:
    graph = case.graph()
    workload = case.workload(graph)
    config = case.config()
    zero = FaultProfile.zero(seed=case.seed)
    plain = AcceleratorMachine(config).run(
        case.make_algorithm(graph), workload
    )
    zeroed = AcceleratorMachine(config, faults=zero).run(
        case.make_algorithm(graph), workload
    )
    reference = reference_run(config, case.make_algorithm(graph), workload,
                              zero)
    for context, result in (("zero-fault profile", zeroed),
                            ("zero-fault reference", reference)):
        assert_reports_identical(plain.report, result.report, context)
        if result.faults is not None:
            fail(f"{context}: produced a fault report")
    assert_values_match(case, plain.run.values, zeroed.run.values,
                        "zero-fault profile values")


#: Pricing-only axes the tuner oracle cross-products over the case's
#: config: 12 candidates, one counts key, exercising the grouped fold
#: path against per-point machine runs.
TUNER_AXES = {
    "region_hit_rate": (0.5, 0.85, 1.0),
    "density_gbit": (4, 8),
    "bpg_timeout_us": (0.5, 5.0),
}


@oracle(
    "tuner-identity",
    "exhaustive autotuner frontier == brute-force per-point run() "
    "frontier, bit-for-bit",
    stride=3,
)
def tuner_identity(case: Case) -> None:
    """The exhaustive engine's promise (docs/autotuning.md).

    Builds a small pricing-only space over the case's config, searches
    it with :func:`repro.tune.exhaustive_search`, and independently
    reconstructs the frontier the slow way: one serial
    ``AcceleratorMachine.run`` per candidate plus an O(n^2) Python
    dominance scan.  The two frontiers must select the same candidate
    indices, and each selected report must be field-identical —
    pricing through the vectorized grouped fold must never move a
    point on or off the frontier.
    """
    from ..tune import SearchSpace, exhaustive_search

    graph = case.graph()
    workload = case.workload(graph)
    space = SearchSpace.from_axes(TUNER_AXES, base=case.config())
    frontier = exhaustive_search(case.make_algorithm(graph), workload,
                                 space)

    candidates, skipped = space.candidates()
    if skipped:
        fail(f"pricing-only axes skipped {skipped} combo(s); the "
             f"oracle space must enumerate fully")
    if frontier.evaluated != len(candidates):
        fail(f"exhaustive engine priced {frontier.evaluated} of "
             f"{len(candidates)} candidate(s)")
    reports = [
        AcceleratorMachine(cand.config).run(
            case.make_algorithm(graph), workload
        ).report
        for cand in candidates
    ]
    objectives = [(r.time, r.total_energy, r.edp) for r in reports]
    brute = set()
    for i, a in enumerate(objectives):
        dominated = any(
            all(b[k] <= a[k] for k in range(3))
            and any(b[k] < a[k] for k in range(3))
            for b in objectives
        )
        if not dominated:
            brute.add(i)
    tuned = {point.index for point in frontier.points}
    if tuned != brute:
        fail(f"frontier membership differs: tuner chose "
             f"{sorted(tuned)}, brute force {sorted(brute)}")
    for point in frontier.points:
        assert_reports_identical(
            point.report, reports[point.index],
            f"frontier point {point.label!r}",
        )


# --- streaming / temporal oracles ---------------------------------------------

#: The incremental-vs-rebuild battery's equality policy: BFS and CC are
#: min-based (bit-exact everywhere), PR is sum-based and the engine
#: rebuilds it from the canonical snapshot, so 1e-12 relative is the
#: same promise tests/test_blocked_identity.py already makes.
STREAM_ALGORITHMS = ("pr", "cc", "bfs")


def _stream_log(case: Case):
    """Derive a deterministic update log + engine knobs from a case.

    The case seed picks the delete fraction (0.0-0.4), the staleness
    bound ``k`` (1-37, so eager K=1 engines and lazy ones both appear),
    and the stream length — everything an oracle replay needs.
    """
    from ..dynamic.stream import generate_update_log

    graph = case.graph()
    delete_fraction = ((case.seed // 7) % 5) / 10
    k = 1 + case.seed % 37
    num_updates = 60 + case.seed % 64
    log = generate_update_log(graph, num_updates, seed=case.seed,
                              delete_fraction=delete_fraction)
    return graph, log, k


def _stream_values_match(name: str, engine_values: np.ndarray,
                         rebuilt_values: np.ndarray, where: str) -> None:
    if name in EXACT_ALGORITHMS:
        if not np.array_equal(engine_values, rebuilt_values):
            bad = int(np.flatnonzero(engine_values != rebuilt_values)[0])
            fail(f"{where}: incremental {name} diverged from rebuild at "
                 f"vertex {bad}: {engine_values[bad]!r} != "
                 f"{rebuilt_values[bad]!r}")
    elif not np.allclose(engine_values, rebuilt_values,
                         rtol=SUM_RTOL, atol=SUM_ATOL):
        worst = float(np.max(np.abs(engine_values - rebuilt_values)))
        fail(f"{where}: {name} diverged from rebuild "
             f"(max abs diff {worst:g} > {SUM_ATOL:g})")


@oracle(
    "stream-rebuild-identity",
    "incrementally maintained stream values == from-scratch rebuild at "
    "the same logical time, at every prefix; snapshot fingerprints key "
    "the run cache",
)
def stream_rebuild_identity(case: Case) -> None:
    """The bounded-staleness engine's correctness anchor.

    Replays a seeded log through a :class:`StreamEngine` in several
    prefix steps.  After each step the engine — whose BFS/CC values
    are maintained *incrementally* (delta gates, orphan repair,
    component re-seeding) — is compared against a from-scratch rebuild
    of the **same log prefix**: the temporal snapshot at the engine's
    logical time must have a bit-identical fingerprint, and every
    maintained value vector must match the vectorized run on that
    snapshot (bit-exact for the min-based algorithms, 1e-12 for PR).
    Finally the rebuilt snapshot is priced through the run cache to
    prove the fingerprint identity is *useful*: the engine's
    query-time flush already populated the cache, so the rebuild's
    lookup must be a memory hit, never a recompute.
    """
    from ..algorithms import make_algorithm
    from ..dynamic.stream import StreamEngine, UpdateLog

    graph, log, k = _stream_log(case)
    events = log.to_arrays()
    base = int(np.count_nonzero(events[:, 0] == 0))
    prefixes = sorted({base, base + (len(log) - base) // 2, len(log)})
    algs = {name: make_algorithm(name) for name in STREAM_ALGORITHMS}

    with temporary_run_cache("") as cache:
        engine = StreamEngine(log.num_vertices,
                              algorithms=STREAM_ALGORITHMS, k=k,
                              name=log.name)
        done = 0
        for prefix in prefixes:
            engine.ingest(events[done:prefix])
            done = prefix
            t = engine.logical_time
            where = f"prefix {prefix}/{len(log)} (t={t}, k={k})"
            rebuilt_log = UpdateLog.from_arrays(
                log.num_vertices, events[:prefix], name=log.name)
            snapshot = rebuilt_log.temporal().snapshot_at(t)
            for name in STREAM_ALGORITHMS:
                _stream_values_match(
                    name, engine.query(name),
                    run_vectorized(algs[name], snapshot).values, where)
            if engine.snapshot(t).fingerprint() != snapshot.fingerprint():
                fail(f"{where}: engine snapshot fingerprint diverged "
                     f"from the log-prefix rebuild")
        # Price the engine's live snapshot once (a query-time flush
        # does the same when updates are pending); rebuilding the same
        # instant from the raw log must then *hit* the cache under the
        # identical fingerprint, never recompute.
        run_cached(algs["pr"], engine.snapshot(t))
        hits_before = cache.stats.memory_hits
        run_cached(algs["pr"], snapshot)
        if cache.stats.memory_hits <= hits_before:
            fail("rebuilt snapshot missed the run cache: snapshot_at() "
                 "fingerprints do not key the engine's cached runs")


@oracle(
    "window-invariance",
    "permuting a log within commutative batches leaves every snapshot "
    "fingerprint and maintained value unchanged",
)
def window_invariance(case: Case) -> None:
    """Order within a logical batch must not be observable.

    Events sharing a timestamp form one batch; inside a batch, events
    on *distinct* edges commute (same-key events keep their FIFO
    order).  The oracle re-batches a seeded log into multi-event
    windows, applies a seeded commutative permutation inside every
    batch, and demands the permuted replay be indistinguishable from
    the original: identical snapshot fingerprints at every batch
    boundary, and identical maintained values from engines fed either
    log.  Any divergence means replay order leaks into state that the
    format promises is a pure function of the log's batch contents.
    """
    from ..dynamic.stream import StreamEngine, UpdateLog

    graph, log, k = _stream_log(case)
    events = log.to_arrays()
    # Re-batch: keep the t=0 base batch, then group the singleton
    # events into windows of `width` sharing one timestamp.
    width = 4 + case.seed % 8
    events = events.copy()
    tail = events[:, 0] > 0
    events[tail, 0] = 1 + (events[tail, 0] - 1) // width
    original = UpdateLog.from_arrays(log.num_vertices, events,
                                     name=log.name)

    # Commutative permutation: within each batch, stable-sort by a
    # seeded priority drawn *per distinct key*, so events on the same
    # edge keep their relative (FIFO) order.
    rng = np.random.default_rng(case.seed + 1)
    permuted = events.copy()
    keys = (events[:, 2] << 32) | events[:, 3]
    for t in np.unique(events[:, 0]):
        rows = np.flatnonzero(events[:, 0] == t)
        _, inverse = np.unique(keys[rows], return_inverse=True)
        priority = rng.random(int(inverse.max()) + 1)
        permuted[rows] = events[rows][np.argsort(priority[inverse],
                                                 kind="stable")]
    shuffled = UpdateLog.from_arrays(log.num_vertices, permuted,
                                     name=log.name)

    boundaries = np.unique(events[:, 0])
    temporal_a = original.temporal()
    temporal_b = shuffled.temporal()
    for t in boundaries.tolist():
        fp_a = temporal_a.snapshot_at(t).fingerprint()
        fp_b = temporal_b.snapshot_at(t).fingerprint()
        if fp_a != fp_b:
            fail(f"snapshot at t={t} depends on intra-batch order: "
                 f"{fp_a} != {fp_b}")

    with temporary_run_cache(""):
        engine_a = StreamEngine(log.num_vertices,
                                algorithms=STREAM_ALGORITHMS, k=k,
                                name=log.name)
        engine_b = StreamEngine(log.num_vertices,
                                algorithms=STREAM_ALGORITHMS, k=k,
                                name=log.name)
        engine_a.replay(original)
        engine_b.replay(shuffled)
        for name in STREAM_ALGORITHMS:
            _stream_values_match(name, engine_a.query(name),
                                 engine_b.query(name),
                                 f"engine replay (k={k})")
        fp_a = engine_a.snapshot().fingerprint()
        fp_b = engine_b.snapshot().fingerprint()
        if fp_a != fp_b:
            fail(f"live engine snapshots diverged under a commutative "
                 f"permutation: {fp_a} != {fp_b}")
