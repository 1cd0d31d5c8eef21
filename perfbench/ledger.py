"""Outside-in per-layer ledger for the traced benchmark run.

The benchmark times each layer of ``repro`` from outside: it replaces a
layer's public functions with timing wrappers while a traced phase runs
and restores them afterwards.  A wrapper is installed wherever the
original object is bound -- on its class, and under every name in every
loaded ``repro.*`` module that refers to it by identity -- so a name
bound with ``from x import f`` is timed too.

Self time is a wrapper's duration minus the time its nested wrappers
cover, so the self times of all layers add up to the time the
top-level wrappers cover.  ``coverage`` is that covered time over the
timed body's wall time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Timed targets: (layer, module, attribute path).  Several targets may
#: share one layer; their calls and self times add up.
TARGETS = (
    ("graph.generate", "repro.graph.generators", "rmat"),
    ("graph.generate", "repro.graph.datasets", "load"),
    ("graph.partition", "repro.graph.partition", "IntervalBlockPartition.build"),
    ("graph.hash_partition", "repro.graph.hash_partition", "hash_partition"),
    ("graph.stats", "repro.graph.stats", "nonempty_block_count"),
    ("graph.stats", "repro.graph.stats", "block_occupancy_histogram"),
    ("graph.shards", "repro.graph.shards", "write_rmat_shards"),
    ("graph.shards", "repro.graph.shards", "run_sharded"),
    ("graph.shards", "repro.graph.shards", "sharded_scheduled_counts"),
    ("algorithms.converge", "repro.algorithms.runner", "run_vectorized"),
    ("algorithms.converge", "repro.algorithms.runner", "run_blocked"),
    ("algorithms.converge", "repro.algorithms.vertex_centric",
     "run_vertex_centric"),
    ("arch.counts", "repro.arch.scheduler", "ScheduleCounts.compute"),
    ("arch.imbalance", "repro.arch.scheduler", "estimate_imbalance"),
    ("arch.price", "repro.arch.machine", "AcceleratorMachine.run"),
    ("arch.price", "repro.arch.graphr", "GraphRMachine.run"),
    ("arch.price", "repro.arch.cpu", "CPUMachine.run"),
    ("arch.price_many", "repro.arch.machine", "fold_many"),
    ("arch.price_many", "repro.arch.graphr", "graphr_fold_many"),
    ("perf.grid", "repro.perf.batch", "run_grid"),
    ("tune.search", "repro.tune.engine", "search"),
    ("tune.pareto", "repro.tune.pareto", "pareto_mask"),
    ("perf.store.read", "repro.perf.store", "SQLiteStore.get"),
    ("perf.store.write", "repro.perf.store", "SQLiteStore.put"),
    ("dynamic.replay", "repro.dynamic.updates", "apply_requests"),
    ("dynamic.replay", "repro.dynamic.updates", "apply_requests_batched"),
    ("dynamic.requests", "repro.dynamic.updates", "generate_requests"),
    ("dynamic.ingest", "repro.dynamic.stream", "StreamEngine.ingest"),
    ("dynamic.flush", "repro.dynamic.stream", "StreamEngine.flush"),
    ("dynamic.query", "repro.dynamic.stream", "StreamEngine.query"),
    ("dynamic.log_extend", "repro.dynamic.stream", "UpdateLog.extend_arrays"),
    ("dynamic.snapshot", "repro.dynamic.stream", "StreamEngine.snapshot"),
    ("dynamic.snapshot", "repro.dynamic.temporal", "TemporalGraph.snapshot_at"),
)

#: Public ``stats`` objects the ledger reads: the counters it adds up
#: per kind, and the class whose instances carry them.  A stats object
#: counts only while the ledger is installed (its value at install is
#: subtracted at restore).
WATCHED = {
    "run_cache": ("repro.perf.cache", "RunCache",
                  ("memory_hits", "disk_hits", "misses", "counts_memory_hits",
                   "counts_disk_hits", "counts_misses")),
    "engine": ("repro.dynamic.stream", "StreamEngine",
               ("rebuilds", "incremental_refreshes")),
}

#: Every per-layer metric name with its unit, in report order, as
#: ``BENCHMARK.json`` lists them.
METRICS: dict[str, str] = {
    m["name"]: m["unit"] for m in json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())["per_layer"]
}

#: Experiment drivers, timed per pass by the paper-suite workload.
EXPERIMENT_IDS = tuple(
    name.split(".")[1] for name in METRICS
    if name.startswith("experiments.") and name.endswith(".cold_s"))


def _resolve(module_name: str, path: str):
    """Return (owner, attribute, raw object) for a dotted attribute."""
    owner = sys.modules.get(module_name)
    if owner is None:
        __import__(module_name)
        owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    raw = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


def _repro_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))]


class Ledger:
    """Per-layer counters filled by the wrappers while installed."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.stats: dict[str, float] = defaultdict(float)
        self._watched: list[tuple[str, object, dict]] = []
        self.covered_s = 0.0
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers --------------------------------------------------------

    def _timed(self, layer: str, fn):
        ledger = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            ledger._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                ledger._stack.pop()
                ledger.calls[layer] += 1
                ledger.self_s[layer] += duration - frame[0]
                if ledger._stack:
                    ledger._stack[-1][0] += duration
                else:
                    ledger.covered_s += duration
                ledger.extra[layer + ".wall_s"] += duration
            ledger._count(layer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def _count(self, layer: str, args, kwargs, result) -> None:
        """Work counts read from a wrapped call's arguments or result."""
        if layer == "algorithms.converge":
            run = getattr(result, "run", result)  # VertexCentricRun wraps one
            self.extra["converge.iterations"] += run.iterations
            self.extra["converge.edges"] += run.total_edges
        elif layer == "arch.price_many":
            # fold_many(run, counts, workload, configs) and
            # graphr_fold_many(machine, cells): the batch is the last
            # positional argument.
            batch = kwargs.get("configs") or kwargs.get("cells") or args[-1]
            self.extra["price_many.configs"] += len(batch)
        elif layer == "perf.store.read" and result is not None:
            self.extra["store.bytes_read"] += len(result)
        elif layer == "perf.store.write":
            payload = kwargs.get("payload", args[2] if len(args) > 2 else b"")
            self.extra["store.bytes_written"] += len(payload)
        elif layer == "dynamic.replay":
            requests = kwargs.get("requests") or args[1]
            self.extra["replay.requests"] += len(requests)

    def watch(self, kind: str, stats) -> None:
        """Count ``stats`` (a :data:`WATCHED` kind) while installed."""
        if any(s is stats for _, s, _ in self._watched):
            return
        self._watched.append((kind, stats, self._read(kind, stats)))

    @staticmethod
    def _read(kind: str, stats) -> dict:
        return {f: getattr(stats, f) for f in WATCHED[kind][2]}

    def _observer(self, kind: str, init):
        ledger = self

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            ledger.watch(kind, obj.stats)

        __init__.__wrapped__ = init
        return __init__

    # --- install / restore -----------------------------------------------

    def _patch(self, owner, name: str, raw, replacement) -> None:
        """Bind ``replacement`` wherever ``raw`` is bound."""
        self._patches.append((owner, name, raw))
        setattr(owner, name, replacement)
        if isinstance(owner, type):
            return
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is raw and not (module is owner and attr == name):
                    self._patches.append((module, attr, raw))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every target; raises if a target no longer exists."""
        if self._patches:
            raise RuntimeError("ledger already installed")
        for layer, module_name, path in TARGETS:
            owner, name, raw = _resolve(module_name, path)
            if isinstance(raw, classmethod):
                replacement = classmethod(self._timed(layer, raw.__func__))
            else:
                replacement = self._timed(layer, raw)
            self._patch(owner, name, raw, replacement)
        for kind, (module_name, path, _) in WATCHED.items():
            cls = _resolve(module_name, path)[2]
            init = vars(cls)["__init__"]
            self._patch(cls, "__init__", init, self._observer(kind, init))
        from repro.perf.cache import get_run_cache

        self._watched = [(k, s, self._read(k, s)) for k, s, _ in self._watched]
        self.watch("run_cache", get_run_cache().stats)

    def restore(self) -> None:
        """Put every original back, newest patch first, and add up what
        the watched stats counted meanwhile."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)
        for kind, stats, base in self._watched:
            for field, value in self._read(kind, stats).items():
                self.stats[field] += value - base[field]
        self._watched = [(k, s, self._read(k, s)) for k, s, _ in self._watched]

    # --- report ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The layer rows of :data:`METRICS` (experiments and trace
        rows are filled in by the workload)."""
        out: dict[str, float] = {}
        for name in METRICS:
            if name.startswith(("experiments.", "trace.")):
                continue
            layer, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = float(self.calls[layer])
            elif field == "self_s":
                out[name] = self.self_s[layer]
        out["algorithms.converge.iterations"] = self.extra["converge.iterations"]
        out["algorithms.converge.edges"] = self.extra["converge.edges"]
        out["arch.price_many.configs"] = self.extra["price_many.configs"]
        out["dynamic.replay.requests"] = self.extra["replay.requests"]
        out["perf.store.reads"] = float(self.calls["perf.store.read"])
        out["perf.store.writes"] = float(self.calls["perf.store.write"])
        out["perf.store.read_s"] = self.extra["perf.store.read.wall_s"]
        out["perf.store.write_s"] = self.extra["perf.store.write.wall_s"]
        out["perf.store.bytes_read"] = self.extra["store.bytes_read"]
        out["perf.store.bytes_written"] = self.extra["store.bytes_written"]

        st = self.stats
        hits = st["memory_hits"] + st["disk_hits"]
        out["algorithms.run_cache.hit_ratio"] = _ratio(hits, hits + st["misses"])
        hits = st["counts_memory_hits"] + st["counts_disk_hits"]
        out["arch.counts_cache.hit_ratio"] = _ratio(
            hits, hits + st["counts_misses"])
        rebuilds = st["rebuilds"]
        out["dynamic.rebuild_ratio"] = _ratio(
            rebuilds, rebuilds + st["incremental_refreshes"])
        return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
