"""The benchmark workloads, run inside one worker process each.

Every workload is a closed loop: one client, one process, no pools
(``jobs=1``); a request is issued only after the previous one returns.
Each runs in passes over a fixed request set, so every pass does the
same work and a time budget only decides how many passes run:

* ``paper-suite`` -- a pass is every ``ALL_EXPERIMENTS`` driver in
  canonical order.  A worker runs one cold pass (fresh, empty
  disk-backed run cache) and one warm pass (a new ``RunCache`` over the
  same directory: empty memory level, warm SQLite store).
* ``stream`` -- a pass replays a seeded update log through a copy of a
  ``StreamEngine`` loaded with the base graph: each step ingests a batch
  and queries every maintained algorithm; every 25th step also prices
  the snapshot.  After each pass, the answers of every priced step and
  of a fifth of the others are checked, outside the timed body.

A worker returns its samples as a dict; ``run.py`` aggregates them.
"""

from __future__ import annotations

import copy
import gc
import os
import time
import traceback
from pathlib import Path

import numpy as np

import gates

# The stream graph is 4x the temporal experiment's (2k vertices, 16k
# edges): at that size a step's time moves about half as much with the
# shared host's speed, because more of it is array work and less is
# interpreter overhead.
STREAM_VERTICES = 8_000
STREAM_EDGES = 64_000
STREAM_DELETE_FRACTION = 0.25
STREAM_BATCH = 128
STREAM_STEPS = 75
STREAM_PRICE_EVERY = 25
STREAM_MACHINE = "acc+HyVE"
#: A worker checks every fifth step, from an offset of its own, so the
#: five workers of a run (``run.WORKERS``) check every step.
STREAM_CHECK_EVERY = 5
#: Staleness bound above the batch size, so the one flush of a step is
#: the one its queries force.
STREAM_STALENESS_K = 1024


class Outcome:
    """Op accounting shared by every workload."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(error)


def _guarded(fn):
    """Run ``fn``; an exception is reported as the op's error."""
    try:
        return fn(), None
    except Exception as exc:  # an op that raises is a failed op
        return None, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"


class Phase:
    """Switches the ledger on around traced passes only."""

    def __init__(self, ledger) -> None:
        self.ledger = ledger
        self.covered_s = 0.0
        self.traced_s = 0.0

    def run(self, traced: bool, body):
        """Time ``body()`` with the ledger installed when ``traced``."""
        if traced:
            self.ledger.install()
            before = self.ledger.covered_s
        gc.collect()
        start = time.perf_counter()
        try:
            body()
        finally:
            wall = time.perf_counter() - start
            if traced:
                self.ledger.restore()
                self.covered_s += self.ledger.covered_s - before
                self.traced_s += wall
        return wall


# --- paper-suite ---------------------------------------------------------------


class PaperSuite:
    name = "paper-suite"

    def __init__(self, seed: int, worker: int, root: Path, expected: dict
                 ) -> None:
        # The inputs are the paper's five fixed datasets: the seed has
        # nothing to choose.
        self.root = root
        self.expected = expected

    def setup(self) -> None:
        from repro.experiments import workloads

        workloads()

    def measure(self, budget_s: float, mode: str, ledger, outcome: Outcome
                ) -> dict:
        from repro.experiments import ALL_EXPERIMENTS
        from repro.perf.cache import RunCache, set_run_cache

        store = Path(os.environ["REPRO_CACHE_DIR"])
        results = self.root / "results"
        phase = Phase(ledger)
        traced = mode == "traced"
        passes: list[dict] = []
        for kind in ("cold", "warm"):
            set_run_cache(RunCache(store))
            times: dict[str, float] = {}
            answers: dict[str, object] = {}

            def body() -> None:
                for name, driver in ALL_EXPERIMENTS.items():
                    start = time.perf_counter()
                    answers[name] = _guarded(driver)
                    times[name] = time.perf_counter() - start

            wall = phase.run(traced, body)
            passes.append({"kind": kind, "wall_s": wall, "traced": traced,
                           "drivers": times})
            for name, (result, error) in answers.items():
                if error is None:
                    error = gates.check_experiment(
                        name, result.to_csv(), results, self.expected)
                outcome.record(error)
        return _samples(passes, [t * 1e3 for p in passes
                                 for t in p["drivers"].values()], phase)


# --- stream --------------------------------------------------------------------


class Stream:
    name = "stream"

    def __init__(self, seed: int, worker: int, root: Path, expected: dict
                 ) -> None:
        self.seed = seed
        self.checked = _checked_steps(worker)

    def setup(self) -> None:
        from repro.dynamic.stream import StreamEngine, generate_update_log
        from repro.graph.generators import rmat

        base = rmat(STREAM_VERTICES, STREAM_EDGES, seed=self.seed,
                    name=f"bench-stream-{self.seed}")
        log = generate_update_log(
            base, STREAM_STEPS * STREAM_BATCH, seed=self.seed,
            delete_fraction=STREAM_DELETE_FRACTION, name=base.name)
        events = log.to_arrays()
        self.batches = np.split(events[base.num_edges:], STREAM_STEPS)
        self.loaded = StreamEngine(STREAM_VERTICES, k=STREAM_STALENESS_K,
                                   name=log.name)
        self.loaded.ingest(events[:base.num_edges])

    def measure(self, budget_s: float, mode: str, ledger, outcome: Outcome
                ) -> dict:
        from repro.algorithms import make_algorithm
        from repro.arch.machine import make_machine
        from repro.perf.cache import RunCache, set_run_cache

        machine = make_machine(STREAM_MACHINE)
        pagerank = make_algorithm("pr")
        phase = Phase(ledger)
        passes: list[dict] = []
        requests: list[float] = []
        for traced in _schedule(mode, budget_s):
            engine = copy.deepcopy(self.loaded)
            set_run_cache(RunCache(""))
            lat: list[float] = []
            answers: list[tuple[int, dict]] = []

            def body() -> None:
                for i, batch in enumerate(self.batches):
                    start = time.perf_counter()
                    engine.ingest(batch)
                    values = {a: engine.query(a) for a in engine.algorithms}
                    if (i + 1) % STREAM_PRICE_EVERY == 0:
                        machine.run(pagerank, engine.snapshot())
                    lat.append(time.perf_counter() - start)
                    if i in self.checked:
                        answers.append((engine.logical_time, {
                            a: v.copy() for a, v in values.items()}))

            if traced:
                ledger.watch("engine", engine.stats)
            wall = phase.run(traced, body)
            for t, values in answers:
                outcome.record(_check_step(engine, t, values))
            passes.append({"wall_s": wall, "traced": traced,
                           "ops": len(self.batches) * STREAM_BATCH})
            if not traced:
                requests.extend(t * 1e3 for t in lat)
        return _samples(passes, requests, phase)


def _checked_steps(worker: int) -> set[int]:
    """Steps whose answers a worker's passes check: every priced step,
    and every :data:`STREAM_CHECK_EVERY`-th from the worker's offset."""
    priced = range(STREAM_PRICE_EVERY - 1, STREAM_STEPS, STREAM_PRICE_EVERY)
    offset = worker % STREAM_CHECK_EVERY
    return set(priced) | set(range(offset, STREAM_STEPS, STREAM_CHECK_EVERY))


def _check_step(engine, t: int, values: dict) -> str | None:
    """The values a step published against ``run_vectorized`` on the
    snapshot at that step's time, rebuilt from the engine's log."""
    from repro.algorithms import BFS, make_algorithm
    from repro.algorithms.runner import run_vectorized

    snapshot = engine.snapshot(t)
    for name, got in values.items():
        algorithm = BFS(root=engine.root) if name == "bfs" else \
            make_algorithm(name)
        error = gates.check_stream_values(
            name, got, run_vectorized(algorithm, snapshot).values)
        if error is not None:
            return f"{snapshot.name}: {error}"
    return None


# --- shared --------------------------------------------------------------------


def _schedule(mode: str, budget_s: float):
    """Which passes to run, as a traced flag per pass.

    Untraced: passes until the budget is spent, at least two so there is
    a warm pass.  Traced: three untraced and three traced passes,
    alternating, so the tracing overhead is measured on the same work.
    """
    if mode == "traced":
        for _ in range(3):
            yield False
            yield True
        return
    deadline = time.perf_counter() + budget_s
    count = 0
    while count < 2 or time.perf_counter() < deadline:
        count += 1
        yield False


def _samples(passes: list[dict], requests: list[float], phase: Phase) -> dict:
    return {
        "passes": passes,
        "requests_ms": requests,
        "covered_s": phase.covered_s,
        "traced_s": phase.traced_s,
    }


WORKLOADS = {cls.name: cls for cls in (PaperSuite, Stream)}
