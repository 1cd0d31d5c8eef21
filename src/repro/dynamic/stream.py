"""Streaming ingest: append-only update logs and a bounded-staleness engine.

This is the continuous-ingest half of the dynamic-graph story (ROADMAP
item 3).  Three pieces:

* :class:`UpdateLog` — an append-only, replayable log of edge ``add`` /
  ``del`` events with **monotonic logical timestamps**, serialised as
  ``hyve-updates-v1`` JSONL (one header record, then one record per
  event) or as a packed ``(n, 4)`` int64 array.  The log is laid out
  the way HyVE's write-once ReRAM blocks stream: strictly sequential
  appends, no in-place mutation, so replay is a single forward scan.
* :class:`StreamEngine` — consumes updates and maintains incremental
  PR/CC/BFS values under a **bounded-staleness contract**: the
  published values may lag the log by at most ``K - 1`` updates, and a
  flush (value refresh) happens whenever ``K`` updates are pending or
  a query arrives.  ``K = 1`` degenerates to eager exact maintenance.
  BFS and CC refresh *incrementally* for insert-only deltas (monotone
  min-relaxation from the previous fixpoint — exact, because the
  fixpoint is unique); deletions and PR fall back to a from-scratch
  rebuild of the canonical snapshot through the run cache, which is
  bit-identical by construction.  Either way, every published value is
  bit-identical (exact ints for BFS/CC, 1e-12 for PR) to a full
  rebuild of ``snapshot_at(t)`` — the ``stream-rebuild-identity``
  oracle enforces this over generated logs.
* :func:`measure_stream` — a :class:`StreamThroughputResult` bench:
  sustained updates/second under concurrent pricing queries, compared
  against a serial-replay baseline that rebuilds the graph from the
  log prefix at every query.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..algorithms import BFS, UNREACHED, make_algorithm, run_cached
from ..algorithms.runner import run_vectorized
from ..errors import StreamError
from ..graph.graph import VERTEX_DTYPE, Graph
from ..obs.metrics import STALENESS_FLUSHES, UPDATES_APPLIED, get_metrics
from ..obs.trace import get_tracer
from .temporal import TemporalGraph

#: Schema tag carried by every serialised update log.
UPDATES_SCHEMA = "hyve-updates-v1"

#: Default staleness bound: flush after this many pending updates.
DEFAULT_STALENESS_K = 64

#: Algorithms the stream engine knows how to maintain.
MAINTAINED_ALGORITHMS = ("pr", "cc", "bfs")

_OPS = ("add", "del")


@dataclass(frozen=True)
class Update:
    """One logged event: ``op`` ("add"/"del") on edge ``src -> dst``
    at logical time ``t``."""

    t: int
    op: str
    src: int
    dst: int


class UpdateLog:
    """Append-only edge-update log with monotonic logical timestamps.

    Timestamps are non-decreasing; events sharing a timestamp form one
    logical batch.  Appends are validated eagerly: vertex ids must be
    in range and a ``del`` must close a currently-open edge instance,
    so any prefix of a log is always replayable.
    """

    def __init__(self, num_vertices: int, name: str = "stream") -> None:
        if num_vertices < 0:
            raise StreamError(f"negative vertex count: {num_vertices}")
        self.num_vertices = int(num_vertices)
        self.name = name
        self._t: list[int] = []
        self._op: list[str] = []
        self._src: list[int] = []
        self._dst: list[int] = []
        #: open-instance multiset per packed key (append-time
        #: validation); a defaultdict so bulk appends can read counts
        #: through a single C-level ``itemgetter`` call
        self._open: defaultdict[int, int] = defaultdict(int)

    # --- appending -------------------------------------------------------

    @property
    def last_time(self) -> int:
        """Timestamp of the newest event (-1 when empty)."""
        return self._t[-1] if self._t else -1

    def append(self, op: str, src: int, dst: int, t: int | None = None,
               dedupe: bool = False) -> bool:
        """Append one event; returns False iff suppressed by ``dedupe``.

        ``t=None`` auto-assigns ``last_time + 1``.  With
        ``dedupe=True`` an ``add`` for an edge that already has an
        open instance is suppressed (duplicate suppression for
        at-least-once upstream feeds).
        """
        if op not in _OPS:
            raise StreamError(f"unknown op {op!r} (expected add/del)")
        src = int(src)
        dst = int(dst)
        if not (0 <= src < self.num_vertices and 0 <= dst < self.num_vertices):
            raise StreamError(
                f"edge {src}->{dst} out of range [0, {self.num_vertices})"
            )
        t = self.last_time + 1 if t is None else int(t)
        if t < self.last_time:
            raise StreamError(
                f"non-monotonic timestamp {t} after {self.last_time}"
            )
        key = (src << 32) | dst
        if op == "add":
            if dedupe and self._open.get(key, 0):
                return False
            self._open[key] = self._open.get(key, 0) + 1
        else:
            if not self._open.get(key, 0):
                raise StreamError(
                    f"del {src}->{dst} at t={t} has no matching open edge"
                )
            self._open[key] -= 1
            if not self._open[key]:
                del self._open[key]
        self._t.append(t)
        self._op.append(op)
        self._src.append(src)
        self._dst.append(dst)
        return True

    def extend(self, updates: Iterable["Update | tuple"]) -> int:
        """Append many events; returns the number accepted."""
        n = 0
        for u in updates:
            if isinstance(u, Update):
                n += self.append(u.op, u.src, u.dst, t=u.t)
            else:
                n += self.append(*u)
        return n

    def extend_arrays(self, events: np.ndarray) -> int:
        """Append a packed ``(n, 4)`` event block with vectorized
        validation (range, monotonic timestamps, and the FIFO
        open-instance check for deletes) — the bulk-ingest fast path.
        """
        events = np.asarray(events, dtype=np.int64)
        if events.ndim != 2 or events.shape[1] != 4:
            raise StreamError(
                f"packed update array must be (n, 4), got {events.shape}"
            )
        if events.shape[0] == 0:
            return 0
        t, op, src, dst = events.T
        bad_op = (op != 0) & (op != 1)
        if bad_op.any():
            raise StreamError(
                f"packed op must be 0/1, got {int(op[np.argmax(bad_op)])}"
            )
        if src.min() < 0 or dst.min() < 0 \
                or max(src.max(), dst.max()) >= self.num_vertices:
            raise StreamError(
                f"vertex ids must lie in [0, {self.num_vertices})"
            )
        if t[0] < self.last_time or np.any(np.diff(t) < 0):
            raise StreamError(
                f"non-monotonic timestamps in block starting at t={int(t[0])}"
            )
        keys = (src << 32) | dst
        delta = np.where(op == 0, 1, -1).astype(np.int64)
        # Per-key running balance (seeded from the currently-open
        # counts) must never go negative: group events by key with a
        # stable sort, then do a segmented cumulative sum.
        order = np.lexsort((np.arange(keys.size), keys))
        ks, ds = keys[order], delta[order]
        seg = np.r_[True, ks[1:] != ks[:-1]]
        uk = ks[seg]
        key_list = uk.tolist()
        if len(key_list) == 1:
            base = np.array([self._open[key_list[0]]], dtype=np.int64)
        else:
            base = np.array(itemgetter(*key_list)(self._open),
                            dtype=np.int64)
        csum = np.cumsum(ds)
        starts = np.flatnonzero(seg)
        seg_sizes = np.diff(np.r_[starts, keys.size])
        seg_base = np.repeat(csum[starts] - ds[starts], seg_sizes)
        running = csum - seg_base + np.repeat(base, seg_sizes)
        if (running < 0).any():
            j = int(order[int(np.argmax(running < 0))])
            raise StreamError(
                f"del {int(src[j])}->{int(dst[j])} at t={int(t[j])} "
                f"has no matching open edge"
            )
        self._t.extend(t.tolist())
        self._op.extend(["add" if o == 0 else "del" for o in op.tolist()])
        self._src.extend(src.tolist())
        self._dst.extend(dst.tolist())
        final = running[np.r_[np.flatnonzero(seg)[1:] - 1, keys.size - 1]]
        for k, c in zip(uk.tolist(), final.tolist()):
            if c:
                self._open[k] = c
            else:
                self._open.pop(k, None)
        return events.shape[0]

    # --- reading ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._t)

    def __getitem__(self, i: int) -> Update:
        return Update(self._t[i], self._op[i], self._src[i], self._dst[i])

    def __iter__(self) -> Iterator[Update]:
        for i in range(len(self._t)):
            yield self[i]

    @property
    def open_edges(self) -> int:
        """Edges currently alive (multiset size) after the whole log."""
        return sum(self._open.values())

    def temporal(self) -> TemporalGraph:
        """Replay into validity intervals (see :class:`TemporalGraph`)."""
        return TemporalGraph.from_log(self)

    # --- packed-array form -----------------------------------------------

    def to_arrays(self) -> np.ndarray:
        """Packed ``(n, 4)`` int64 array: columns t, op(0=add,1=del),
        src, dst — the sequential-stream layout."""
        arr = np.empty((len(self._t), 4), dtype=np.int64)
        arr[:, 0] = self._t
        arr[:, 1] = [0 if op == "add" else 1 for op in self._op]
        arr[:, 2] = self._src
        arr[:, 3] = self._dst
        return arr

    @classmethod
    def from_arrays(cls, num_vertices: int, events: np.ndarray,
                    name: str = "stream") -> "UpdateLog":
        """Rebuild (and re-validate) a log from its packed-array form."""
        events = np.asarray(events, dtype=np.int64)
        if events.ndim != 2 or events.shape[1] != 4:
            raise StreamError(
                f"packed update array must be (n, 4), got {events.shape}"
            )
        log = cls(num_vertices, name=name)
        for t, op, src, dst in events:
            if op not in (0, 1):
                raise StreamError(f"packed op must be 0/1, got {int(op)}")
            log.append(_OPS[int(op)], int(src), int(dst), t=int(t))
        return log

    # --- JSONL form ------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write ``hyve-updates-v1`` JSONL: header record, then events."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as sink:
            json.dump({"schema": UPDATES_SCHEMA, "kind": "header",
                       "num_vertices": self.num_vertices,
                       "name": self.name, "events": len(self)}, sink,
                      sort_keys=True)
            sink.write("\n")
            for u in self:
                json.dump({"t": u.t, "op": u.op, "src": u.src,
                           "dst": u.dst}, sink, sort_keys=True)
                sink.write("\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "UpdateLog":
        """Parse and validate one ``hyve-updates-v1`` JSONL file."""
        path = Path(path)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise StreamError(f"unreadable update log {path}: {exc}") from exc
        if not lines:
            raise StreamError(f"{path} is empty (missing header record)")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise StreamError(f"{path}:1: bad JSON: {exc}") from exc
        if not isinstance(header, dict) \
                or header.get("schema") != UPDATES_SCHEMA:
            raise StreamError(
                f"{path} is not a {UPDATES_SCHEMA} log (schema="
                f"{header.get('schema') if isinstance(header, dict) else None!r})"
            )
        num_vertices = header.get("num_vertices")
        if type(num_vertices) is not int:
            raise StreamError(
                f"{path}:1: header needs an integer num_vertices, got "
                f"{num_vertices!r}"
            )
        log = cls(num_vertices, name=str(header.get("name", "stream")))
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                log.append(record["op"], record["src"], record["dst"],
                           t=record["t"])
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise StreamError(f"{path}:{lineno}: bad event: {exc}") from exc
        declared = header.get("events")
        if declared is not None and declared != len(log):
            raise StreamError(
                f"{path}: header declares {declared} events, found {len(log)}"
            )
        return log


def generate_update_log(graph: Graph, num_updates: int, seed: int = 0,
                        delete_fraction: float = 0.3,
                        name: str | None = None) -> UpdateLog:
    """Deterministic synthetic log: the base graph's edges as one
    ``t=0`` batch, then ``num_updates`` seeded add/del events at
    ``t = 1..num_updates`` (deletes target a random open edge, so
    delete-then-re-insert of the same key occurs naturally)."""
    if graph.num_vertices <= 0:
        raise StreamError("generate_update_log needs a non-empty vertex set")
    rng = np.random.default_rng(seed)
    log = UpdateLog(graph.num_vertices, name=name or f"{graph.name}-stream")
    open_edges: list[tuple[int, int]] = []
    for s, d in zip(graph.src.tolist(), graph.dst.tolist()):
        log.append("add", s, d, t=0)
        open_edges.append((s, d))
    for i in range(num_updates):
        t = i + 1
        if open_edges and rng.random() < delete_fraction:
            j = int(rng.integers(len(open_edges)))
            s, d = open_edges.pop(j)
            log.append("del", s, d, t=t)
        else:
            s = int(rng.integers(graph.num_vertices))
            d = int(rng.integers(graph.num_vertices))
            log.append("add", s, d, t=t)
            open_edges.append((s, d))
    return log


# --- incremental maintenance (exact min-relaxation) ---------------------------


def _sorted_member(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Membership mask of ``needles`` in a *sorted* ``haystack``."""
    if not haystack.size:
        return np.zeros(needles.size, dtype=bool)
    pos = np.searchsorted(haystack, needles)
    probe = np.minimum(pos, haystack.size - 1)
    return (pos < haystack.size) & (haystack[probe] == needles)


class _RelaxEdges:
    """Segment structure for repeated exact scatter-min sweeps over one
    fixed edge-support set.

    ``np.minimum.at`` pays a heavy per-duplicate penalty on *every*
    sweep; the refixpoint loops instead sort each scatter direction
    once and reduce per-target segments with ``np.minimum.reduceat`` —
    the same exact minimum, with the sort amortised across all sweeps
    of a flush and shared between the BFS and CC refreshes.  The packed
    support keys arrive sorted by ``(src, dst)``, so the backward
    direction (scatter into ``src``) is free; the forward direction
    sorts the swapped keys once.
    """

    __slots__ = ("fwd", "bwd")

    def __init__(self, keys: np.ndarray) -> None:
        self.bwd = self._segments(keys & 0xFFFFFFFF, keys >> 32)
        rev = np.sort(((keys & 0xFFFFFFFF) << 32) | (keys >> 32))
        self.fwd = self._segments(rev & 0xFFFFFFFF, rev >> 32)

    @staticmethod
    def _segments(gather: np.ndarray, target: np.ndarray):
        """(gather ids, segment starts, one target per segment) for a
        ``target``-sorted edge direction."""
        if not target.size:
            return gather, np.empty(0, dtype=np.intp), target
        starts = np.flatnonzero(
            np.concatenate(([True], target[1:] != target[:-1])))
        return gather, starts, target[starts]


def _sweep_min(values: np.ndarray, direction, plus_one: bool = False) -> bool:
    """One exact scatter-min sweep; returns True iff any value improved.

    ``plus_one`` adds the unit hop cost while leaving ``UNREACHED``
    saturated (BFS relaxation); without it the sweep is plain min-label
    propagation (CC)."""
    gather, starts, targets = direction
    if not targets.size:
        return False
    cand = values[gather]
    if plus_one:
        np.add(cand, 1, out=cand, where=cand != UNREACHED)
    mins = np.minimum.reduceat(cand, starts)
    improved = mins < values[targets]
    if not improved.any():
        return False
    values[targets[improved]] = mins[improved]
    return True


def _bfs_delete_repair(previous: np.ndarray, dropped: np.ndarray,
                       keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Invalidate exactly the region a support deletion can orphan.

    A dropped edge ``(u, v)`` only matters if it was *tight*
    (``level[u] + 1 == level[v]``).  Its target is orphaned when no
    tight in-edge remains in the current support; orphaning then
    propagates — a vertex whose every tight parent was invalidated is
    invalid too.  The closure runs as a vectorized worklist over
    per-level rounds, decrementing tight-support counts.  Surviving
    levels are provably achievable on the current support, so after
    setting the invalidated region to ``UNREACHED`` the array is a
    valid upper-bound seed for :func:`_bfs_refixpoint` — and when
    nothing is invalidated the previous levels are already exact.

    Returns ``(levels, invalidated_count)``; ``levels`` is ``previous``
    itself (not a copy) when the count is zero.
    """
    du = dropped >> 32
    dv = dropped & 0xFFFFFFFF
    dl = previous[du]
    seeds = dv[(dl != UNREACHED) & (dl + 1 == previous[dv])]
    if not seeds.size:
        # No dropped edge was tight — levels provably unchanged, and
        # the O(support) scan below never runs.
        return previous, 0
    src = keys >> 32
    dst = keys & 0xFFFFFFFF
    lu = previous[src]
    tight = (lu != UNREACHED) & (lu + 1 == previous[dst])
    tsrc = src[tight]
    tdst = dst[tight]
    support = np.bincount(tdst, minlength=previous.size)
    seeds = np.unique(seeds)
    frontier = seeds[support[seeds] == 0]
    if not frontier.size:
        return previous, 0
    invalid = np.zeros(previous.size, dtype=bool)
    invalid[frontier] = True
    while frontier.size:
        newly = np.zeros(previous.size, dtype=bool)
        newly[frontier] = True
        sel = newly[tsrc]
        hit = tdst[sel]
        support -= np.bincount(hit, minlength=previous.size)
        hit = np.unique(hit)
        frontier = hit[(support[hit] <= 0) & ~invalid[hit]]
        invalid[frontier] = True
    values = previous.copy()
    values[invalid] = UNREACHED
    return values, int(np.count_nonzero(invalid))


def _bfs_refixpoint(values: np.ndarray, edges: _RelaxEdges) -> np.ndarray:
    """Relax BFS hop levels to the fixpoint from valid upper bounds.

    When the incoming levels are achievable upper bounds on the new
    shortest hop distances (true after insertions, and after
    :func:`_bfs_delete_repair` has reset the orphaned region),
    unit-weight Bellman-Ford relaxation converges to the unique
    fixpoint — exactly the levels a from-scratch BFS computes."""
    values = values.copy()
    while _sweep_min(values, edges.fwd, plus_one=True):
        pass
    return values


def _bfs_delta_unchanged(values: np.ndarray, added: np.ndarray) -> bool:
    """True iff no inserted support edge can lower any BFS level.

    The previous levels are a fixpoint of the old support; if every new
    edge ``(u, v)`` already satisfies ``level[v] <= level[u] + 1`` they
    are consistent (and still achievable) on the new support too — so
    by uniqueness they *are* the new levels, and the flush can skip the
    relaxation sweeps entirely."""
    if not added.size:
        return True
    lu = values[added >> 32]
    lv = values[added & 0xFFFFFFFF]
    reach = lu != UNREACHED
    return not np.any(lu[reach] + 1 < lv[reach])


def _cc_delta_unchanged(values: np.ndarray, added: np.ndarray) -> bool:
    """True iff every inserted support edge joins same-label vertices —
    components (hence min-id labels) provably did not change."""
    if not added.size:
        return True
    return not np.any(values[added >> 32] != values[added & 0xFFFFFFFF])


def _cc_refixpoint(values: np.ndarray, edges: _RelaxEdges) -> np.ndarray:
    """Relax CC min-labels to the fixpoint from a seed labelling.

    Exact whenever every seed label is the id of some vertex inside
    the labelled vertex's *current* component (true for previous
    labels after insertions, and for the re-initialised seeds
    :func:`_cc_delete_seed` builds after deletions): symmetric
    min-propagation then converges to the unique fixpoint — the
    minimum vertex id in each component — identical to a rebuild."""
    values = values.copy()
    while True:
        fwd = _sweep_min(values, edges.fwd)
        bwd = _sweep_min(values, edges.bwd)
        # Pointer shortcutting (Shiloach–Vishkin): every label is the
        # id of a vertex in the same component, so jumping to the
        # label's own label stays inside the component and squeezes
        # convergence from O(diameter) to O(log diameter) sweeps
        # without changing the fixpoint.
        jumped = values[values]
        short = jumped < values
        if short.any():
            np.minimum(values, jumped, out=values)
        elif not (fwd or bwd):
            return values


def _cc_delete_seed(values: np.ndarray, dropped: np.ndarray) -> np.ndarray:
    """Seed labels for a CC refresh after support deletions.

    Deletions can split components, so labels of components touched by
    a dropped edge are no longer trustworthy: those vertices are
    re-seeded with their own ids (a from-scratch start *local to the
    affected components*), while every untouched component keeps its
    minimal label.  No post-deletion edge connects an affected to an
    unaffected component, so relaxing the seeds over the new edge set
    (insertions included) reaches the exact min-id fixpoint."""
    endpoints = np.concatenate([dropped >> 32, dropped & 0xFFFFFFFF])
    # Labels are vertex ids, so membership in the affected-label set is
    # a plain table lookup (no np.isin hashing).
    hit = np.zeros(values.size, dtype=bool)
    hit[values[endpoints]] = True
    affected = hit[values]
    return np.where(affected, np.arange(values.size, dtype=values.dtype),
                    values)


@dataclass
class StreamStats:
    """Counters describing one engine's lifetime (mutable, additive)."""

    updates: int = 0
    queries: int = 0
    flushes: int = 0
    incremental_refreshes: int = 0
    rebuilds: int = 0
    max_pending_at_flush: int = 0
    #: pending-update count at each flush (the staleness the flush
    #: retired; feeds the CLI staleness table)
    pending_at_flush: list[int] = field(default_factory=list)


class StreamEngine:
    """Bounded-staleness ingest engine over an append-only log.

    The engine owns an :class:`UpdateLog`, applies every accepted event
    to O(1) multiset edge state immediately, and refreshes the
    published algorithm values whenever ``k`` updates are pending or a
    query arrives — so published values lag the log by at most
    ``k - 1`` updates, and a query is always answered at the current
    logical time.
    """

    def __init__(self, num_vertices: int,
                 algorithms: tuple[str, ...] = MAINTAINED_ALGORITHMS,
                 k: int = DEFAULT_STALENESS_K, name: str = "stream",
                 root: int = 0) -> None:
        if k < 1:
            raise StreamError(f"staleness bound k must be >= 1, got {k}")
        unknown = [a for a in algorithms if a not in MAINTAINED_ALGORITHMS]
        if unknown:
            raise StreamError(
                f"cannot maintain {unknown}; supported: "
                f"{list(MAINTAINED_ALGORITHMS)}"
            )
        self.log = UpdateLog(num_vertices, name=name)
        self.k = int(k)
        self.root = int(root)
        self.algorithms = tuple(algorithms)
        self._algs = {
            a: BFS(root=self.root) if a == "bfs" else make_algorithm(a)
            for a in self.algorithms
        }
        #: live edge multiset as parallel sorted arrays (packed key,
        #: multiplicity) — updated by vectorized merges per chunk
        self._live_keys = np.empty(0, dtype=np.int64)
        self._live_mult = np.empty(0, dtype=np.int64)
        self._num_edges = 0
        self._pending = 0
        #: edge support (distinct live keys) at the last value refresh;
        #: the flush diffs it against the live support to decide which
        #: incremental path is sound
        self._support_at_refresh = np.empty(0, dtype=np.int64)
        self._values: dict[str, np.ndarray] = {}
        self._values_time = -1
        self._temporal: tuple[int, TemporalGraph] | None = None
        self.stats = StreamStats()

    @classmethod
    def from_graph(cls, graph: Graph, **kwargs) -> "StreamEngine":
        """Seed an engine with a base graph as one ``t=0`` add batch."""
        kwargs.setdefault("name", f"{graph.name}-stream")
        engine = cls(graph.num_vertices, **kwargs)
        engine.ingest(
            ("add", int(s), int(d), 0)
            for s, d in zip(graph.src, graph.dst)
        )
        return engine

    # --- state -----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.log.num_vertices

    @property
    def num_edges(self) -> int:
        """Edges currently alive (multiset size)."""
        return self._num_edges

    @property
    def logical_time(self) -> int:
        """Timestamp of the newest ingested event (-1 when empty)."""
        return self.log.last_time

    @property
    def pending(self) -> int:
        """Updates ingested since the last value refresh (< k, except
        transiently inside :meth:`ingest`)."""
        return self._pending

    @property
    def values_time(self) -> int:
        """Logical time the published values correspond to."""
        return self._values_time

    # --- ingest / flush --------------------------------------------------

    def ingest(self, updates) -> int:
        """Append + apply a batch of events; flush per the K contract.

        Accepts a packed ``(n, 4)`` int64 array (the fast path — all
        validation and state maintenance is vectorized), an
        :class:`UpdateLog`, or an iterable of :class:`Update` objects /
        ``(op, src, dst[, t])`` tuples (``t`` omitted = auto-assigned).
        Returns the number of events applied.
        """
        if isinstance(updates, UpdateLog):
            events = updates.to_arrays()
        elif isinstance(updates, np.ndarray):
            events = updates
        else:
            rows = []
            t_prev = self.log.last_time
            for u in updates:
                if isinstance(u, Update):
                    t, op, src, dst = u.t, u.op, u.src, u.dst
                else:
                    op, src, dst, *rest = u
                    t = rest[0] if rest else None
                if op not in _OPS:
                    raise StreamError(f"unknown op {op!r} (expected add/del)")
                t = t_prev + 1 if t is None else int(t)
                t_prev = t
                rows.append((t, _OPS.index(op), int(src), int(dst)))
            events = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
        applied = 0
        with get_tracer().span("stream.ingest", log=self.log.name):
            i = 0
            n = events.shape[0]
            while i < n:
                take = min(self.k - self._pending, n - i)
                chunk = events[i:i + take]
                self.log.extend_arrays(chunk)
                self._apply_chunk(chunk)
                self._pending += take
                applied += take
                i += take
                if self._pending >= self.k:
                    self.flush()
        if applied:
            get_metrics().counter(UPDATES_APPLIED).add(applied)
            self.stats.updates += applied
        return applied

    def _apply_chunk(self, chunk: np.ndarray) -> None:
        """Merge one validated event block into the live multiset.

        Sorted merge of (live keys, chunk keys) without re-sorting the
        whole live array: insert the genuinely-new keys, then add the
        net deltas in place.
        """
        keys = (chunk[:, 2] << 32) | chunk[:, 3]
        delta = np.where(chunk[:, 1] == 0, 1, -1).astype(np.int64)
        uk, inv = np.unique(keys, return_inverse=True)
        net = np.zeros(uk.size, dtype=np.int64)
        np.add.at(net, inv, delta)
        fresh = uk[~_sorted_member(self._live_keys, uk)]
        if fresh.size:
            where = np.searchsorted(self._live_keys, fresh)
            merged = np.insert(self._live_keys, where, fresh)
            mult = np.insert(self._live_mult, where, 0)
        else:
            merged = self._live_keys
            mult = self._live_mult.copy()
        mult[np.searchsorted(merged, uk)] += net
        keep = mult > 0
        self._live_keys = merged[keep]
        self._live_mult = mult[keep]
        self._num_edges += int(delta.sum())

    def replay(self, log: UpdateLog) -> int:
        """Ingest every event of an existing log, timestamps preserved."""
        return self.ingest(log)

    def flush(self, use_cache: bool = False) -> None:
        """Refresh published values to the current logical time.

        No-op when nothing is pending.  BFS and CC always refresh
        incrementally (and exactly) once initialised: support-growing
        deltas relax from the previous fixpoint, CC deletions re-seed
        the affected components locally, and BFS deletions invalidate
        just the orphaned region before relaxing.  PR — a sum-based
        fixpoint with no monotone incremental rule — and first-time
        initialisation rebuild the canonical snapshot from scratch.
        ``use_cache=True`` routes rebuilds through the run cache
        (query-time flushes do this, so time-sliced pricing at the
        same instant reuses the run); contract flushes between queries
        skip the cache store.
        """
        if self._pending == 0:
            return
        t = self.logical_time
        with get_tracer().span("stream.flush", t=t, pending=self._pending,
                               log=self.log.name):
            live = self._live_keys
            dropped = self._support_at_refresh[
                ~_sorted_member(live, self._support_at_refresh)]
            added = live[~_sorted_member(self._support_at_refresh, live)]
            # BFS/CC see only the edge *support*, so incremental
            # refreshes first test just the added-support delta (most
            # flushes change nothing provable), then relax over the
            # distinct-key arrays; the multiset snapshot Graph is
            # materialised lazily, only when some algorithm rebuilds.
            edges: _RelaxEdges | None = None
            snapshot: Graph | None = None
            for name in self.algorithms:
                previous = self._values.get(name)
                values = None
                if previous is not None and name == "cc":
                    if dropped.size:
                        edges = edges or _RelaxEdges(live)
                        values = _cc_refixpoint(
                            _cc_delete_seed(previous, dropped), edges)
                    elif _cc_delta_unchanged(previous, added):
                        values = previous
                    else:
                        edges = edges or _RelaxEdges(live)
                        values = _cc_refixpoint(previous, edges)
                elif previous is not None and name == "bfs":
                    orphans = 0
                    if dropped.size:
                        values, orphans = _bfs_delete_repair(
                            previous, dropped, live)
                    else:
                        values = previous
                    if orphans or not _bfs_delta_unchanged(values, added):
                        edges = edges or _RelaxEdges(live)
                        values = _bfs_refixpoint(values, edges)
                if values is not None:
                    self.stats.incremental_refreshes += 1
                else:
                    if snapshot is None:
                        snapshot = self.snapshot(t)
                    runner = run_cached if use_cache else run_vectorized
                    values = runner(self._algs[name], snapshot).values
                    self.stats.rebuilds += 1
                self._values[name] = values
        self.stats.flushes += 1
        self.stats.pending_at_flush.append(self._pending)
        self.stats.max_pending_at_flush = max(
            self.stats.max_pending_at_flush, self._pending)
        get_metrics().counter(STALENESS_FLUSHES).add(1)
        self._values_time = t
        self._pending = 0
        self._support_at_refresh = self._live_keys.copy()

    # --- queries ---------------------------------------------------------

    def snapshot(self, t: int | None = None) -> Graph:
        """Canonical :class:`Graph` alive at ``t`` (default: now).

        The current instant is served straight from the O(1) multiset
        state (one vectorized sort — no log replay); historical times
        replay the log into a :class:`TemporalGraph`.  Both produce the
        same canonical edge order and name, so the fingerprints agree.
        """
        now = self.logical_time
        t = now if t is None else int(t)
        if t == now:
            return self._snapshot_now(t)
        if self._temporal is None or self._temporal[0] != len(self.log):
            self._temporal = (len(self.log), self.log.temporal())
        return self._temporal[1].snapshot_at(t)

    def _snapshot_now(self, t: int) -> Graph:
        from ..obs.metrics import SNAPSHOTS_MATERIALIZED
        with get_tracer().span("stream.snapshot", t=t, log=self.log.name):
            keys = np.repeat(self._live_keys, self._live_mult)
            graph = Graph(
                self.num_vertices,
                (keys >> 32).astype(VERTEX_DTYPE),
                (keys & 0xFFFFFFFF).astype(VERTEX_DTYPE),
                name=f"{self.log.name}@t{t}",
            )
        get_metrics().counter(SNAPSHOTS_MATERIALIZED).add(1)
        return graph

    def query(self, algorithm: str) -> np.ndarray:
        """Current values for ``algorithm`` (flushes pending updates
        first, so the answer is exact at the current logical time)."""
        if algorithm not in self.algorithms:
            raise StreamError(
                f"engine does not maintain {algorithm!r} "
                f"(maintaining {list(self.algorithms)})"
            )
        self.flush(use_cache=True)
        self.stats.queries += 1
        if algorithm not in self._values:
            # Queried before any event: values of the empty graph.
            empty = self.snapshot(self.logical_time)
            self._values[algorithm] = run_cached(
                self._algs[algorithm], empty).values
            self._values_time = self.logical_time
        return self._values[algorithm]


# --- throughput bench ---------------------------------------------------------


@dataclass(frozen=True)
class StreamMix:
    """One workload mix: how many updates arrive between queries."""

    name: str
    updates_per_query: int


#: Ingest-dominated mix (queries are rare checkpoints).
UPDATE_HEAVY = StreamMix("update-heavy", 500)
#: Query-dominated mix (dashboards polling a live graph).
READ_HEAVY = StreamMix("read-heavy", 25)


@dataclass(frozen=True)
class StreamThroughputResult:
    """Sustained ingest throughput under one update/query mix."""

    mix: str
    num_updates: int
    num_queries: int
    flushes: int
    incremental_refreshes: int
    rebuilds: int
    engine_seconds: float
    serial_seconds: float

    @property
    def updates_per_second(self) -> float:
        return self.num_updates / self.engine_seconds \
            if self.engine_seconds > 0 else float("inf")

    @property
    def speedup_vs_serial(self) -> float:
        """How much faster the concurrent engine path answered the same
        update + query schedule than serial replay (>1 = faster)."""
        return self.serial_seconds / self.engine_seconds \
            if self.engine_seconds > 0 else float("inf")


def _serial_rebuild(events: np.ndarray, prefix: int, num_vertices: int
                    ) -> Graph:
    """From-scratch graph at ``events[:prefix]`` (the serial baseline)."""
    head = events[:prefix]
    keys = (head[:, 2] << 32) | head[:, 3]
    delta = np.where(head[:, 1] == 0, 1, -1)
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    net = np.zeros(unique_keys.size, dtype=np.int64)
    np.add.at(net, inverse, delta)
    keys = np.repeat(unique_keys, np.maximum(net, 0))
    return Graph(num_vertices,
                 (keys >> 32).astype(VERTEX_DTYPE),
                 (keys & 0xFFFFFFFF).astype(VERTEX_DTYPE),
                 name=f"serial@{prefix}")


def measure_stream(log: UpdateLog, mix: StreamMix,
                   k: int | None = None,
                   algorithms: tuple[str, ...] = ("cc", "bfs"),
                   root: int = 0) -> StreamThroughputResult:
    """Time one mix through the engine and through serial replay.

    The engine path ingests the log with a query for every maintained
    algorithm each ``mix.updates_per_query`` updates (concurrent
    pricing queries); ``k`` defaults to the query period, so the
    staleness bound and the query cadence coincide.  The serial
    baseline replays the log prefix from scratch at every query point
    and re-runs each algorithm fresh.  Final answers from both paths
    are checked for exact agreement, so the bench doubles as an
    end-to-end conformance check.
    """
    k = mix.updates_per_query if k is None else k
    events = log.to_arrays()
    query_points = list(range(mix.updates_per_query, len(log) + 1,
                              mix.updates_per_query))
    if not query_points or query_points[-1] != len(log):
        query_points.append(len(log))

    t0 = time.perf_counter()
    engine = StreamEngine(log.num_vertices, algorithms=algorithms, k=k,
                          name=log.name, root=root)
    done = 0
    engine_answers: dict[str, np.ndarray] = {}
    for point in query_points:
        engine.ingest(events[done:point])
        done = point
        for a in algorithms:
            engine_answers[a] = engine.query(a)
    engine_seconds = time.perf_counter() - t0

    algs = {a: BFS(root=root) if a == "bfs" else make_algorithm(a)
            for a in algorithms}
    t0 = time.perf_counter()
    serial_answers: dict[str, np.ndarray] = {}
    # The serial system consumes the same feed, so it pays the same
    # durable-log maintenance (validated appends) the engine pays;
    # only the query-answering strategy differs (full replay+rerun).
    serial_log = UpdateLog(log.num_vertices, name=f"{log.name}-serial")
    done = 0
    for prefix in query_points:
        serial_log.extend_arrays(events[done:prefix])
        done = prefix
        graph = _serial_rebuild(events, prefix, log.num_vertices)
        for a in algorithms:
            serial_answers[a] = run_vectorized(algs[a], graph).values
    serial_seconds = time.perf_counter() - t0

    for a in algorithms:
        ours, theirs = engine_answers[a], serial_answers[a]
        exact = ours.dtype.kind in "iu"
        same = np.array_equal(ours, theirs) if exact else np.allclose(
            ours, theirs, rtol=1e-12, atol=1e-12)
        if not same:
            raise StreamError(
                f"stream bench diverged: engine vs serial {a} values "
                f"differ at t={log.last_time}"
            )

    return StreamThroughputResult(
        mix=mix.name,
        num_updates=len(log),
        num_queries=len(query_points) * len(algorithms),
        flushes=engine.stats.flushes,
        incremental_refreshes=engine.stats.incremental_refreshes,
        rebuilds=engine.stats.rebuilds,
        engine_seconds=engine_seconds,
        serial_seconds=serial_seconds,
    )
