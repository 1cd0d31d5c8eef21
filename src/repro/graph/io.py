"""Graph I/O: edge-list text files, compact binary files, and the
in-memory serialised layout of Section 3.4.

Section 3.4 lays graph data out as:

* vertex data, divided into intervals — each interval is
  ``[interval_index, vertex_count, value_0, ..., value_{k-1}]``;
* edge data, divided into blocks — each block is
  ``[src_interval, dst_interval, edge_count, s_0, d_0, s_1, d_1, ...]``.

The same layout backs the dynamic-graph store (Section 5), which appends
to a block's slack space, so it is implemented here once.
"""

from __future__ import annotations

import math
import zipfile
import zlib
from pathlib import Path

import numpy as np

from ..errors import GraphError
from .graph import Graph, VERTEX_DTYPE
from .partition import IntervalBlockPartition

# --- edge-list text format ---------------------------------------------


def save_edge_list(graph: Graph, path: str | Path) -> None:
    """Write a graph as ``src dst [weight]`` lines (SNAP-style)."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"# {graph.name}\n")
        fh.write(f"# vertices: {graph.num_vertices}\n")
        if graph.is_weighted:
            for s, d, w in zip(
                graph.src.tolist(), graph.dst.tolist(), graph.weights.tolist()
            ):
                fh.write(f"{s}\t{d}\t{w}\n")
        else:
            for s, d in zip(graph.src.tolist(), graph.dst.tolist()):
                fh.write(f"{s}\t{d}\n")


def load_edge_list(
    path: str | Path,
    num_vertices: int | None = None,
    name: str | None = None,
) -> Graph:
    """Read a ``src dst [weight]`` text file.

    Lines starting with ``#`` are comments; a ``# vertices: N`` comment
    fixes the vertex count, otherwise ``max id + 1`` is used (or the
    explicit ``num_vertices`` argument, which wins over both).
    """
    path = Path(path)
    srcs: list[int] = []
    dsts: list[int] = []
    weights: list[float] = []
    header_vertices: int | None = None
    columns: int | None = None
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.lower().startswith("vertices:"):
                    count = body.split(":", 1)[1].strip()
                    try:
                        header_vertices = int(count)
                    except ValueError:
                        raise GraphError(
                            f"{path}:{lineno}: malformed vertex-count "
                            f"header: {count!r}"
                        ) from None
                    if header_vertices < 0:
                        raise GraphError(
                            f"{path}:{lineno}: negative vertex count: "
                            f"{header_vertices}"
                        )
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphError(
                    f"{path}:{lineno}: expected 'src dst [weight]', "
                    f"got {line!r}"
                )
            if columns is None:
                columns = len(parts)
            elif len(parts) != columns:
                raise GraphError(
                    f"{path}:{lineno}: inconsistent column count "
                    f"({len(parts)} vs {columns} on earlier lines)"
                )
            try:
                s, d = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphError(
                    f"{path}:{lineno}: vertex ids must be integers, "
                    f"got {line!r}"
                ) from None
            if s < 0 or d < 0:
                raise GraphError(
                    f"{path}:{lineno}: negative vertex id in {line!r}"
                )
            srcs.append(s)
            dsts.append(d)
            if len(parts) == 3:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise GraphError(
                        f"{path}:{lineno}: malformed edge weight "
                        f"{parts[2]!r}"
                    ) from None
                if not math.isfinite(w):
                    raise GraphError(
                        f"{path}:{lineno}: edge weight must be finite, "
                        f"got {parts[2]!r}"
                    )
                weights.append(w)
    n = num_vertices
    if n is None:
        n = header_vertices
    if n is None:
        n = (max(max(srcs), max(dsts)) + 1) if srcs else 0
    return Graph.from_edges(
        n,
        list(zip(srcs, dsts)),
        weights if weights else None,
        name=name or path.stem,
    )


# --- binary format ------------------------------------------------------


def save_binary(graph: Graph, path: str | Path) -> None:
    """Write a graph to a compressed ``.npz`` file."""
    payload = {
        "num_vertices": np.int64(graph.num_vertices),
        "src": graph.src.astype(np.int32),
        "dst": graph.dst.astype(np.int32),
        "name": np.bytes_(graph.name.encode()),
    }
    if graph.is_weighted:
        payload["weights"] = graph.weights
    np.savez_compressed(Path(path), **payload)


def load_binary(path: str | Path) -> Graph:
    """Read a graph written by :func:`save_binary`.

    A file that is not a readable ``.npz`` archive, or lacks one of the
    arrays :func:`save_binary` writes, raises :class:`GraphError`.
    """
    path = Path(path)
    try:
        with np.load(path) as data:
            missing = [key for key in ("num_vertices", "src", "dst", "name")
                       if key not in data]
            if missing:
                raise GraphError(
                    f"{path}: not a graph archive (missing "
                    f"{', '.join(missing)})"
                )
            return Graph(
                int(data["num_vertices"]),
                data["src"].astype(VERTEX_DTYPE),
                data["dst"].astype(VERTEX_DTYPE),
                data["weights"] if "weights" in data else None,
                name=bytes(data["name"]).decode(),
            )
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as exc:
        raise GraphError(f"{path}: corrupt graph archive: {exc}") from exc


# --- Section 3.4 serialised layout ---------------------------------------


def serialize_interval(
    partition: IntervalBlockPartition, index: int, values: np.ndarray
) -> np.ndarray:
    """Serialise one interval: ``[index, count, value...]`` (int32 words).

    ``values`` holds the 32-bit-encoded vertex values of the *whole*
    graph; the interval's slice is copied out.
    """
    values = np.asarray(values)
    if values.shape[0] != partition.graph.num_vertices:
        raise GraphError(
            f"expected {partition.graph.num_vertices} vertex values, "
            f"got {values.shape[0]}"
        )
    lo, hi = partition.bounds[index], partition.bounds[index + 1]
    body = values[lo:hi].astype(np.int32, copy=False)
    header = np.array([index, hi - lo], dtype=np.int32)
    return np.concatenate([header, body])


def deserialize_interval(words: np.ndarray) -> tuple[int, np.ndarray]:
    """Inverse of :func:`serialize_interval`: (interval index, values)."""
    words = np.asarray(words, dtype=np.int32)
    if words.size < 2:
        raise GraphError("interval record too short")
    index, count = int(words[0]), int(words[1])
    if words.size != 2 + count:
        raise GraphError(
            f"interval record claims {count} values but carries "
            f"{words.size - 2}"
        )
    return index, words[2:]


def serialize_block(
    partition: IntervalBlockPartition, i: int, j: int
) -> np.ndarray:
    """Serialise block (i, j): ``[i, j, count, s0, d0, s1, d1, ...]``."""
    src, dst = partition.block_edges(i, j)
    header = np.array([i, j, src.size], dtype=np.int32)
    inter = np.empty(2 * src.size, dtype=np.int32)
    inter[0::2] = src
    inter[1::2] = dst
    return np.concatenate([header, inter])


def deserialize_block(
    words: np.ndarray,
) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Inverse of :func:`serialize_block`: (i, j, src, dst)."""
    words = np.asarray(words, dtype=np.int32)
    if words.size < 3:
        raise GraphError("block record too short")
    i, j, count = int(words[0]), int(words[1]), int(words[2])
    if words.size != 3 + 2 * count:
        raise GraphError(
            f"block record claims {count} edges but carries "
            f"{(words.size - 3) / 2}"
        )
    body = words[3:]
    return i, j, body[0::2].astype(VERTEX_DTYPE), body[1::2].astype(VERTEX_DTYPE)


def serialize_graph(partition: IntervalBlockPartition) -> np.ndarray:
    """Serialise all blocks back-to-back, in block-major order.

    This is exactly the image written into the ReRAM edge memory during
    the one-shot preprocessing step.
    """
    p = partition.num_intervals
    parts = [serialize_block(partition, i, j) for i in range(p) for j in range(p)]
    if not parts:
        return np.empty(0, dtype=np.int32)
    return np.concatenate(parts)


def deserialize_graph(
    words: np.ndarray, num_vertices: int, name: str = "deserialized"
) -> Graph:
    """Rebuild a graph from a :func:`serialize_graph` image."""
    words = np.asarray(words, dtype=np.int32)
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    pos = 0
    while pos < words.size:
        if words.size - pos < 3:
            raise GraphError("trailing bytes do not form a block record")
        count = int(words[pos + 2])
        end = pos + 3 + 2 * count
        if end > words.size:
            raise GraphError("block record truncated")
        _, _, src, dst = deserialize_block(words[pos:end])
        srcs.append(src)
        dsts.append(dst)
        pos = end
    if srcs:
        return Graph(
            num_vertices, np.concatenate(srcs), np.concatenate(dsts), name=name
        )
    return Graph.empty(num_vertices, name=name)
