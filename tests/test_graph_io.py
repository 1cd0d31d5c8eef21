"""Tests for graph I/O and the Section 3.4 serialised layout."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import Graph, IntervalBlockPartition, io


class TestEdgeListValidation:
    """Malformed edge-list inputs fail with GraphError + line number."""

    def _load(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        return io.load_edge_list(path)

    def test_non_integer_vertex_id(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:2.*integers"):
            self._load(tmp_path, "0 1\n2 banana\n")

    def test_float_vertex_id(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:1"):
            self._load(tmp_path, "0.5 1\n")

    def test_negative_vertex_id(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:2.*negative"):
            self._load(tmp_path, "0 1\n-3 2\n")

    def test_nan_weight(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:1.*finite"):
            self._load(tmp_path, "0 1 nan\n")

    def test_inf_weight(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:2.*finite"):
            self._load(tmp_path, "0 1 2.5\n1 0 inf\n")

    def test_malformed_weight(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:1.*weight"):
            self._load(tmp_path, "0 1 heavy\n")

    def test_inconsistent_columns(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:2.*column"):
            self._load(tmp_path, "0 1\n1 2 3.5\n")

    def test_too_many_columns(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:1"):
            self._load(tmp_path, "0 1 2 3\n")

    def test_malformed_vertex_header(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:1.*vertex-count"):
            self._load(tmp_path, "# vertices: many\n0 1\n")

    def test_negative_vertex_header(self, tmp_path):
        with pytest.raises(GraphError, match=r"bad\.txt:1.*negative"):
            self._load(tmp_path, "# vertices: -4\n")

    def test_blank_lines_and_comments_ok(self, tmp_path):
        g = self._load(tmp_path, "# a comment\n\n0 1\n\n1 2\n")
        assert g.num_edges == 2
        assert g.num_vertices == 3


class TestEdgeListText:
    def test_round_trip(self, tiny_graph, tmp_path):
        path = tmp_path / "g.txt"
        io.save_edge_list(tiny_graph, path)
        loaded = io.load_edge_list(path)
        assert loaded.num_vertices == tiny_graph.num_vertices
        np.testing.assert_array_equal(loaded.src, tiny_graph.src)
        np.testing.assert_array_equal(loaded.dst, tiny_graph.dst)

    def test_round_trip_weighted(self, weighted_graph, tmp_path):
        path = tmp_path / "w.txt"
        io.save_edge_list(weighted_graph, path)
        loaded = io.load_edge_list(path)
        assert loaded.is_weighted
        np.testing.assert_allclose(loaded.weights, weighted_graph.weights)

    def test_vertex_count_from_header(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# vertices: 100\n0\t1\n")
        assert io.load_edge_list(path).num_vertices == 100

    def test_vertex_count_inferred(self, tmp_path):
        path = tmp_path / "i.txt"
        path.write_text("0 7\n3 2\n")
        assert io.load_edge_list(path).num_vertices == 8

    def test_explicit_vertex_count_wins(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("# vertices: 5\n0 1\n")
        assert io.load_edge_list(path, num_vertices=50).num_vertices == 50

    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\n\n0 1\n# more\n1 0\n")
        assert io.load_edge_list(path).num_edges == 2

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2 3\n")
        with pytest.raises(GraphError):
            io.load_edge_list(path)

    def test_rejects_partial_weights(self, tmp_path):
        path = tmp_path / "pw.txt"
        path.write_text("0 1 2.5\n1 0\n")
        with pytest.raises(GraphError):
            io.load_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        g = io.load_edge_list(path)
        assert g.num_edges == 0


class TestBinary:
    def test_round_trip(self, medium_rmat, tmp_path):
        path = tmp_path / "g.npz"
        io.save_binary(medium_rmat, path)
        loaded = io.load_binary(path)
        assert loaded.name == medium_rmat.name
        np.testing.assert_array_equal(loaded.src, medium_rmat.src)
        np.testing.assert_array_equal(loaded.dst, medium_rmat.dst)

    def test_round_trip_weighted(self, weighted_graph, tmp_path):
        path = tmp_path / "w.npz"
        io.save_binary(weighted_graph, path)
        loaded = io.load_binary(path)
        np.testing.assert_allclose(loaded.weights, weighted_graph.weights)

    def test_round_trip_empty(self, tmp_path):
        path = tmp_path / "e.npz"
        io.save_binary(Graph.empty(7), path)
        loaded = io.load_binary(path)
        assert loaded.num_vertices == 7
        assert loaded.num_edges == 0

    def test_corrupt_archive_raises_graph_error(self, medium_rmat, tmp_path):
        path = tmp_path / "g.npz"
        io.save_binary(medium_rmat, path)
        path.write_bytes(path.read_bytes()[:100])  # truncated zip
        with pytest.raises(GraphError, match="g.npz"):
            io.load_binary(path)

    def test_missing_array_raises_graph_error(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, src=np.zeros(3, dtype=np.int32))
        with pytest.raises(GraphError, match="partial.npz.*num_vertices"):
            io.load_binary(path)


class TestSerializedLayout:
    def test_interval_record_shape(self, tiny_graph):
        p = IntervalBlockPartition.build(tiny_graph, 4)
        values = np.arange(8)
        record = io.serialize_interval(p, 1, values)
        # [index, count, value, value]
        assert record.tolist() == [1, 2, 2, 3]

    def test_interval_round_trip(self, tiny_graph):
        p = IntervalBlockPartition.build(tiny_graph, 4)
        values = np.arange(8) * 10
        record = io.serialize_interval(p, 2, values)
        index, out = io.deserialize_interval(record)
        assert index == 2
        assert out.tolist() == [40, 50]

    def test_interval_rejects_wrong_value_count(self, tiny_graph):
        p = IntervalBlockPartition.build(tiny_graph, 4)
        with pytest.raises(GraphError):
            io.serialize_interval(p, 0, np.arange(5))

    def test_interval_rejects_truncated_record(self):
        with pytest.raises(GraphError):
            io.deserialize_interval(np.array([0, 5, 1], dtype=np.int32))

    def test_block_record_layout(self, tiny_graph):
        p = IntervalBlockPartition.build(tiny_graph, 4)
        record = io.serialize_block(p, 3, 0)
        # Header: [src interval, dst interval, count], then pairs.
        assert record[0] == 3 and record[1] == 0 and record[2] == 2

    def test_block_round_trip(self, tiny_graph):
        p = IntervalBlockPartition.build(tiny_graph, 4)
        record = io.serialize_block(p, 1, 2)
        i, j, src, dst = io.deserialize_block(record)
        assert (i, j) == (1, 2)
        assert set(zip(src.tolist(), dst.tolist())) == {(2, 4), (3, 4)}

    def test_block_rejects_truncated(self):
        with pytest.raises(GraphError):
            io.deserialize_block(np.array([0, 0, 3, 1, 2], dtype=np.int32))

    def test_graph_round_trip(self, medium_rmat):
        p = IntervalBlockPartition.build(medium_rmat, 8)
        image = io.serialize_graph(p)
        rebuilt = io.deserialize_graph(image, medium_rmat.num_vertices)
        assert rebuilt.num_edges == medium_rmat.num_edges
        # Same multiset of edges (order differs: block-major).
        orig = sorted(zip(medium_rmat.src.tolist(), medium_rmat.dst.tolist()))
        new = sorted(zip(rebuilt.src.tolist(), rebuilt.dst.tolist()))
        assert orig == new

    def test_empty_graph_image(self):
        p = IntervalBlockPartition.build(Graph.empty(4), 2)
        image = io.serialize_graph(p)
        rebuilt = io.deserialize_graph(image, 4)
        assert rebuilt.num_edges == 0

    def test_deserialize_rejects_garbage(self):
        with pytest.raises(GraphError):
            io.deserialize_graph(np.array([1, 2], dtype=np.int32), 4)
