"""Unit tests for graph file I/O (METIS, edge list, JSON)."""

import numpy as np
import pytest

from repro.common.exceptions import GraphError
from repro.graph import (
    Graph,
    grid_graph,
    read_edgelist,
    read_json,
    read_metis,
    write_edgelist,
    write_json,
    write_metis,
)


@pytest.fixture
def weighted(tmp_path):
    g = Graph.from_edges(
        4,
        [(0, 1, 2.5), (1, 2, 1.0), (2, 3, 4.0), (0, 3, 0.5)],
        vertex_weights=np.array([1.0, 2.0, 1.0, 3.0]),
    )
    return g, tmp_path


class TestMetis:
    def test_roundtrip(self, weighted):
        g, tmp = weighted
        path = tmp / "g.graph"
        write_metis(g, path)
        back = read_metis(path)
        assert back == g

    def test_grid_roundtrip(self, tmp_path):
        g = grid_graph(5, 5)
        write_metis(g, tmp_path / "grid.graph")
        assert read_metis(tmp_path / "grid.graph") == g

    def test_reads_unweighted_format(self, tmp_path):
        (tmp_path / "u.graph").write_text("3 2\n2\n1 3\n2\n")
        g = read_metis(tmp_path / "u.graph")
        assert g.num_edges == 2
        assert g.edge_weight(0, 1) == 1.0

    def test_reads_comments(self, tmp_path):
        (tmp_path / "c.graph").write_text("% comment\n2 1\n2\n1\n")
        assert read_metis(tmp_path / "c.graph").num_edges == 1

    def test_rejects_wrong_edge_count(self, tmp_path):
        (tmp_path / "bad.graph").write_text("3 5\n2\n1 3\n2\n")
        with pytest.raises(GraphError, match="declares"):
            read_metis(tmp_path / "bad.graph")

    def test_rejects_missing_lines(self, tmp_path):
        (tmp_path / "bad.graph").write_text("3 1\n2\n")
        with pytest.raises(GraphError, match="vertex lines"):
            read_metis(tmp_path / "bad.graph")

    def test_rejects_empty_file(self, tmp_path):
        (tmp_path / "e.graph").write_text("")
        with pytest.raises(GraphError, match="empty"):
            read_metis(tmp_path / "e.graph")


class TestEdgeList:
    def test_roundtrip(self, weighted):
        g, tmp = weighted
        path = tmp / "g.txt"
        write_edgelist(g, path)
        back = read_edgelist(path)
        # Vertex weights are not stored in edge lists.
        assert np.array_equal(back.indptr, g.indptr)
        assert np.allclose(back.weights, g.weights)

    def test_unweighted_lines(self, tmp_path):
        (tmp_path / "g.txt").write_text("0 1\n1 2 3.5\n")
        g = read_edgelist(tmp_path / "g.txt")
        assert g.edge_weight(0, 1) == 1.0
        assert g.edge_weight(1, 2) == 3.5

    def test_rejects_bad_line(self, tmp_path):
        (tmp_path / "g.txt").write_text("0 1 2 3\n")
        with pytest.raises(GraphError, match="bad edge line"):
            read_edgelist(tmp_path / "g.txt")

    def test_empty_graph(self, tmp_path):
        write_edgelist(Graph.empty(0), tmp_path / "e.txt")
        assert read_edgelist(tmp_path / "e.txt").num_vertices == 0


class TestJson:
    def test_roundtrip(self, weighted):
        g, tmp = weighted
        path = tmp / "g.json"
        write_json(g, path)
        assert read_json(path) == g

    def test_rejects_malformed(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"nope": 1}')
        with pytest.raises(GraphError):
            read_json(tmp_path / "bad.json")

    @pytest.mark.parametrize("text", [
        '{"n": 3, "edges": [[0]]}',
        '{"n": 3, "edges": [[0, 1, 1.0]], "vertex_weights": [1.0]}',
        '{"n": 1e400, "edges": []}',
        '{"n": 3, "edges": ',
        '{"n": 3, "edges": [[0, 1, NaN], [1, 2, 1.0]]}',
    ], ids=["short-edge", "vertex-weights", "infinite-n", "not-json",
            "nan-weight"])
    def test_rejects_malformed_content(self, tmp_path, text):
        (tmp_path / "bad.json").write_text(text)
        with pytest.raises(GraphError, match="bad.json"):
            read_json(tmp_path / "bad.json")
