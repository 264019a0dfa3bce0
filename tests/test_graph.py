"""Unit tests for the CSR graph substrate."""

import numpy as np
import pytest

from repro.common.exceptions import GraphError
from repro.graph import Graph, GraphBuilder
from repro.graph.generators import grid_graph


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges(3, [(0, 1, 2.0), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.edge_weight(0, 1) == 2.0
        assert g.edge_weight(1, 2) == 1.0
        assert g.edge_weight(0, 2) == 0.0

    def test_from_arrays_symmetrises(self):
        g = Graph.from_arrays(
            4, np.array([0, 2]), np.array([1, 3]), np.array([5.0, 7.0])
        )
        assert g.edge_weight(1, 0) == 5.0
        assert g.edge_weight(3, 2) == 7.0

    def test_empty_graph(self):
        g = Graph.empty(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.total_edge_weight == 0.0

    def test_zero_vertex_graph(self):
        g = Graph.empty(0)
        assert g.num_vertices == 0

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph.from_edges(2, [(0, 0, 1.0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph.from_edges(2, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph.from_edges(2, [(0, 5, 1.0)])

    def test_rejects_negative_weight(self):
        with pytest.raises(GraphError, match="non-negative"):
            Graph.from_edges(2, [(0, 1, -1.0)])

    @pytest.mark.parametrize("edge_w, vertex_weights", [
        (float("nan"), None),
        (float("inf"), None),
        (1.0, [1.0, -2.0, 1.0]),
        (1.0, [1.0, float("nan"), 1.0]),
    ], ids=["nan-edge", "inf-edge", "negative-vertex", "nan-vertex"])
    def test_rejects_non_finite_or_negative_weights(
        self, edge_w, vertex_weights
    ):
        with pytest.raises(GraphError, match="finite and non-negative"):
            Graph.from_edges(
                3, [(0, 1, edge_w), (1, 2, 1.0)],
                vertex_weights=vertex_weights,
            )

    def test_validation_names_bad_weights_before_symmetry(self):
        # Symmetric structure, NaN weights: the weight is the fault.
        with pytest.raises(GraphError, match="edge weights must be finite"):
            Graph(np.array([0, 1, 2]), np.array([1, 0]),
                  np.array([np.nan, np.nan]))

    def test_rejects_negative_vertex_id(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(-1, 1, 1.0)])

    def test_validation_catches_asymmetry(self):
        for indptr, indices, weights in [
            ([0, 1, 1], [1], [1.0]),  # an arc without its reverse
            ([0, 1, 2], [1, 0], [1.0, 1.0 + 1e-9]),  # directions disagree
        ]:
            with pytest.raises(GraphError):
                Graph(np.array(indptr), np.array(indices), np.array(weights))


class TestAccessors:
    def test_degree_vector(self, triangle):
        d = triangle.degree()
        assert d == pytest.approx([4.0, 3.0, 5.0])

    def test_degree_scalar(self, triangle):
        assert triangle.degree(2) == pytest.approx(5.0)

    def test_degree_with_isolated_trailing_vertex(self):
        g = Graph.from_edges(4, [(0, 1, 2.0)])  # vertices 2, 3 isolated
        assert g.degree() == pytest.approx([2.0, 2.0, 0.0, 0.0])

    def test_neighbors_sorted(self, triangle):
        nbrs, wts = triangle.neighbors(0)
        assert nbrs.tolist() == [1, 2]
        assert wts.tolist() == [1.0, 3.0]

    def test_total_edge_weight(self, triangle):
        assert triangle.total_edge_weight == pytest.approx(6.0)

    def test_has_edge(self, triangle):
        assert triangle.has_edge(0, 1)
        assert not Graph.from_edges(3, [(0, 1)]).has_edge(0, 2)

    def test_edges_iteration(self, triangle):
        edges = sorted(triangle.edges())
        assert edges == [(0, 1, 1.0), (0, 2, 3.0), (1, 2, 2.0)]

    def test_edge_arrays_roundtrip(self, grid):
        u, v, w = grid.edge_arrays()
        rebuilt = Graph.from_arrays(grid.num_vertices, u, v, w)
        assert rebuilt == grid

    def test_len(self, grid):
        assert len(grid) == 64

    def test_equality(self, triangle):
        clone = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
        assert clone == triangle
        assert triangle != Graph.from_edges(3, [(0, 1, 9.0), (1, 2, 2.0), (0, 2, 3.0)])


class TestSubgraph:
    def test_induced_subgraph(self, grid):
        # First row of the grid: a path of 8 vertices.
        sub, mapping = grid.subgraph(np.arange(8))
        assert sub.num_vertices == 8
        assert sub.num_edges == 7
        assert mapping.tolist() == list(range(8))

    def test_subgraph_preserves_weights(self, triangle):
        sub, _ = triangle.subgraph(np.array([0, 2]))
        assert sub.edge_weight(0, 1) == 3.0

    def test_subgraph_rejects_duplicates(self, triangle):
        with pytest.raises(GraphError, match="duplicates"):
            triangle.subgraph(np.array([0, 0]))

    def test_empty_subgraph(self, triangle):
        sub, _ = triangle.subgraph(np.array([], dtype=np.int64))
        assert sub.num_vertices == 0

    def test_vertex_weights_carried(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)],
                             vertex_weights=np.array([1.0, 2.0, 3.0]))
        sub, _ = g.subgraph(np.array([1, 2]))
        assert sub.vertex_weights.tolist() == [2.0, 3.0]


class TestBuilder:
    def test_merges_duplicates(self):
        b = GraphBuilder(3)
        b.add_edge(0, 1, 2.0)
        b.add_edge(1, 0, 3.0)
        g = b.build()
        assert g.num_edges == 1
        assert g.edge_weight(0, 1) == 5.0

    def test_ignores_self_loops(self):
        b = GraphBuilder(2)
        b.add_edge(0, 0, 5.0)
        b.add_edge(0, 1, 1.0)
        assert b.build().num_edges == 1

    def test_grows_vertex_set(self):
        b = GraphBuilder(0)
        b.add_edge(3, 7)
        assert b.num_vertices == 8

    def test_vertex_weights(self):
        b = GraphBuilder(2)
        b.add_edge(0, 1)
        b.set_vertex_weight(1, 4.0)
        g = b.build()
        assert g.vertex_weights.tolist() == [1.0, 4.0]

    def test_rejects_negative_weight(self):
        b = GraphBuilder(2)
        with pytest.raises(GraphError):
            b.add_edge(0, 1, -2.0)

    def test_empty_build(self):
        g = GraphBuilder(4).build()
        assert g.num_vertices == 4
        assert g.num_edges == 0

    def test_edgeless_build_checks_vertex_weights(self):
        b = GraphBuilder(3)
        b.set_vertex_weight(1, 4.0)
        assert b.build().vertex_weights.tolist() == [1.0, 4.0, 1.0]
        b.set_vertex_weight(2, float("nan"))
        with pytest.raises(GraphError, match="vertex weights"):
            b.build()

    def test_add_edges_iterable(self):
        b = GraphBuilder(3)
        b.add_edges([(0, 1), (1, 2, 5.0)])
        g = b.build()
        assert g.num_edges == 2
        assert g.edge_weight(1, 2) == 5.0
