"""The gain table, graph gather primitives and split_part guards."""

import numpy as np
import pytest

from repro.common.exceptions import PartitionError
from repro.graph import Graph, grid_graph, random_geometric_graph
from repro.partition import GainTable, Partition


@pytest.fixture
def partitioned_grid():
    graph = grid_graph(8, 8)
    rng = np.random.default_rng(0)
    assignment = rng.integers(0, 4, graph.num_vertices)
    assignment[:4] = np.arange(4)
    return Partition(graph, assignment)


class TestNeighborsMany:
    def test_matches_per_vertex_slices(self):
        graph, _ = random_geometric_graph(80, 0.2, seed=3)
        vertices = np.array([5, 0, 17, 5, 42])  # duplicates allowed
        rows, nbrs, wts = graph.neighbors_many(vertices)
        pos = 0
        for i, v in enumerate(vertices):
            ref_nbrs, ref_wts = graph.neighbors(int(v))
            span = ref_nbrs.shape[0]
            assert np.array_equal(rows[pos:pos + span], np.full(span, i))
            assert np.array_equal(nbrs[pos:pos + span], ref_nbrs)
            assert np.array_equal(wts[pos:pos + span], ref_wts)
            pos += span
        assert pos == rows.shape[0]

    def test_empty_input(self):
        graph = grid_graph(3, 3)
        rows, nbrs, wts = graph.neighbors_many(np.empty(0, dtype=np.int64))
        assert rows.size == nbrs.size == wts.size == 0

    def test_arc_owners_cached_and_correct(self):
        graph = grid_graph(4, 4)
        owners = graph.arc_owners()
        assert owners is graph.arc_owners()  # cached
        expected = np.repeat(np.arange(16), np.diff(graph.indptr))
        assert np.array_equal(owners, expected)

    def test_integral_weight_detection(self):
        assert grid_graph(3, 3).has_integral_weights()
        float_graph = Graph.from_edges(3, [(0, 1, 0.25), (1, 2, 1.0)])
        assert not float_graph.has_integral_weights()


class TestGainTable:
    def test_rows_match_neighbor_part_weights(self, partitioned_grid):
        # Batches of <= 2 vertices take the per-row loop, larger ones the
        # batched gather.
        p = partitioned_grid
        vertices = np.arange(p.graph.num_vertices)
        for batch in (1, 2, vertices.size):
            table = GainTable(p)
            for start in range(0, vertices.size, batch):
                table.refresh(vertices[start:start + batch])
            assert table.materialized.all()
            for v in vertices:
                assert np.array_equal(
                    table.w_parts[v], p.neighbor_part_weights(int(v))
                )


class TestSplitPartValidation:
    def test_rejects_out_of_range_ids(self, partitioned_grid):
        with pytest.raises(PartitionError, match="outside the graph"):
            partitioned_grid.split_part(0, np.array([64]))
        with pytest.raises(PartitionError, match="outside the graph"):
            partitioned_grid.split_part(0, np.array([-1]))

    def test_rejects_duplicates(self, partitioned_grid):
        members = partitioned_grid.members(0)
        dup = np.array([members[0], members[0]])
        with pytest.raises(PartitionError, match="duplicate"):
            partitioned_grid.split_part(0, dup)

    def test_names_the_offending_vertex_and_part(self, partitioned_grid):
        outsider = int(partitioned_grid.members(1)[0])
        insider = int(partitioned_grid.members(0)[0])
        with pytest.raises(PartitionError, match=f"vertex {outsider}"):
            partitioned_grid.split_part(0, np.array([insider, outsider]))

    def test_bookkeeping_intact_after_rejection(self, partitioned_grid):
        p = partitioned_grid
        outsider = int(p.members(1)[0])
        with pytest.raises(PartitionError):
            p.split_part(0, np.array([outsider]))
        p.check()  # nothing was corrupted by the failed call
