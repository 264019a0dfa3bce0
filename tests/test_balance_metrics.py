"""Unit tests for balance metrics, the boundary scan and partition reports."""

import numpy as np
import pytest

from repro.graph import Graph, grid_graph
from repro.partition import (
    Partition,
    evaluate_partition,
    imbalance,
    is_balanced,
    max_part_weight,
    part_weight_bounds,
)
from repro.partition.moves import boundary_vertices


class TestBalance:
    def test_perfect_balance(self, grid_partition):
        assert imbalance(grid_partition) == pytest.approx(1.0)
        assert is_balanced(grid_partition)

    def test_imbalance_ratio(self, grid):
        a = np.zeros(64, dtype=np.int64)
        a[:48] = 0
        a[48:] = 1
        p = Partition(grid, a)
        assert imbalance(p) == pytest.approx(48 / 32)
        assert not is_balanced(p, epsilon=0.05)

    def test_bounds(self, grid_partition):
        lo, hi = part_weight_bounds(grid_partition)
        assert lo == hi == 16.0
        assert max_part_weight(grid_partition) == 16.0

    def test_vertex_weighted_imbalance(self):
        g = Graph.from_edges(
            3, [(0, 1), (1, 2)], vertex_weights=np.array([10.0, 1.0, 1.0])
        )
        p = Partition(g, [0, 1, 1])
        assert imbalance(p) == pytest.approx(10.0 / 6.0)


class TestMoveHelpers:
    def test_boundary_vertices(self, grid_partition):
        b = boundary_vertices(grid_partition)
        # Bands of 2 rows: every row adjacent to a band boundary is on the
        # boundary; rows 1,2,3,4,5,6 -> 6 * 8 = 48 vertices.
        assert b.shape[0] == 48


class TestReport:
    def test_report_fields(self, grid_partition):
        r = evaluate_partition(grid_partition)
        assert r.num_parts == 4
        assert r.edge_cut == 24.0
        assert r.cut == 48.0
        assert r.min_size == r.max_size == 16
        assert r.imbalance == pytest.approx(1.0)
        assert r.num_connected_parts == 4
        assert r.part_sizes.tolist() == [16, 16, 16, 16]

    def test_disconnected_part_detected(self, grid):
        a = np.zeros(64, dtype=np.int64)
        a[0] = 1
        a[63] = 1  # part 1 = two opposite corners: disconnected
        r = evaluate_partition(Partition(grid, a))
        assert r.num_connected_parts == 1

    def test_as_dict_serialisable(self, grid_partition):
        import json

        d = evaluate_partition(grid_partition).as_dict()
        json.dumps(d)  # must not raise
        assert d["num_parts"] == 4
