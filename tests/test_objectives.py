"""Unit tests for the Cut / Ncut / Mcut objectives and their move deltas."""

import numpy as np
import pytest

from repro.common.exceptions import ConfigurationError
from repro.graph import Graph, grid_graph
from repro.partition import (
    CutObjective,
    McutObjective,
    NcutObjective,
    Partition,
    get_objective,
)

ALL_OBJECTIVES = [CutObjective(), NcutObjective(), McutObjective()]


@pytest.fixture
def square():
    """C4 with weights 1, 2, 3, 4 and the partition {0,1} | {2,3}."""
    g = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 4.0)])
    return g, Partition(g, [0, 0, 1, 1])


class TestValues:
    def test_cut_value(self, square):
        _, p = square
        # Cut edges: (1,2) w=2 and (0,3) w=4; paper Cut counts both sides.
        assert CutObjective().value(p) == pytest.approx(12.0)
        assert p.edge_cut() == pytest.approx(6.0)

    def test_ncut_value(self, square):
        _, p = square
        # Part 0: cut=6, W=1 -> 6/7.  Part 1: cut=6, W=3 -> 6/9.
        assert NcutObjective().value(p) == pytest.approx(6 / 7 + 6 / 9)

    def test_mcut_value(self, square):
        _, p = square
        assert McutObjective().value(p) == pytest.approx(6 / 1 + 6 / 3)

    def test_part_terms_sum_to_value(self, grid_partition):
        for obj in ALL_OBJECTIVES:
            terms = obj.part_terms(grid_partition)
            assert terms.sum() == pytest.approx(obj.value(grid_partition))

    def test_single_part_is_zero(self, grid):
        p = Partition(grid, np.zeros(64, dtype=np.int64))
        for obj in ALL_OBJECTIVES:
            assert obj.value(p) == 0.0

    def test_mcut_infinite_for_isolated_internal(self):
        # A singleton part with outgoing edges: W = 0, cut > 0 -> inf.
        g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        p = Partition(g, [0, 1, 1])
        assert McutObjective().value(p) == np.inf

    def test_negative_cut_residue_counts_as_zero(self):
        # Part 1's cut sums 1.0 + 1e-110 == 1.0; vertex 3 leaving takes
        # the 1.0 back (cut 0.0, true 1e-110), and vertex 2 joining
        # subtracts its 1e-110 edge again: cut -1e-110 over W = 1e-110.
        g = Graph.from_edges(5, [(0, 3, 1.0), (1, 2, 1e-110)])
        p = Partition(g, [0, 1, 2, 1, 2])
        p.move(3, 0)
        p.move(2, 1)
        assert p.cut[1] < 0.0 < p.internal[1]
        # The ratio objectives would read -1e-110 / 1e-110 = -1 for Mcut.
        for obj in (NcutObjective(), McutObjective()):
            assert obj.value(p) == 0.0
            assert (obj.part_terms(p) >= 0.0).all()

    def test_ncut_bounded_by_k(self, grid_partition):
        # Each Ncut term is cut/(cut+W) <= 1.
        assert NcutObjective().value(grid_partition) <= grid_partition.num_parts


class TestDeltas:
    @pytest.mark.parametrize("obj", ALL_OBJECTIVES, ids=lambda o: o.name)
    def test_delta_matches_recompute(self, obj, grid_partition, rng):
        p = grid_partition
        for _ in range(60):
            v = int(rng.integers(64))
            t = int(rng.integers(4))
            if p.part_of(v) == t or p.size[p.part_of(v)] <= 1:
                continue
            before = obj.value(p)
            delta = obj.delta_move(p, v, t)
            p.move(v, t, allow_empty_source=False)
            after = obj.value(p)
            assert after - before == pytest.approx(delta, abs=1e-9)

    def test_delta_zero_for_same_part(self, grid_partition):
        for obj in ALL_OBJECTIVES:
            assert obj.delta_move(grid_partition, 0, 0) == 0.0

    def test_delta_rejects_bad_target(self, grid_partition):
        with pytest.raises(ConfigurationError):
            CutObjective().delta_move(grid_partition, 0, 99)

    def test_cut_delta_closed_form(self, square):
        g, p = square
        # Moving vertex 1 to part 1: heals (1,2) w=2, cuts (0,1) w=1.
        assert CutObjective().delta_move(p, 1, 1) == pytest.approx(-2.0)


class TestRegistry:
    def test_lookup_by_name(self):
        assert isinstance(get_objective("cut"), CutObjective)
        assert isinstance(get_objective("NCUT"), NcutObjective)
        assert isinstance(get_objective("mcut"), McutObjective)

    def test_passthrough_instance(self):
        obj = McutObjective()
        assert get_objective(obj) is obj

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown objective"):
            get_objective("sparsest")
