"""Unit tests for KL / FM refinement and greedy balancing."""

import numpy as np
import pytest

from repro.common.exceptions import PartitionError
from repro.graph import barbell_graph, grid_graph, weighted_caveman_graph
from repro.multilevel import MultilevelPartitioner
from repro.multilevel import partitioner as multilevel_partitioner
from repro.partition import Partition, get_objective, imbalance
from repro.refine import fm
from repro.refine import fm_refine, greedy_balance, kernighan_lin_pass, kl_refine
from repro.workloads import build_instance


def scrambled_barbell(seed=0):
    """Barbell bisection with two vertices swapped across the bridge."""
    g = barbell_graph(5)
    a = np.array([0] * 5 + [1] * 5)
    a[0], a[9] = 1, 0  # deliberately wrong
    return Partition(g, a)


class TestKernighanLin:
    def test_repairs_scrambled_barbell(self):
        p = scrambled_barbell()
        improvement = kernighan_lin_pass(p, 0, 1)
        assert improvement > 0
        assert p.edge_cut() == pytest.approx(1.0)
        p.check()

    def test_no_change_on_optimal(self):
        g = barbell_graph(5)
        p = Partition(g, [0] * 5 + [1] * 5)
        assert kernighan_lin_pass(p, 0, 1) == 0.0
        assert p.edge_cut() == 1.0

    def test_requires_distinct_parts(self):
        p = scrambled_barbell()
        with pytest.raises(PartitionError):
            kernighan_lin_pass(p, 0, 0)

    def test_never_worsens(self, rng):
        g = grid_graph(6, 6)
        p = Partition(g, rng.integers(0, 2, 36))
        before = p.edge_cut()
        kernighan_lin_pass(p, 0, 1)
        assert p.edge_cut() <= before
        p.check()

    def test_kway_sweep(self, rng):
        g = weighted_caveman_graph(4, 6)
        p = Partition(g, rng.integers(0, 4, 24))
        before = p.edge_cut()
        total = kl_refine(p, max_passes=6)
        assert total == pytest.approx(before - p.edge_cut())
        assert p.edge_cut() < before
        p.check()

    def test_max_swaps_cap(self):
        p = scrambled_barbell()
        kernighan_lin_pass(p, 0, 1, max_swaps=1)
        p.check()  # bookkeeping valid even with a truncated pass


class TestFiducciaMattheyses:
    def test_improves_random_partition(self, rng):
        g = grid_graph(8, 8)
        p = Partition(g, rng.integers(0, 4, 64))
        before = p.edge_cut()
        gain = fm_refine(p)
        assert gain == pytest.approx(before - p.edge_cut())
        assert p.edge_cut() < before
        p.check()

    def test_preserves_k(self, rng):
        g = grid_graph(8, 8)
        p = Partition(g, rng.integers(0, 5, 64))
        fm_refine(p)
        assert p.num_parts == 5

    def test_respects_balance_ceiling(self, rng):
        g = grid_graph(8, 8)
        p = Partition(g, rng.integers(0, 4, 64))
        ceiling = max(p.vertex_weight.max(), 1.05 * (64 / 4))
        fm_refine(p, balance_tolerance=0.05)
        # The ceiling is (1+tol)*ideal, relaxed to the initial maximum so
        # imbalanced inputs are not dead-locked — never exceeded though.
        assert p.vertex_weight.max() <= ceiling + 1e-9

    def test_caveman_reaches_planted_optimum(self, rng):
        g = weighted_caveman_graph(4, 6)
        # Start from a rotation of the planted partition: heavy overlap
        # but wrong boundaries.
        a = np.repeat([0, 1, 2, 3], 6)
        a = np.roll(a, 2)
        p = Partition(g, a)
        fm_refine(p, max_passes=10, balance_tolerance=0.2)
        assert p.edge_cut() == pytest.approx(4.0)  # the 4 weak links

    def test_noop_on_optimal(self):
        g = barbell_graph(6)
        p = Partition(g, [0] * 6 + [1] * 6)
        assert fm_refine(p) == 0.0

    def test_first_pass_never_worsens(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            g = grid_graph(6, 6)
            p = Partition(g, r.integers(0, 3, 36))
            before = p.edge_cut()
            fm_refine(p, max_passes=1)
            assert p.edge_cut() <= before + 1e-9


class TestFMStallRule:
    def test_changes_a_multilevel_result(self, monkeypatch):
        """Multilevel k=32 seed 2 on ``powerlaw-2000``: one pass there
        finds a new best 253 moves after the previous one, so the
        200-move stall rule changes the result.  Full passes (the limit
        raised to n) reproduce the result from before the rule."""
        graph = build_instance("powerlaw-2000")
        k = 32

        def checked_fm_refine(partition, max_passes, balance_tolerance):
            ideal = float(partition.vertex_weight.sum()) / k
            ceiling = max(
                (1.0 + balance_tolerance) * ideal,
                float(partition.vertex_weight.max()),
            )
            gain = fm_refine(
                partition, max_passes=max_passes,
                balance_tolerance=balance_tolerance,
            )
            assert partition.num_parts == k
            assert partition.vertex_weight.max() <= ceiling + 1e-9
            return gain

        monkeypatch.setattr(
            multilevel_partitioner, "fm_refine", checked_fm_refine
        )
        mcut = get_objective("mcut")
        default = fm.STALL_MOVES
        results = {}
        for limit in (graph.num_vertices, default):
            monkeypatch.setattr(fm, "STALL_MOVES", limit)
            p = MultilevelPartitioner(k=k).partition(graph, seed=2)
            p.check()
            assert p.num_parts == k
            results[limit] = (p.assignment.copy(), mcut.value(p))
        full_assignment, full_mcut = results[graph.num_vertices]
        stall_assignment, stall_mcut = results[default]
        assert full_mcut == pytest.approx(121.7684, abs=1e-4)
        assert stall_mcut == pytest.approx(122.2947, abs=1e-4)
        assert not np.array_equal(full_assignment, stall_assignment)


class TestGreedyBalance:
    def test_repairs_imbalance(self):
        g = grid_graph(8, 8)
        a = np.zeros(64, dtype=np.int64)
        a[-4:] = 1  # 60 vs 4
        p = Partition(g, a)
        moves = greedy_balance(p, epsilon=0.10)
        assert moves > 0
        assert imbalance(p) <= 1.10 + 1e-9
        p.check()

    def test_noop_when_balanced(self, grid_partition):
        assert greedy_balance(grid_partition, epsilon=0.10) == 0

    def test_respects_max_moves(self):
        g = grid_graph(8, 8)
        a = np.zeros(64, dtype=np.int64)
        a[-2:] = 1
        p = Partition(g, a)
        assert greedy_balance(p, epsilon=0.01, max_moves=3) <= 3

    def test_preserves_k(self):
        g = grid_graph(6, 6)
        a = np.zeros(36, dtype=np.int64)
        a[-1] = 1
        a[-2] = 2
        p = Partition(g, a)
        greedy_balance(p, epsilon=0.3)
        assert p.num_parts == 3
