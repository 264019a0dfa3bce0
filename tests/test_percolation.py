"""Unit tests for the percolation flooding heuristic (paper §4.4)."""

import numpy as np
import pytest

from repro.common.exceptions import ConfigurationError
from repro.graph import Graph, grid_graph, path_graph, weighted_caveman_graph
from repro.percolation import (
    PercolationPartitioner,
    choose_spread_centers,
    percolation_bisect,
    percolation_bonds,
    percolation_partition,
)
from repro.percolation.reference import percolation_bonds_reference


class TestBonds:
    def test_fixed_point_property(self):
        """bond[v] == max over neighbours u of (bond[u] + w)/2 at the
        converged solution (away from the anchored centres)."""
        g = grid_graph(4, 4)
        centers = np.array([0, 15])
        bonds = percolation_bonds(g, centers)
        for v in range(16):
            if v in centers:
                continue
            for c in range(2):
                nbrs, wts = g.neighbors(v)
                expected = max(
                    (bonds[int(u), c] + w) / 2.0 for u, w in zip(nbrs, wts)
                )
                assert bonds[v, c] == pytest.approx(expected)

    def test_bonds_decay_with_distance_on_path(self):
        g = path_graph(8)
        bonds = percolation_bonds(g, np.array([0]))[:, 0]
        assert all(bonds[i] > bonds[i + 1] for i in range(7))

    def test_heavy_corridor_outbonds_near_center(self):
        # 0 -heavy- 1 -heavy- 2   vs   3 -light- 2: centre at 0 and 3.
        g = Graph.from_edges(
            4, [(0, 1, 10.0), (1, 2, 10.0), (2, 3, 1.0)]
        )
        bonds = percolation_bonds(g, np.array([0, 3]))
        # Vertex 2 is adjacent to centre 3 but the heavy corridor from 0
        # binds it more strongly.
        assert bonds[2, 0] > bonds[2, 1]

    def test_mask_blocks_flow(self):
        g = path_graph(5)
        mask = np.array([True, True, False, True, True])
        bonds = percolation_bonds(g, np.array([0]), mask=mask)
        assert bonds[3, 0] == 0.0  # unreachable behind the mask
        assert bonds[4, 0] == 0.0

    def test_centre_requires_mask(self):
        g = path_graph(3)
        with pytest.raises(ConfigurationError):
            percolation_bonds(g, np.array([1]),
                              mask=np.array([True, False, True]))

    def test_distinct_centres_required(self):
        with pytest.raises(ConfigurationError):
            percolation_bonds(path_graph(3), np.array([0, 0]))


class TestPartition:
    def test_path_splits_at_midpoint(self):
        p = percolation_partition(path_graph(10), np.array([0, 9]))
        assert p.assignment.tolist() == [0] * 5 + [1] * 5

    def test_every_centre_keeps_a_vertex(self):
        g = grid_graph(6, 6)
        centers = np.array([0, 1, 35])  # two adjacent centres
        p = percolation_partition(g, centers)
        assert p.num_parts == 3

    def test_caveman_with_cave_centres(self):
        g = weighted_caveman_graph(4, 6)
        centers = np.array([0, 6, 12, 18])
        p = percolation_partition(g, centers)
        assert p.edge_cut() == pytest.approx(4.0)  # exactly the weak links

    def test_partitioner_interface(self):
        part = PercolationPartitioner(k=4).partition(grid_graph(8, 8), seed=0)
        assert part.num_parts == 4

    def test_partitioner_balance_option(self):
        from repro.partition import imbalance

        raw = PercolationPartitioner(k=4).partition(grid_graph(8, 8), seed=9)
        fixed = PercolationPartitioner(k=4, balance=True).partition(
            grid_graph(8, 8), seed=9
        )
        assert imbalance(fixed) <= imbalance(raw) + 1e-9


class TestBisect:
    def test_proper_bisection(self):
        a, b = percolation_bisect(grid_graph(6, 6), np.arange(36), seed=0)
        assert a.size > 0 and b.size > 0
        assert sorted(np.concatenate([a, b]).tolist()) == list(range(36))

    def test_respects_vertex_subset(self):
        g = grid_graph(6, 6)
        subset = np.arange(12)  # first two rows
        a, b = percolation_bisect(g, subset, seed=1)
        assert set(a.tolist()) | set(b.tolist()) == set(range(12))

    def test_explicit_centres(self):
        g = path_graph(6)
        a, b = percolation_bisect(g, np.arange(6), centers=(0, 5))
        assert sorted(a.tolist()) == [0, 1, 2]
        assert sorted(b.tolist()) == [3, 4, 5]

    def test_rejects_tiny_sets(self):
        with pytest.raises(ConfigurationError):
            percolation_bisect(path_graph(3), np.array([1]))

    def test_rejects_equal_centres(self):
        with pytest.raises(ConfigurationError):
            percolation_bisect(path_graph(4), np.arange(4), centers=(1, 1))

    def test_cuts_barbell_at_bridge(self, barbell):
        a, b = percolation_bisect(barbell, np.arange(10), centers=(0, 9))
        assert sorted(a.tolist()) == [0, 1, 2, 3, 4]


class TestSpreadCenters:
    def test_count_and_distinct(self):
        centers = choose_spread_centers(grid_graph(8, 8), 6, seed=0)
        assert centers.shape == (6,)
        assert len(set(centers.tolist())) == 6

    def test_spread_on_caveman(self):
        # Well-spread centres should hit distinct caves most of the time.
        g = weighted_caveman_graph(4, 6)
        centers = choose_spread_centers(g, 4, seed=2)
        caves = {int(c) // 6 for c in centers}
        assert len(caves) >= 3

    def test_k_one(self):
        assert choose_spread_centers(path_graph(5), 1, seed=0).shape == (1,)

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            choose_spread_centers(path_graph(5), 9)


def _random_centres(rng, mask, k):
    return rng.choice(np.flatnonzero(mask), k, replace=False)


class TestAtomKernel:
    """Floods sweep only the mask's own arcs; every returned bit equals
    the whole-graph loop run with the same mask."""

    def _assert_identical(self, graph, centers, mask):
        got = percolation_bonds(graph, centers, mask=mask)
        assert np.array_equal(
            got, percolation_bonds_reference(graph, centers, mask)
        )
        return got

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_vertex_without_neighbour_in_mask(self, k):
        # Path 0-1-2-3-4-5-6: 0 and 2 have no neighbour inside the mask,
        # and 2 sits between two members that do.
        g = path_graph(7)
        mask = np.array([True, False, True, False, True, True, True])
        centers = np.array([4, 6, 0][:k])
        bonds = self._assert_identical(g, centers, mask)
        assert (bonds[~mask] == 0.0).all()
        assert (bonds[2] == 0.0).all()  # reached by no liquid

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_mask_in_two_components(self, k):
        g = weighted_caveman_graph(4, 6)
        mask = np.zeros(g.num_vertices, dtype=bool)
        mask[0:6] = mask[12:18] = True  # caves 0 and 2, not adjacent
        centers = np.array([0, 13, 2, 15, 4][:k])
        self._assert_identical(g, centers, mask)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_float_weighted_instance(self, k):
        from repro.workloads import build_instance

        g = build_instance("geometric-150")
        assert not g.has_integral_weights()
        rng = np.random.default_rng(k)
        for fraction in (0.1, 0.3, 0.7):
            mask = rng.random(g.num_vertices) < fraction
            mask[:k] = True
            self._assert_identical(g, _random_centres(rng, mask, k), mask)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_all_true_mask_is_the_whole_graph_flood(self, k):
        from repro.workloads import build_instance

        g = build_instance("geometric-150")
        mask = np.ones(g.num_vertices, dtype=bool)
        centers = _random_centres(np.random.default_rng(7), mask, k)
        self._assert_identical(g, centers, mask)
        assert np.array_equal(percolation_bonds(g, centers),
                              percolation_bonds_reference(g, centers))

    def test_sweep_cap_and_tolerance_are_honoured(self):
        g = grid_graph(6, 6)
        mask = np.ones(36, dtype=bool)
        mask[[7, 8, 20]] = False
        centers = np.array([0, 35])
        for max_sweeps, tolerance in ((0, 1e-12), (3, 1e-12), (100, 1e-3)):
            got = percolation_bonds(g, centers, mask=mask,
                                    max_sweeps=max_sweeps,
                                    tolerance=tolerance)
            want = percolation_bonds_reference(g, centers, mask, max_sweeps,
                                               tolerance)
            assert np.array_equal(got, want)

    @staticmethod
    def _check_every_flood(monkeypatch):
        """Hook the module-level name every flood goes through; compare
        each flood with the reference and record whether it was masked."""
        import repro.percolation.percolation as perc

        original = perc.percolation_bonds
        masked = []

        def checked(graph, centers, mask=None, max_sweeps=100,
                    tolerance=1e-12):
            got = original(graph, centers, mask, max_sweeps, tolerance)
            want = percolation_bonds_reference(graph, centers, mask,
                                               max_sweeps, tolerance)
            assert np.array_equal(got, want)
            masked.append(mask is not None)
            return got

        monkeypatch.setattr(perc, "percolation_bonds", checked)
        return masked

    def test_every_flood_of_an_ff_solve(self, monkeypatch):
        """Every flood of a bounded fusion–fission solve on ``atc-core``
        is a masked fission flood, compared with the reference."""
        from repro.api import solve
        from repro.workloads import build_instance

        graph = build_instance("atc-core")
        masked = self._check_every_flood(monkeypatch)
        report = solve(graph, 32, "fusion-fission", seed=0, max_steps=150)
        assert report.partition.num_parts == 32
        assert len(masked) > 100 and all(masked)

    @pytest.mark.parametrize("method, instance, k", [
        ("simulated-annealing", "atc-core", 32),
        ("ant-colony", "powerlaw-2000", 8),
    ])
    def test_every_flood_of_a_session_start(self, monkeypatch, method,
                                            instance, k):
        """SA and ACO sessions start from whole-graph floods (the spread
        centres and the percolation partition); each matches the
        reference."""
        from repro.api import SolveRequest, get_solver
        from repro.workloads import build_instance

        graph = build_instance(instance)
        masked = self._check_every_flood(monkeypatch)
        get_solver(method, k).start(SolveRequest(graph=graph, k=k, seed=3))
        assert len(masked) >= k and not any(masked)
