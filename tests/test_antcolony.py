"""Unit tests for the competing ant colonies metaheuristic."""

import numpy as np
import pytest

from repro.antcolony import AntColonyPartitioner, AntColonyRun, PheromoneField
from repro.api import EVENT_INCUMBENT, SolveRequest, solve
from repro.common.exceptions import ConfigurationError
from repro.graph import grid_graph, path_graph, weighted_caveman_graph


def start_run(graph, k, seed=None, **options) -> AntColonyRun:
    """The :class:`AntColonyRun` stepper of a fresh ant-colony session."""
    solver = AntColonyPartitioner(k=k, **options)
    return solver.start(SolveRequest(graph=graph, k=k, seed=seed)).stepper


def run_to_end(run):
    """Drive an :class:`AntColonyRun` to its end; ``(best, best_energy)``."""
    while run.step():
        pass
    return run.best, run.best_energy


class TestPheromoneField:
    def test_shape(self, grid):
        f = PheromoneField(grid, 3)
        assert f.values.shape == (3, grid.num_edges)

    def test_arc_edge_alignment(self, triangle):
        f = PheromoneField(triangle, 1)
        # Arc j connects owner(j) -> indices[j]; its undirected edge id must
        # reference the same endpoints.
        u, v, _ = triangle.edge_arrays()
        owner = np.repeat(np.arange(3), np.diff(triangle.indptr))
        for j in range(triangle.indices.shape[0]):
            e = f.arc_edge[j]
            ends = {int(u[e]), int(v[e])}
            assert ends == {int(owner[j]), int(triangle.indices[j])}

    def test_deposit_and_evaporate(self, triangle):
        f = PheromoneField(triangle, 2)
        f.deposit(0, np.array([0, 1]), 2.0)
        assert f.values[0].sum() == pytest.approx(4.0)
        f.evaporate(0.5)
        assert f.values[0].sum() == pytest.approx(2.0)

    def test_evaporate_rejects_bad_rate(self, triangle):
        f = PheromoneField(triangle, 1)
        with pytest.raises(ConfigurationError):
            f.evaporate(1.5)

    def test_ownership_majority(self, path_graph_fixture=None):
        g = path_graph(3)  # edges (0,1), (1,2)
        f = PheromoneField(g, 2)
        f.deposit(0, np.array([0]), 5.0)  # colony 0 marks edge (0,1)
        f.deposit(1, np.array([1]), 3.0)  # colony 1 marks edge (1,2)
        own = f.vertex_ownership()
        assert own[0] == 0
        assert own[2] == 1
        assert own[1] == 0  # 5 > 3 on the shared vertex

    def test_silent_vertices_unowned(self):
        g = path_graph(4)
        f = PheromoneField(g, 2)
        assert (f.vertex_ownership() == -1).all()


class TestSearch:
    def test_finds_caveman_optimum(self):
        g = weighted_caveman_graph(4, 6)
        best, energy = run_to_end(start_run(g, 4, iterations=60, seed=0))
        assert best.num_parts == 4
        assert best.edge_cut() == pytest.approx(4.0)

    def test_never_worse_than_initial(self):
        g = grid_graph(8, 8)
        from repro.partition import McutObjective

        # The session seeds the territories with its percolation partition.
        run = start_run(g, 4, iterations=30, seed=3)
        initial_energy = McutObjective().value(run.best)
        _, energy = run_to_end(run)
        assert energy <= initial_energy + 1e-9

    def test_daemon_disabled_still_works(self):
        g = weighted_caveman_graph(3, 5)
        best, _ = run_to_end(
            start_run(g, 3, iterations=40, seed=1, daemon_moves=0)
        )
        assert best.num_parts == 3

    def test_rejects_bad_k(self, triangle):
        with pytest.raises(ConfigurationError):
            start_run(triangle, 99)

    def test_callback_monotone(self):
        g = weighted_caveman_graph(3, 6)
        session = AntColonyPartitioner(k=3, iterations=50).start(
            SolveRequest(graph=g, k=3, seed=5)
        )
        seen = []
        session.subscribe(
            lambda e: seen.append(e.objective)
            if e.type == EVENT_INCUMBENT else None
        )
        session.run()
        assert seen == sorted(seen, reverse=True)


class TestPartitionerInterface:
    def test_returns_k_parts(self):
        g = weighted_caveman_graph(4, 5)
        p = solve(g, 4, "aco", seed=0, iterations=40).partition
        assert p.num_parts == 4
        p.check()

    def test_deterministic_given_seed(self):
        g = weighted_caveman_graph(3, 5)
        p1 = solve(g, 3, "aco", seed=11, iterations=25).partition
        p2 = solve(g, 3, "aco", seed=11, iterations=25).partition
        assert np.array_equal(p1.assignment, p2.assignment)
