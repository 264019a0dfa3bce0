"""Unit tests for simulated annealing and cooling schedules."""

import numpy as np
import pytest

from repro.annealing import (
    AnnealRun,
    GeometricCooling,
    LinearCooling,
    SimulatedAnnealingPartitioner,
)
from repro.api import EVENT_INCUMBENT, Budget, SolveRequest, solve
from repro.common.exceptions import ConfigurationError
from repro.graph import grid_graph, weighted_caveman_graph
from repro.partition import McutObjective


def start_run(graph, k, seed=None, **options) -> AnnealRun:
    """The :class:`AnnealRun` stepper of a fresh annealing session."""
    solver = SimulatedAnnealingPartitioner(k=k, **options)
    return solver.start(SolveRequest(graph=graph, k=k, seed=seed)).stepper


def run_to_end(run):
    """Drive an :class:`AnnealRun` to its end; ``(best, best_energy)``."""
    while run.step():
        pass
    return run.best, run.best_energy


class TestSchedules:
    def test_geometric_ratio_from_range(self):
        c = GeometricCooling(tmax=10.0, tmin=2.0)
        assert c.ratio == pytest.approx(0.8)
        assert c.next(10.0) == pytest.approx(8.0)

    def test_geometric_clamps_degenerate_tmin_zero(self):
        c = GeometricCooling(tmax=1.0, tmin=0.0)
        # The paper's formula gives ratio 1.0 at tmin=0; clamped.
        assert c.ratio == pytest.approx(0.95)

    def test_geometric_freezes(self):
        c = GeometricCooling(tmax=1.0, tmin=0.1)
        t = c.initial()
        for _ in range(200):
            t = c.next(t)
        assert c.frozen(t)

    def test_linear_steps(self):
        c = LinearCooling(tmax=1.0, tmin=0.0, steps=10)
        assert c.next(1.0) == pytest.approx(0.9)
        t = c.initial()
        for _ in range(10):
            t = c.next(t)
        assert c.frozen(t)

    def test_invalid_ranges(self):
        with pytest.raises(Exception):
            GeometricCooling(tmax=1.0, tmin=2.0)
        with pytest.raises(Exception):
            LinearCooling(tmax=1.0, tmin=0.0, steps=0)


class TestAnneal:
    def test_improves_caveman(self):
        g = weighted_caveman_graph(4, 6)
        run = start_run(g, 4, tmax=2.0, max_steps=8000, seed=0)
        before = run.energy
        best, energy = run_to_end(run)
        assert energy <= before
        assert energy == pytest.approx(McutObjective().value(best))
        best.check()

    def test_finds_caveman_optimum(self):
        g = weighted_caveman_graph(4, 6)
        run = start_run(g, 4, tmax=2.0, max_steps=30000, seed=1)
        best, _ = run_to_end(run)
        assert best.edge_cut() == pytest.approx(4.0)

    def test_preserves_k(self):
        g = grid_graph(6, 6)
        best, _ = run_to_end(start_run(g, 5, max_steps=3000, seed=0))
        assert best.num_parts == 5

    def test_max_steps_respected(self):
        g = grid_graph(6, 6)
        # Must terminate promptly even with huge temperature range.
        run = start_run(g, 3, tmax=100.0, max_steps=100, seed=0)
        run_to_end(run)
        assert run.steps == 100

    def test_time_budget_reheats(self):
        g = grid_graph(6, 6)
        solver = SimulatedAnnealingPartitioner(
            k=3, tmax=0.5, equilibrium_refusals=2
        )
        frozen = solver.start(SolveRequest(graph=g, k=3, seed=0)).run()
        assert frozen.status == "done"
        budgeted = solver.start(SolveRequest(
            graph=g, k=3, seed=0, budget=Budget(max_seconds=0.5)
        )).run()
        # With reheating the budget is used (not frozen after ~ms).
        assert budgeted.status == "running"
        assert 0.45 <= budgeted.seconds <= 5.0
        assert budgeted.iterations > frozen.iterations

    def test_callback_fires_decreasing(self):
        # Percolation starts SA close to optimal on small caveman graphs;
        # this grid/seed improves on it several times.
        g = grid_graph(6, 6)
        session = SimulatedAnnealingPartitioner(k=3, max_steps=5000).start(
            SolveRequest(graph=g, k=3, seed=1)
        )
        seen = []
        session.subscribe(
            lambda e: seen.append(e.objective)
            if e.type == EVENT_INCUMBENT else None
        )
        session.run()
        assert seen == sorted(seen, reverse=True)
        assert len(seen) >= 1

    def test_invalid_temperatures(self, grid):
        with pytest.raises(ConfigurationError):
            start_run(grid, 4, tmax=0.0)
        with pytest.raises(ConfigurationError):
            start_run(grid, 4, tmax=1.0, tmin=1.0)


class TestPartitionerInterface:
    def test_returns_k_parts(self):
        g = weighted_caveman_graph(4, 6)
        p = solve(g, 4, "sa", seed=0, max_steps=4000).partition
        assert p.num_parts == 4
        p.check()

    def test_deterministic_given_seed(self):
        g = weighted_caveman_graph(3, 5)
        p1 = solve(g, 3, "sa", seed=7, max_steps=2000).partition
        p2 = solve(g, 3, "sa", seed=7, max_steps=2000).partition
        assert np.array_equal(p1.assignment, p2.assignment)

    def test_any_k_allowed(self):
        # Metaheuristics handle non-power-of-two k (paper §6).
        g = grid_graph(6, 6)
        p = solve(g, 5, "sa", seed=0, max_steps=1500).partition
        assert p.num_parts == 5
