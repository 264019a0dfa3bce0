"""Tests for the island-model solver plane: seed-lineage determinism,
islands=1 bit-identity with the plain sequential sessions, migration
events, checkpoint/resume mid-run, serial == parallel execution, and
graceful degradation for one-shot methods."""

import numpy as np
import pytest

from repro.api import (
    EVENT_INCUMBENT,
    EVENT_MIGRATION,
    Budget,
    SolveRequest,
    get_solver,
    resume,
    solve,
)
from repro.common.exceptions import CheckpointError, ConfigurationError
from repro.engine import PartitionProblem, PortfolioRunner, SolverSpec
from repro.graph import weighted_caveman_graph
from repro.workloads import build_instance

ITERATIVE = ["annealing", "ant-colony", "fusion-fission"]
#: solver options keeping each family's full run small enough to test
FAST_OPTS = {
    "annealing": {"max_steps": 400},
    "ant-colony": {"iterations": 6, "num_ants": 4, "daemon_moves": 20},
    "fusion-fission": {"max_steps": 200},
}
#: caps that end each family well inside a 0.5 s budget unless the
#: budget lifts them (annealing freezes after a few hundred moves)
SHORT_CAPS = {
    "annealing": {"equilibrium_refusals": 2},
    "ant-colony": {"iterations": 4},
    "fusion-fission": {"max_steps": 64},
}


@pytest.fixture
def graph():
    return weighted_caveman_graph(4, 6)


def _opts(method):
    return dict(FAST_OPTS[method])


def _solve(graph, method, **kwargs):
    return solve(graph, 4, method=method, seed=7, **_opts(method), **kwargs)


class TestSequentialIdentity:
    """`islands=1` must be bit-identical to the plain sequential path."""

    @pytest.mark.parametrize("method", ITERATIVE)
    def test_islands_1_identical(self, graph, method):
        plain = _solve(graph, method)
        one = _solve(graph, method, islands=1)
        assert plain.status == one.status
        assert np.array_equal(
            plain.partition.assignment, one.partition.assignment
        )

    @pytest.mark.parametrize("method", ITERATIVE)
    def test_two_island_runs_identical(self, graph, method):
        a = _solve(graph, method, islands=3, migration_interval=3)
        b = _solve(graph, method, islands=3, migration_interval=3)
        assert a.objective == b.objective
        assert np.array_equal(a.partition.assignment, b.partition.assignment)


class TestEvents:
    def test_migration_events_emitted(self, graph):
        events = []
        _solve(
            graph, "annealing", islands=3, migration_interval=4,
            budget=Budget(max_iterations=6), observers=(events.append,),
        )
        migrations = [e for e in events if e.type == EVENT_MIGRATION]
        assert migrations, [e.type for e in events]
        first = migrations[0]
        assert first.payload["interval"] == 4
        assert first.payload["round"] == 1
        assert len(first.payload["ring"]) == 3
        assert isinstance(first.payload["adopted"], list)
        rounds = [e.payload["round"] for e in migrations]
        assert rounds == sorted(rounds)

    def test_incumbent_events_carry_island_index(self, graph):
        events = []
        _solve(
            graph, "annealing", islands=3, migration_interval=4,
            budget=Budget(max_iterations=6), observers=(events.append,),
        )
        incumbents = [e for e in events if e.type == EVENT_INCUMBENT]
        assert incumbents
        assert all(0 <= e.payload["island"] < 3 for e in incumbents)


class TestCheckpointResume:
    @pytest.mark.parametrize("method", ["annealing", "fusion-fission"])
    def test_resume_mid_migration_is_exact(self, graph, method):
        solver = get_solver(method, k=4, **_opts(method))
        request = SolveRequest(
            graph=graph, k=4, seed=7, islands=3, migration_interval=3,
            budget=Budget(max_iterations=40),
        )
        straight = solver.start(request)
        straight.run()

        paused = solver.start(SolveRequest(
            graph=graph, k=4, seed=7, islands=3, migration_interval=3,
            budget=Budget(max_iterations=7),
        ))
        paused.run()
        ck = paused.checkpoint()
        assert ck["islands"] == 3
        assert ck["migration_interval"] == 3
        resumed = resume(graph, ck, budget=Budget(max_iterations=40))
        resumed.run()

        assert resumed.status == straight.status
        assert np.array_equal(
            resumed.partition.assignment, straight.partition.assignment
        )

    def test_checkpoint_island_count_mismatch_rejected(self, graph):
        solver = get_solver("annealing", k=4, **_opts("annealing"))
        session = solver.start(SolveRequest(
            graph=graph, k=4, seed=7, islands=2,
            budget=Budget(max_iterations=3),
        ))
        session.run()
        ck = session.checkpoint()
        with pytest.raises(CheckpointError):
            solver.start(
                SolveRequest(graph=graph, k=4, seed=7, islands=4),
                checkpoint=ck,
            )


class TestParallelMode:
    def test_island_jobs_does_not_change_results(self, graph):
        serial = _solve(
            graph, "annealing", islands=3, migration_interval=3,
            budget=Budget(max_iterations=10), island_jobs=1,
        )
        parallel = _solve(
            graph, "annealing", islands=3, migration_interval=3,
            budget=Budget(max_iterations=10), island_jobs=2,
        )
        assert serial.objective == parallel.objective
        assert np.array_equal(
            serial.partition.assignment, parallel.partition.assignment
        )

    @pytest.mark.parametrize("island_jobs", [1, 2])
    @pytest.mark.parametrize("method", ITERATIVE)
    def test_budget_stops_serial_and_pool_islands(self, method, island_jobs):
        """The wall-clock budget lifts the caps of every island and
        counts cumulative solve time, so a pool run, whose islands are
        rebuilt from checkpoints every round, stops at it just like the
        serial one."""
        report = solve(
            weighted_caveman_graph(6, 8), 6, method=method, seed=0,
            islands=2, migration_interval=2, island_jobs=island_jobs,
            budget=Budget(max_seconds=0.5), **SHORT_CAPS[method],
        )
        assert report.status == "running"
        assert 0.45 <= report.seconds <= 1.0

    @pytest.mark.parametrize("method", ITERATIVE)
    def test_island_jobs_on_float_weights(self, method):
        """With float weights a resumed island's objective may drift in
        the last digits, so the claim is scoped: same partition,
        objective equal to rounding."""
        graph = build_instance("geometric-150")
        serial, parallel = (
            solve(
                graph, 8, method=method, seed=3, islands=2,
                migration_interval=3, island_jobs=jobs,
                budget=Budget(max_iterations=15),
            )
            for jobs in (1, 2)
        )
        assert np.array_equal(
            serial.partition.assignment, parallel.partition.assignment
        )
        assert parallel.objective_value == pytest.approx(
            serial.objective_value, rel=1e-12
        )


class TestGates:
    @pytest.mark.parametrize("method", ["multilevel", "spectral"])
    def test_one_shot_methods_reject_islands(self, graph, method):
        with pytest.raises(ConfigurationError):
            solve(graph, 4, method=method, seed=7, islands=2)

    def test_request_validation(self, graph):
        with pytest.raises(ConfigurationError):
            SolveRequest(graph=graph, k=4, islands=0)
        with pytest.raises(ConfigurationError):
            SolveRequest(graph=graph, k=4, migration_interval=0)
        with pytest.raises(ConfigurationError):
            SolveRequest(graph=graph, k=4, island_jobs=0)

    def test_portfolio_degrades_one_shot_methods(self, graph):
        problem = PartitionProblem(graph, k=4)
        runner = PortfolioRunner(
            [SolverSpec("multilevel")], num_seeds=1, jobs=1, seed=11,
            islands=2,
        )
        result = runner.run(problem)
        rec = result.records[0]
        assert rec.error is None
        assert any("does not support islands" in n for n in rec.fault_trace)
