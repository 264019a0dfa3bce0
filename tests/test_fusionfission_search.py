"""Integration tests for the fusion-fission main loop and public API."""

import numpy as np
import pytest

from repro.api import EVENT_INCUMBENT, SolveRequest, solve
from repro.common.exceptions import ConfigurationError
from repro.fusionfission import (
    FusionFissionPartitioner,
    FusionFissionRun,
    LawTable,
    ScaledEnergy,
    initialize_molecule,
)
from repro.graph import grid_graph, weighted_caveman_graph
from repro.partition import McutObjective


def start_run(graph, k, seed=None, **options) -> FusionFissionRun:
    """The :class:`FusionFissionRun` stepper of a fresh fusion–fission
    session."""
    solver = FusionFissionPartitioner(k=k, **options)
    return solver.start(SolveRequest(graph=graph, k=k, seed=seed)).stepper


def run_to_end(run):
    """Drive a :class:`FusionFissionRun` to its end; its finalized result."""
    while run.step():
        pass
    return run.finalize()


class TestInitialization:
    def test_reaches_target_k(self):
        g = weighted_caveman_graph(4, 6)
        laws = LawTable(24)
        energy = ScaledEnergy(24, 4)
        p = initialize_molecule(g, 4, laws, energy, seed=0)
        assert p.num_parts == 4
        p.check()

    def test_starts_from_singletons_energy_decreases(self):
        g = grid_graph(5, 5)
        laws = LawTable(25)
        energy = ScaledEnergy(25, 5, objective="cut")
        from repro.partition import Partition

        singleton = Partition(g, np.arange(25, dtype=np.int64))
        initial_energy = energy.value(singleton)
        p = initialize_molecule(g, 5, laws, energy, seed=1)
        assert energy.value(p) < initial_energy

    def test_k_equals_n(self):
        g = grid_graph(3, 3)
        laws = LawTable(9)
        energy = ScaledEnergy(9, 9)
        p = initialize_molecule(g, 9, laws, energy, seed=0)
        assert p.num_parts == 9

    def test_rejects_bad_k(self):
        g = grid_graph(3, 3)
        with pytest.raises(ConfigurationError):
            initialize_molecule(g, 50, LawTable(9), ScaledEnergy(9, 5))


class TestSearch:
    def test_result_structure(self):
        g = weighted_caveman_graph(4, 6)
        run = start_run(g, 4, max_steps=300, seed=0)
        res = run_to_end(run)
        assert res.best_at_target is not None
        assert res.best_at_target.num_parts == 4
        assert res.steps == 300
        assert res.best_raw_at_target == pytest.approx(
            run.energy.raw(res.best_at_target)
        )
        assert 4 in res.best_by_k
        res.best.check()
        res.best_at_target.check()

    def test_part_count_stays_bounded(self):
        g = grid_graph(6, 6)
        res = run_to_end(
            start_run(g, 4, max_steps=400, seed=1, max_parts_factor=2.0)
        )
        assert max(res.best_by_k) <= 8
        assert min(res.best_by_k) >= 2

    def test_explores_multiple_k(self):
        g = weighted_caveman_graph(6, 6)
        res = run_to_end(start_run(g, 6, max_steps=600, seed=2))
        # The method's point: it visits partitions around the target.
        assert len(res.best_by_k) >= 3

    def test_restarts_counted(self):
        g = grid_graph(5, 5)
        res = run_to_end(start_run(g, 4, nbt=50, max_steps=220, seed=0))
        assert res.restarts >= 3

    def test_rejects_bad_target(self):
        g = grid_graph(3, 3)
        with pytest.raises(ConfigurationError):
            start_run(g, 1)


class TestPartitionerApi:
    def test_finds_caveman_optimum(self):
        g = weighted_caveman_graph(5, 6)
        p = solve(g, 5, "ff", seed=0, max_steps=3000).partition
        assert p.num_parts == 5
        assert McutObjective().value(p) <= 0.2  # near-planted quality
        p.check()

    def test_deterministic_given_seed(self):
        g = weighted_caveman_graph(3, 5)
        p1 = solve(g, 3, "ff", seed=9, max_steps=400).partition
        p2 = solve(g, 3, "ff", seed=9, max_steps=400).partition
        assert np.array_equal(p1.assignment, p2.assignment)

    def test_non_power_of_two_k(self):
        g = grid_graph(6, 6)
        p = solve(g, 5, "ff", seed=0, max_steps=500).partition
        assert p.num_parts == 5

    def test_search_exposes_multi_k(self):
        g = weighted_caveman_graph(4, 5)
        session = FusionFissionPartitioner(k=4, max_steps=500).start(
            SolveRequest(graph=g, k=4, seed=0)
        )
        session.run()
        res = session.stepper.finalize()
        assert res.best_by_k
        assert all(v >= 0 for v in res.best_by_k.values())

    def test_ablation_no_scaling(self):
        g = weighted_caveman_graph(4, 5)
        p = solve(g, 4, "ff", seed=1, max_steps=400,
                  scale_energy=False).partition
        assert p.num_parts == 4

    def test_ablation_no_learning(self):
        g = weighted_caveman_graph(4, 5)
        p = solve(g, 4, "ff", seed=1, max_steps=400,
                  learn_laws=False).partition
        assert p.num_parts == 4

    def test_objective_selectable(self):
        g = weighted_caveman_graph(3, 5)
        for obj in ("cut", "ncut", "mcut"):
            p = solve(g, 3, "ff", seed=0, max_steps=300,
                      objective=obj).partition
            assert p.num_parts == 3

    def test_callback_monotone_raw_objective(self):
        g = weighted_caveman_graph(4, 6)
        session = FusionFissionPartitioner(k=4, max_steps=800).start(
            SolveRequest(graph=g, k=4, seed=3)
        )
        seen = []
        session.subscribe(
            lambda e: seen.append(e.objective)
            if e.type == EVENT_INCUMBENT else None
        )
        session.run()
        assert seen == sorted(seen, reverse=True)
        assert len(seen) >= 1
