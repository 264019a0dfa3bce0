"""Tests for the parallel portfolio engine (problem/spec/runner/aggregate)."""

import json
import math

import numpy as np
import pytest

from repro.api import solve
from repro.bench.registry import canonical_method
from repro.cli import main
from repro.common.exceptions import ConfigurationError
from repro.engine import (
    REPORT_SCHEMA,
    FaultInjector,
    PartitionProblem,
    PortfolioRunner,
    SolverSpec,
)
from repro.graph import grid_graph, weighted_caveman_graph


@pytest.fixture
def problem():
    return PartitionProblem(weighted_caveman_graph(4, 6), k=4)


FAST_SPECS = [
    SolverSpec("multilevel"),
    SolverSpec("fusion-fission", options={"max_steps": 150}),
]


class TestProblem:
    def test_validates_k(self):
        g = grid_graph(3, 3)
        with pytest.raises(ConfigurationError):
            PartitionProblem(g, k=0)
        with pytest.raises(ConfigurationError):
            PartitionProblem(g, k=10)

    def test_validates_objective(self):
        with pytest.raises(ConfigurationError):
            PartitionProblem(grid_graph(3, 3), k=2, objective="nope")

    def test_objective_normalised(self):
        # Report-field lookups require the canonical lower-case name.
        p = PartitionProblem(grid_graph(3, 3), k=2, objective=" Mcut ")
        assert p.objective == "mcut"

    def test_as_dict(self, problem):
        d = problem.as_dict()
        assert d["num_vertices"] == 24
        assert d["k"] == 4
        assert d["objective"] == "mcut"


class TestSolverSpec:
    def test_aliases_resolve(self):
        assert SolverSpec("ff").method == "fusion-fission"
        assert SolverSpec("annealing").method == "simulated-annealing"
        assert canonical_method("ANTS") == "ant-colony"

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            SolverSpec("quantum-annealer")

    def test_build_passes_options(self):
        spec = SolverSpec("fusion-fission", options={"max_steps": 7})
        assert spec.build_solver(3).max_steps == 7

    def test_for_method_budget_plumbing(self):
        spec = SolverSpec.for_method("ff", time_budget=1.0)
        assert spec.time_budget == 1.0
        assert spec.options == {}
        # Non-metaheuristics ignore the budget.
        spec = SolverSpec.for_method("multilevel", time_budget=1.0)
        assert spec.options == {}
        assert spec.time_budget is None


class TestRunnerDeterminism:
    def test_same_seed_same_results(self, problem):
        results = [
            PortfolioRunner(FAST_SPECS, num_seeds=3, jobs=1, seed=5).run(problem)
            for _ in range(2)
        ]
        for a, b in zip(results[0].records, results[1].records):
            assert a.objective == b.objective
            assert np.array_equal(a.assignment, b.assignment)

    def test_runs_optimise_the_ranked_objective(self):
        # Each run optimises the problem's objective, the one the
        # portfolio ranks it on: it equals a direct solve of that
        # objective with the task's seed.
        graph = grid_graph(8, 8)
        caps = {
            "simulated-annealing": {"max_steps": 2000},
            "ant-colony": {"iterations": 6},
            "fusion-fission": {"max_steps": 200},
        }
        specs = [SolverSpec(m, options=o) for m, o in caps.items()]
        result = PortfolioRunner(specs, seed=3).run(
            PartitionProblem(graph, k=4, objective="cut")
        )
        assert len(result.records) == 3
        for r in result.records:
            direct = solve(
                graph, 4, r.method, objective="cut",
                seed=np.random.SeedSequence([3, r.spec_index, r.seed_index]),
                **caps[r.method],
            )
            assert np.array_equal(r.assignment, direct.assignment)
            assert r.objective == direct.objective_value

    def test_different_seed_grid(self, problem):
        r1 = PortfolioRunner(FAST_SPECS, num_seeds=3, jobs=1, seed=5).run(problem)
        r2 = PortfolioRunner(FAST_SPECS, num_seeds=3, jobs=1, seed=6).run(problem)
        ff = [r for r in r1.records if r.method == "fusion-fission"]
        ff2 = [r for r in r2.records if r.method == "fusion-fission"]
        assert any(
            not np.array_equal(a.assignment, b.assignment)
            for a, b in zip(ff, ff2)
        )

    def test_explicit_seed_grid(self, problem):
        runner = PortfolioRunner(FAST_SPECS, num_seeds=2, jobs=1)
        grid = [[11, 12], [13, 14]]
        r1 = runner.run(problem, seed_grid=grid)
        r2 = runner.run(problem, seed_grid=grid)
        for a, b in zip(r1.records, r2.records):
            assert np.array_equal(a.assignment, b.assignment)

    def test_seed_grid_shape_checked(self, problem):
        runner = PortfolioRunner(FAST_SPECS, num_seeds=2, jobs=1)
        with pytest.raises(ConfigurationError):
            runner.run(problem, seed_grid=[[1, 2]])
        with pytest.raises(ConfigurationError):
            runner.run(problem, seed_grid=[[1], [2]])


class TestPoolEquivalence:
    def test_pool_matches_inprocess(self, problem):
        sequential = PortfolioRunner(
            FAST_SPECS, num_seeds=2, jobs=1, seed=3
        ).run(problem)
        pooled = PortfolioRunner(
            FAST_SPECS, num_seeds=2, jobs=2, seed=3
        ).run(problem)
        assert len(sequential.records) == len(pooled.records) == 4
        for a, b in zip(sequential.records, pooled.records):
            assert (a.spec_index, a.seed_index) == (b.spec_index, b.seed_index)
            assert a.objective == b.objective
            assert np.array_equal(a.assignment, b.assignment)
        assert sequential.best.objective == pooled.best.objective

    def test_best_never_worse_than_sequential_best(self, problem):
        """The acceptance property: portfolio best-of <= best single run."""
        from repro.api import SolveRequest

        runner = PortfolioRunner(FAST_SPECS, num_seeds=3, jobs=2, seed=9)
        result = runner.run(problem)
        singles = []
        for task in runner.make_tasks(problem):
            session = task.spec.build_solver(problem.k).start(SolveRequest(
                graph=problem.graph, k=problem.k, seed=task.seed
            ))
            singles.append(getattr(session.run().metrics, problem.objective))
        assert result.best.objective <= min(singles) + 1e-12


class TestFailuresAndDeadline:
    def test_failing_entrant_is_isolated(self, problem):
        # Spectral requires k = 2^n; k=3 makes it fail while others run.
        g = weighted_caveman_graph(3, 5)
        bad_problem = PartitionProblem(g, k=3)
        runner = PortfolioRunner(
            [SolverSpec("spectral"), SolverSpec("multilevel")],
            num_seeds=1, jobs=1, seed=0,
        )
        result = runner.run(bad_problem)
        by_method = {r.method: r for r in result.records}
        assert not by_method["spectral"].ok
        assert "ConfigurationError" in by_method["spectral"].error
        assert by_method["multilevel"].ok
        assert result.best.method == "multilevel"

    def test_unknown_option_is_a_config_failure(self, problem):
        result = PortfolioRunner(
            [SolverSpec("sa", options={"bogus": 1})],
            num_seeds=1, jobs=1, seed=0,
        ).run(problem)
        (record,) = result.records
        assert record.error_kind == "config"
        assert "simulated-annealing" in record.error

    def test_spec_budget_pause_is_the_runs_normal_end(self, problem):
        spec = SolverSpec.for_method("sa", time_budget=0.3)
        (record,) = PortfolioRunner(
            [spec], num_seeds=1, jobs=1, seed=0, task_timeout=30.0
        ).run(problem).records
        assert record.ok
        assert record.fault_trace == []
        assert record.seconds >= 0.3

    def test_dead_worker_becomes_error_record(self, problem):
        # An injected crash os._exit()s the worker, skipping
        # execute_task's isolation; the runner must turn the resulting
        # BrokenProcessPool into error records instead of raising.
        result = PortfolioRunner(
            [SolverSpec("multilevel")], num_seeds=2, jobs=2, seed=0,
            faults=FaultInjector.parse("crash@0,*,*"),
        ).run(problem)
        assert len(result.records) == 2
        assert all(not r.ok for r in result.records)
        assert all(r.error for r in result.records)
        assert result.best is None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_zero_deadline_cancels_everything(self, problem, jobs):
        runner = PortfolioRunner(
            FAST_SPECS, num_seeds=2, jobs=jobs, seed=0, deadline=0.0
        )
        result = runner.run(problem)
        assert all(not r.ok for r in result.records)
        assert all("cancelled" in r.error for r in result.records)
        assert result.best is None

    def test_all_failed_best_partition_raises(self, problem):
        runner = PortfolioRunner(
            FAST_SPECS, num_seeds=1, jobs=1, seed=0, deadline=0.0
        )
        result = runner.run(problem)
        with pytest.raises(RuntimeError):
            result.best_partition()

    def test_on_record_callback(self, problem):
        seen = []
        PortfolioRunner(FAST_SPECS, num_seeds=2, jobs=1, seed=0).run(
            problem, on_record=seen.append
        )
        assert len(seen) == 4

    def test_on_record_abort_stops_inline_run(self, problem, monkeypatch):
        # run_suite's fail-fast relies on this: inline, a raising
        # on_record ends the run before the next task starts.
        from repro.engine import runner as runner_mod

        started = []
        real = runner_mod.execute_task

        def counting(task, *args, **kwargs):
            started.append((task.spec_index, task.seed_index))
            return real(task, *args, **kwargs)

        def abort(record):
            raise RuntimeError("stop")

        monkeypatch.setattr(runner_mod, "execute_task", counting)
        with pytest.raises(RuntimeError, match="stop"):
            PortfolioRunner(FAST_SPECS, num_seeds=2, jobs=1, seed=0).run(
                problem, on_record=abort
            )
        assert started == [(0, 0)]

    def test_inline_run_never_advances_caller_seeds(self, problem):
        rngs = np.random.default_rng(4).spawn(len(FAST_SPECS) * 2)
        grid = [rngs[0:2], rngs[2:4]]
        before = [rng.bit_generator.state for rng in rngs]
        runner = PortfolioRunner(FAST_SPECS, num_seeds=2, jobs=1)
        first = runner.run(problem, seed_grid=grid)
        assert [rng.bit_generator.state for rng in rngs] == before
        again = runner.run(problem, seed_grid=grid)
        for a, b in zip(first.records, again.records):
            assert np.array_equal(a.assignment, b.assignment)

    def test_runner_validation(self):
        with pytest.raises(ConfigurationError):
            PortfolioRunner([], num_seeds=1)
        with pytest.raises(ConfigurationError):
            PortfolioRunner(FAST_SPECS, num_seeds=0)
        with pytest.raises(ConfigurationError):
            PortfolioRunner(FAST_SPECS, jobs=0)


class TestAggregation:
    def test_report_schema(self, problem):
        result = PortfolioRunner(
            FAST_SPECS, num_seeds=2, jobs=1, seed=1
        ).run(problem)
        payload = json.loads(result.to_json(include_assignment=True))
        assert payload["schema"] == REPORT_SCHEMA
        assert set(payload) == {
            "schema", "version", "problem", "num_runs", "num_ok", "best",
            "methods", "runs",
        }
        from repro import __version__

        assert payload["version"] == __version__
        assert payload["num_runs"] == 4
        assert payload["num_ok"] == 4
        assert len(payload["methods"]) == 2
        for stats in payload["methods"]:
            assert set(stats) == {
                "label", "method", "runs", "ok", "best", "mean", "std",
                "mean_seconds", "best_seed_index",
            }
            assert stats["best"] <= stats["mean"]
        best = payload["best"]
        assert best["ok"] is True
        assert len(best["assignment"]) == 24
        assert best["report"]["num_parts"] == 4
        run_objectives = [
            r["objective"] for r in payload["runs"] if r["ok"]
        ]
        assert best["objective"] == min(run_objectives)
        # include_assignment applies to every record, not just the best.
        assert all(
            len(r["assignment"]) == 24 for r in payload["runs"] if r["ok"]
        )

    def test_method_stats_values(self, problem):
        result = PortfolioRunner(
            FAST_SPECS, num_seeds=3, jobs=1, seed=2
        ).run(problem)
        for stats in result.method_stats():
            records = [
                r for r in result.records if r.label == stats.label and r.ok
            ]
            values = [r.objective for r in records]
            assert stats.runs == 3
            assert stats.best == min(values)
            assert stats.mean == pytest.approx(float(np.mean(values)))
            assert math.isfinite(stats.std)

    def test_stats_table_formatting(self, problem):
        result = PortfolioRunner(
            FAST_SPECS, num_seeds=1, jobs=1, seed=0
        ).run(problem)
        table = result.format_stats_table()
        assert "multilevel" in table
        assert "fusion-fission" in table
        assert "best mcut" in table
        assert "best:" in table


class TestHarnessOnEngine:
    def test_run_suite_jobs_equivalence(self):
        from repro.bench import run_suite

        g = weighted_caveman_graph(4, 6)
        specs = [
            SolverSpec("multilevel", label="ml"),
            SolverSpec("percolation", label="perc"),
        ]
        sequential = run_suite(specs, g, 4, seed=3)
        pooled = run_suite(specs, g, 4, seed=3, jobs=2)
        assert [r.label for r in sequential] == [r.label for r in pooled]
        for a, b in zip(sequential, pooled):
            assert a.report.cut == b.report.cut
            assert a.report.mcut == pytest.approx(b.report.mcut)

    def test_run_suite_raises_on_method_failure(self):
        from repro.bench import run_suite

        from repro.common.exceptions import ReproError

        g = weighted_caveman_graph(3, 5)
        with pytest.raises(ReproError, match="spectral"):
            run_suite([SolverSpec("spectral")], g, 3, seed=0)  # k != 2^n


class TestPortfolioCli:
    @pytest.fixture
    def graph_file(self, tmp_path):
        from repro.cli import write_graph_auto

        path = tmp_path / "g.graph"
        write_graph_auto(weighted_caveman_graph(4, 6), path)
        return path

    def test_round_trip(self, graph_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        out_path = tmp_path / "best.txt"
        code = main([
            "portfolio", str(graph_file), "-k", "4",
            "--methods", "ff,ml", "--seeds", "2", "--jobs", "2",
            "--seed", "1", "--json", str(report_path), "-o", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fusion-fission" in out
        assert "multilevel" in out
        assert "best:" in out
        assignment = [int(x) for x in out_path.read_text().split()]
        assert len(assignment) == 24
        assert set(assignment) == {0, 1, 2, 3}
        payload = json.loads(report_path.read_text())
        assert payload["schema"] == REPORT_SCHEMA
        assert payload["num_runs"] == 4
        assert payload["best"]["assignment"] == assignment

    def test_cli_best_matches_sequential(self, graph_file, tmp_path):
        """CLI parallel best-of is never worse than the same grid run
        sequentially (same seeds, jobs=1)."""
        best = {}
        for jobs, tag in (("2", "par"), ("1", "seq")):
            report_path = tmp_path / f"{tag}.json"
            code = main([
                "portfolio", str(graph_file), "-k", "4",
                "--methods", "ff,annealing", "--seeds", "2",
                "--jobs", jobs, "--seed", "7", "--budget", "1",
                "--json", str(report_path),
            ])
            assert code == 0
            best[tag] = json.loads(report_path.read_text())["best"]["objective"]
        assert best["par"] <= best["seq"] + 1e-12

    def test_all_failed_still_writes_json_report(self, graph_file, tmp_path,
                                                 capsys):
        report_path = tmp_path / "failed.json"
        code = main([
            "portfolio", str(graph_file), "-k", "4", "--methods", "ml",
            "--seeds", "2", "--jobs", "1", "--deadline", "0",
            "--json", str(report_path),
        ])
        assert code == 2
        assert "every portfolio run failed" in capsys.readouterr().err
        payload = json.loads(report_path.read_text())
        assert payload["num_ok"] == 0
        assert payload["best"] is None
        assert all("cancelled" in r["error"] for r in payload["runs"])

    def test_list_methods(self, capsys):
        code = main(["portfolio", "--list-methods"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fusion-fission" in out
        assert "aliases: annealing, sa" in out

    def test_missing_input_is_clean_error(self, capsys):
        code = main(["portfolio"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
