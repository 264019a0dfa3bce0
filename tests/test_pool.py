"""Tests for the worker pool: the graph reaches workers without being
pickled, portfolio runs exit cleanly (after normal runs, deadline
cancellation and pool self-healing), and pool results equal inline ones.

The subprocess tests run with ``-W error::UserWarning`` so a warning at
interpreter exit fails the test instead of scrolling past.  CI runs this
module under ``PYTHONWARNINGS=error::UserWarning`` for the same reason.
"""

import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import Budget, solve
from repro.common.exceptions import ConfigurationError
from repro.engine import PartitionProblem, PortfolioRunner, SolverSpec
from repro.graph import weighted_caveman_graph
from repro.graph.graph import Graph

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_py(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONWARNINGS"] = "error::UserWarning"
    return subprocess.run(
        [sys.executable, "-W", "error::UserWarning", "-c", code],
        capture_output=True, text=True, env=env, timeout=180,
    )


@pytest.fixture
def graph():
    return weighted_caveman_graph(4, 6)


class TestTrustedUnpickle:
    def test_graph_reduce_skips_revalidation(self, graph):
        fn, args = graph.__reduce__()[:2]
        assert fn == Graph._from_trusted
        g2 = pickle.loads(pickle.dumps(graph))
        assert np.array_equal(g2.indices, graph.indices)
        assert g2.num_edges == graph.num_edges


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only forked workers inherit the graph without pickling it",
)
class TestNoGraphPickling:
    def test_pool_runs_never_pickle_the_graph(self, graph, monkeypatch):
        def refuse(self):
            raise AssertionError("the graph was pickled")

        monkeypatch.setattr(Graph, "__reduce__", refuse)
        with pytest.raises(AssertionError, match="pickled"):
            pickle.dumps(graph)
        result = PortfolioRunner(
            [SolverSpec("multilevel"), SolverSpec("spectral")],
            num_seeds=2, jobs=2, seed=11,
        ).run(PartitionProblem(graph, k=4))
        assert all(r.ok for r in result.records), [
            r.error for r in result.records
        ]
        report = solve(
            graph, 4, "fusion-fission", seed=7, max_steps=200, islands=2,
            migration_interval=3, island_jobs=2,
            budget=Budget(max_iterations=4),
        )
        assert report.partition is not None


def _portfolio_code(extra: str, runs: int = 1) -> str:
    """Subprocess body running a jobs=2 portfolio `runs` times; `extra`
    tweaks it."""
    return (
        "from repro.engine import (FaultInjector, PartitionProblem,\n"
        "    PortfolioRunner, RetryPolicy, SolverSpec)\n"
        "from repro.graph import weighted_caveman_graph\n"
        "problem = PartitionProblem(weighted_caveman_graph(4, 6), k=4)\n"
        "specs = [SolverSpec('multilevel'), SolverSpec('spectral')]\n"
        f"{extra}\n"
        f"for _ in range({runs}):\n"
        "    result = runner.run(problem)\n"
        "print(len(result.records))\n"
    )


class TestEngineLifecycle:
    def test_pool_run_exits_clean(self):
        # The pool is built and torn down repeatedly, so any teardown
        # race has several chances to print a traceback.
        proc = _run_py(_portfolio_code(
            "runner = PortfolioRunner(specs, num_seeds=2, jobs=2, seed=11)",
            runs=8,
        ))
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr

    def test_deadline_cancel_exits_clean(self):
        proc = _run_py(_portfolio_code(
            "runner = PortfolioRunner(specs, num_seeds=2, jobs=2, seed=11,\n"
            "                         deadline=0.0)"
        ))
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr

    def test_self_heal_rebuilds_and_exits_clean(self):
        proc = _run_py(_portfolio_code(
            "runner = PortfolioRunner(specs, num_seeds=2, jobs=2, seed=11,\n"
            "    retry=RetryPolicy(max_attempts=2, backoff=0.01),\n"
            "    faults=FaultInjector.parse('crash@0,1,1'))\n"
            "result = runner.run(problem)\n"
            "rec = [r for r in result.records\n"
            "       if r.spec_index == 0 and r.seed_index == 1][0]\n"
            "assert rec.error is None, rec.error\n"
            "assert rec.attempts == 2\n"
            "assert any('rebuilt' in n or 'died' in n\n"
            "           for n in rec.fault_trace), rec.fault_trace"
        ))
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr

    def test_pool_run_starts_no_resource_tracker(self):
        proc = _run_py(_portfolio_code(
            "runner = PortfolioRunner(specs, num_seeds=2, jobs=2, seed=11)"
        ) + (
            "from multiprocessing import resource_tracker\n"
            "print(resource_tracker._resource_tracker._pid)\n"
        ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["4", "None"]


class TestPoolRunner:
    def test_pool_results_match_inline(self, graph):
        problem = PartitionProblem(graph, k=4)
        specs = [SolverSpec("multilevel"), SolverSpec("spectral")]
        inline = PortfolioRunner(specs, num_seeds=2, jobs=1, seed=11).run(
            problem
        )
        pooled = PortfolioRunner(specs, num_seeds=2, jobs=2, seed=11).run(
            problem
        )
        for a, b in zip(inline.records, pooled.records):
            assert a.objective == b.objective
            assert np.array_equal(a.assignment, b.assignment)

    def test_invalid_transport_rejected(self):
        PortfolioRunner([SolverSpec("multilevel")], graph_transport="shm")
        for transport in ("carrier-pigeon", "pickle", "auto"):
            with pytest.raises(ConfigurationError):
                PortfolioRunner(
                    [SolverSpec("multilevel")], graph_transport=transport
                )
