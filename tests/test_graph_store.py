"""Tests for the shared-memory graph plane: O(1) handles, zero-copy
attach, deterministic segment lifecycle (no leaks after normal exit,
deadline cancellation, or pool self-healing) and the transport fields
stamped on portfolio records.

The leak tests run real subprocesses with ``-W error::UserWarning`` so
a ``resource_tracker`` "leaked shared_memory" warning at interpreter
exit fails the test instead of scrolling past.  CI runs this module
under ``PYTHONWARNINGS=error::UserWarning`` for the same reason.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    FaultInjector,
    PartitionProblem,
    PortfolioRunner,
    RetryPolicy,
    SolverSpec,
)
from repro.graph import weighted_caveman_graph
from repro.graph.graph import Graph
from repro.graph.store import SEGMENT_PREFIX, GraphHandle, GraphStore

SRC = str(Path(__file__).resolve().parents[1] / "src")
SHM_DIR = Path("/dev/shm")


def _strays() -> set[str]:
    if not SHM_DIR.is_dir():  # pragma: no cover - non-Linux fallback
        return set()
    return {p.name for p in SHM_DIR.glob(f"{SEGMENT_PREFIX}*")}


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


class TestHandle:
    def test_handle_is_o1_while_graph_is_o_edges(self):
        small = weighted_caveman_graph(2, 4)
        big = weighted_caveman_graph(32, 24)
        with GraphStore.create(small) as s1, GraphStore.create(big) as s2:
            h_small = len(pickle.dumps(s1.handle))
            h_big = len(pickle.dumps(s2.handle))
        g_small = len(pickle.dumps(small))
        g_big = len(pickle.dumps(big))
        # Handle size is flat; graph pickle grows with the edge count.
        assert abs(h_big - h_small) < 64
        assert h_big < 1024
        assert g_big > 10 * g_small
        assert g_big > 50 * h_big

    def test_payload_bytes_matches_pickle(self, graph):
        with GraphStore.create(graph) as store:
            assert store.handle.payload_bytes() == len(
                pickle.dumps(store.handle)
            )
            assert store.handle.total_nbytes() == (
                graph.indptr.nbytes + graph.indices.nbytes
                + graph.weights.nbytes + graph.vertex_weights.nbytes
            )

    def test_round_trip_preserves_arrays(self, graph):
        with GraphStore.create(graph) as store:
            handle = pickle.loads(pickle.dumps(store.handle))
            assert isinstance(handle, GraphHandle)
            g2 = Graph.from_handle(handle)
            assert np.array_equal(g2.indptr, graph.indptr)
            assert np.array_equal(g2.indices, graph.indices)
            assert np.array_equal(g2.weights, graph.weights)
            assert np.array_equal(g2.vertex_weights, graph.vertex_weights)
            assert handle.num_vertices == graph.num_vertices
            assert handle.num_edges == graph.num_edges

    def test_shared_views_are_read_only(self, graph):
        with GraphStore.create(graph) as store:
            g2 = store.graph()
            with pytest.raises(ValueError):
                g2.weights[0] = 99.0

    def test_attach_rejects_missing_segment(self, graph):
        with GraphStore.create(graph) as store:
            handle = store.handle
        from repro.common.exceptions import GraphError
        with pytest.raises(GraphError):
            GraphStore.attach(handle)


class TestTrustedUnpickle:
    def test_graph_reduce_skips_revalidation(self, graph):
        fn, args = graph.__reduce__()[:2]
        assert fn == Graph._from_trusted
        g2 = pickle.loads(pickle.dumps(graph))
        assert np.array_equal(g2.indices, graph.indices)
        assert g2.num_edges == graph.num_edges


class TestLifecycle:
    def test_normal_exit_leaves_no_segment(self):
        before = _strays()
        proc = _run_py(
            "from repro.graph import weighted_caveman_graph\n"
            "from repro.graph.store import GraphStore\n"
            "g = weighted_caveman_graph(4, 6)\n"
            "with GraphStore.create(g) as store:\n"
            "    print(store.handle.segment)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        assert _strays() == before

    def test_unmanaged_store_cleaned_by_atexit(self):
        before = _strays()
        proc = _run_py(
            "from repro.graph import weighted_caveman_graph\n"
            "from repro.graph.store import GraphStore\n"
            "store = GraphStore.create(weighted_caveman_graph(4, 6))\n"
            "print(store.handle.segment)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        assert _strays() == before

    @pytest.mark.skipif(not SHM_DIR.is_dir(), reason="needs /dev/shm")
    def test_create_sweeps_segments_of_killed_creators(self, graph):
        with GraphStore.create(graph) as live:
            proc = _run_py(
                "import os, signal\n"
                "from repro.graph import weighted_caveman_graph\n"
                "from repro.graph.store import GraphStore\n"
                "store = GraphStore.create(weighted_caveman_graph(4, 6))\n"
                "print(store.handle.segment, flush=True)\n"
                "os.kill(os.getpid(), signal.SIGKILL)\n"
            )
            assert proc.returncode == -9, proc.stderr
            orphan = proc.stdout.strip()
            assert orphan in _strays()  # SIGKILL skipped every unlink
            with GraphStore.create(graph):
                assert orphan not in _strays()
                assert live.handle.segment in _strays()

    def test_attach_sends_the_tracker_nothing(self, graph, monkeypatch):
        """Neither the creator nor attachers talk to the resource
        tracker: forked workers share one tracker, interleaved
        register/unregister pairs crash it with a KeyError, and the
        owner's lifecycle already unlinks every segment."""
        from multiprocessing import resource_tracker

        calls = []
        for name in ("register", "unregister"):
            monkeypatch.setattr(
                resource_tracker, name,
                lambda *args, _name=name: calls.append((_name, args)),
            )
        with GraphStore.create(graph) as store:
            attached = GraphStore.attach(store.handle).graph()
            assert np.array_equal(attached.weights, graph.weights)
        assert calls == []

    def test_cross_process_attach_no_leak_warnings(self, graph):
        before = _strays()
        with GraphStore.create(graph) as store:
            blob = pickle.dumps(store.handle)
            proc = _run_py(
                "import pickle, sys\n"
                "import numpy as np\n"
                "from repro.graph.store import GraphStore\n"
                f"handle = pickle.loads({blob!r})\n"
                "att = GraphStore.attach(handle)\n"
                "g = att.graph()\n"
                "assert g.num_vertices == handle.num_vertices\n"
                "print(float(g.weights.sum()))\n"
            )
            assert proc.returncode == 0, proc.stderr
            assert "Warning" not in proc.stderr
            assert float(proc.stdout.strip()) == pytest.approx(
                float(graph.weights.sum())
            )
            # The attacher exiting must not have unlinked the segment.
            g2 = store.graph()
            assert np.array_equal(g2.weights, graph.weights)
        assert _strays() == before


def _portfolio_code(extra: str, runs: int = 1) -> str:
    """Subprocess body running a jobs=2 shm portfolio `runs` times;
    `extra` tweaks it."""
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
    def test_pool_run_leaves_no_segment(self):
        # Workers attaching together once raced in the shared resource
        # tracker (REGISTER, REGISTER, UNREGISTER, UNREGISTER -> KeyError
        # traceback); the race is timing-dependent, so repeat the run.
        before = _strays()
        proc = _run_py(_portfolio_code(
            "runner = PortfolioRunner(specs, num_seeds=2, jobs=2, seed=11)",
            runs=8,
        ))
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert _strays() == before

    def test_deadline_cancel_leaves_no_segment(self):
        before = _strays()
        proc = _run_py(_portfolio_code(
            "runner = PortfolioRunner(specs, num_seeds=2, jobs=2, seed=11,\n"
            "                         deadline=0.0)"
        ))
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert _strays() == before

    def test_self_heal_reattaches_and_leaves_no_segment(self):
        before = _strays()
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
            "           for n in rec.fault_trace), rec.fault_trace\n"
            "assert rec.graph_transport == 'shm'"
        ))
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert _strays() == before


    def test_pool_run_starts_no_resource_tracker(self):
        proc = _run_py(_portfolio_code(
            "runner = PortfolioRunner(specs, num_seeds=2, jobs=2, seed=11)"
        ) + (
            "from multiprocessing import resource_tracker\n"
            "print(resource_tracker._resource_tracker._pid)\n"
        ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["4", "None"]


class TestTransportRecords:
    def test_pool_records_stamp_shm_transport(self):
        problem = PartitionProblem(weighted_caveman_graph(4, 6), k=4)
        runner = PortfolioRunner(
            [SolverSpec("multilevel")], num_seeds=2, jobs=2, seed=11
        )
        result = runner.run(problem)
        for rec in result.records:
            assert rec.graph_transport == "shm"
            assert 0 < rec.payload_bytes < 1024
            assert rec.as_dict()["graph_transport"] == "shm"

    def test_inline_records_stamp_inline_transport(self):
        problem = PartitionProblem(weighted_caveman_graph(4, 6), k=4)
        runner = PortfolioRunner(
            [SolverSpec("multilevel")], num_seeds=2, jobs=1, seed=11
        )
        result = runner.run(problem)
        for rec in result.records:
            assert rec.graph_transport == "inline"
            assert rec.payload_bytes == 0

    def test_transport_does_not_change_results(self):
        problem = PartitionProblem(weighted_caveman_graph(4, 6), k=4)
        base = PortfolioRunner(
            [SolverSpec("multilevel"), SolverSpec("spectral")],
            num_seeds=2, jobs=1, seed=11,
        ).run(problem)
        shm = PortfolioRunner(
            [SolverSpec("multilevel"), SolverSpec("spectral")],
            num_seeds=2, jobs=2, seed=11,
        ).run(problem)
        for a, b in zip(base.records, shm.records):
            assert (a.graph_transport, b.graph_transport) == ("inline", "shm")
            assert a.payload_bytes == 0 < b.payload_bytes
            assert a.objective == b.objective
            assert np.array_equal(a.assignment, b.assignment)

    def test_invalid_transport_rejected(self):
        from repro.common.exceptions import ConfigurationError
        PortfolioRunner([SolverSpec("multilevel")], graph_transport="shm")
        for transport in ("carrier-pigeon", "pickle", "auto"):
            with pytest.raises(ConfigurationError):
                PortfolioRunner(
                    [SolverSpec("multilevel")], graph_transport=transport
                )
