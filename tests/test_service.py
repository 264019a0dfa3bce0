"""The solve service: scheduler fairness, slicing determinism, cache,
faults, and crash recovery (all in-process; the HTTP plane is covered by
``test_service_http.py``)."""

import asyncio
import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.api import Budget, solve
from repro.common.exceptions import ConfigurationError, GraphError, ReproError
from repro.graph import Graph, graph_fingerprint, grid_graph
from repro.service import (
    FairShareScheduler,
    JobSpec,
    ServiceConfig,
    SolveService,
    cache_key,
)


def drain(service, timeout=120.0):
    async def _run():
        try:
            await service.drain(timeout=timeout)
        finally:
            await service.stop()

    asyncio.run(_run())


def ring_payload(n=12, **overrides):
    payload = {
        "graph": {"n": n, "edges": [[i, (i + 1) % n, 1.0] for i in range(n)]},
        "k": 3,
        "seed": 7,
        "max_iterations": 6,
    }
    payload.update(overrides)
    return payload


# ---------------------------------------------------------------------------
# Fair-share scheduler (pure, deterministic)
# ---------------------------------------------------------------------------
class TestFairShareScheduler:
    def test_proportional_share_under_load(self):
        """50 queued jobs, weights 1:2:4 — slices served in proportion."""
        sched = FairShareScheduler()
        weights = {"bronze": 1.0, "silver": 2.0, "gold": 4.0}
        for tenant, weight in weights.items():
            sched.set_weight(tenant, weight)
        jobs = []
        for i in range(50):
            tenant = ("bronze", "silver", "gold")[i % 3]
            job_id = f"{tenant}-{i}"
            jobs.append((tenant, job_id))
            sched.enqueue(tenant, job_id)
        # Serve a window while every tenant still has backlog, re-queueing
        # each job (jobs pause and re-enqueue in the real service too).
        served = {t: 0 for t in weights}
        for _ in range(70):
            job_id = sched.next()
            tenant = job_id.split("-")[0]
            served[tenant] += 1
            sched.enqueue(tenant, job_id)
        total_weight = sum(weights.values())
        for tenant, weight in weights.items():
            expected = 70 * weight / total_weight
            assert served[tenant] == pytest.approx(expected, abs=2), (
                tenant, served
            )

    def test_no_starvation(self):
        """A weight-1 tenant against a weight-100 flood still gets served
        within a bounded window."""
        sched = FairShareScheduler()
        sched.set_weight("flood", 100.0)
        sched.set_weight("droplet", 1.0)
        for i in range(200):
            sched.enqueue("flood", f"flood-{i}")
        sched.enqueue("droplet", "droplet-0")
        window = []
        for _ in range(150):
            job_id = sched.next()
            window.append(job_id)
            tenant = job_id.split("-")[0]
            sched.enqueue(tenant, job_id)
        assert "droplet-0" in window

    def test_fifo_within_tenant(self):
        sched = FairShareScheduler()
        for i in range(5):
            sched.enqueue("t", f"job-{i}")
        order = [sched.next() for _ in range(5)]
        assert order == [f"job-{i}" for i in range(5)]

    def test_idle_tenant_reenters_at_virtual_time(self):
        """A tenant that was idle can't burst-claim the backlog it never
        queued for."""
        sched = FairShareScheduler()
        for i in range(10):
            sched.enqueue("busy", f"busy-{i}")
        for _ in range(8):
            job_id = sched.next()
            sched.enqueue("busy", job_id)
        sched.enqueue("late", "late-0")
        # The latecomer starts at the current virtual time: roughly
        # alternating service, not 8 make-up slices in a row.
        first_four = [sched.next() for _ in range(4)]
        assert first_four.count("late-0") <= 1

    def test_remove_and_len(self):
        sched = FairShareScheduler()
        sched.enqueue("t", "a")
        sched.enqueue("t", "b")
        assert len(sched) == 2
        assert sched.remove("t", "a") is True
        assert sched.remove("t", "zzz") is False
        assert sched.next() == "b"
        assert sched.next() is None


# ---------------------------------------------------------------------------
# Job specs and the cache key
# ---------------------------------------------------------------------------
class TestJobSpec:
    def test_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown submit"):
            JobSpec.from_payload(ring_payload(frobnicate=1))
        # The tolerance is a multilevel option, not a request field.
        with pytest.raises(ConfigurationError, match="unknown submit"):
            JobSpec.from_payload(ring_payload(balance_tolerance=0.05))

    def test_requires_exactly_one_graph_source(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            JobSpec.from_payload({"k": 2})
        payload = ring_payload(instance="atc-core")
        with pytest.raises(ConfigurationError, match="exactly one"):
            JobSpec.from_payload(payload)

    def test_rejects_dynamic_instances(self):
        with pytest.raises(ConfigurationError, match="dynamic"):
            JobSpec.from_payload({"instance": "atc-day", "seed": 0})

    def test_instance_default_k(self):
        spec = JobSpec.from_payload({"instance": "atc-core"})
        assert spec.k == 32

    def test_cache_key_collapses_aliases_and_option_order(self):
        base = JobSpec.from_payload(ring_payload(method="fusion-fission"))
        alias = JobSpec.from_payload(ring_payload(method="ff"))
        assert cache_key("fp", base) == cache_key("fp", alias)
        a = JobSpec.from_payload(
            ring_payload(options={"alpha": 1, "beta": 2})
        )
        b = JobSpec.from_payload(
            ring_payload(options={"beta": 2, "alpha": 1})
        )
        assert cache_key("fp", a) == cache_key("fp", b)
        # An omitted objective is the default one.
        plain = {"instance": "grid-16", "k": 4, "method": "sa"}
        assert cache_key("fp", JobSpec.from_payload(plain)) == cache_key(
            "fp", JobSpec.from_payload(dict(plain, objective="mcut"))
        )

    def test_cache_key_ignores_identity_but_not_solve_fields(self):
        base = JobSpec.from_payload(ring_payload())
        other_tenant = JobSpec.from_payload(
            ring_payload(tenant="alice", name="x", weight=9.0)
        )
        assert cache_key("fp", base) == cache_key("fp", other_tenant)
        other_seed = JobSpec.from_payload(ring_payload(seed=8))
        assert cache_key("fp", base) != cache_key("fp", other_seed)
        other_graph = cache_key("fp2", base)
        assert other_graph != cache_key("fp", base)

    def test_spec_roundtrips_through_durable_record(self):
        spec = JobSpec.from_payload(
            ring_payload(options={"alpha": 1.5}, tenant="t", weight=2.0)
        )
        assert JobSpec.from_dict(spec.as_dict()) == spec


# ---------------------------------------------------------------------------
# Service end-to-end (in-process, iteration-sliced for determinism)
# ---------------------------------------------------------------------------
def iter_sliced_config(tmp_path, **overrides):
    kwargs = dict(
        data_dir=tmp_path / "data",
        workers=2,
        slice_seconds=None,
        slice_iterations=2,
    )
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


class TestServiceEndToEnd:
    def test_drain_completes_and_caches(self, tmp_path):
        service = SolveService(iter_sliced_config(tmp_path))
        card = service.submit(ring_payload())
        drain(service)
        job = service.get_job(card["id"])
        assert job.state == "done"
        assert job.slices == 3  # 6 iterations in 2-iteration slices
        assert job.result["assignment"]
        # Identical resubmission: instant done, zero work, counted hit.
        card2 = service.submit(ring_payload(tenant="someone-else"))
        job2 = service.get_job(card2["id"])
        assert job2.state == "done"
        assert job2.cached is True
        assert job2.slices == 0 and job2.iterations == 0
        assert job2.result == job.result
        stats = service.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["stores"] == 1
        # Neither the finished job nor the cache hit holds its graph.
        assert service._graphs == {}

    def test_sliced_equals_unsliced(self, tmp_path):
        """A job sliced into 2-iteration time slices finishes with the
        exact partition a direct un-sliced solve produces."""
        graph = grid_graph(6, 6)
        direct = solve(
            graph, 4, "fusion-fission", seed=11,
            budget=Budget(max_iterations=9),
        )
        us, vs, ws = graph.edge_arrays()
        payload = {
            "graph": {
                "n": graph.num_vertices,
                "edges": [[int(u), int(v), float(w)]
                          for u, v, w in zip(us, vs, ws)],
            },
            "k": 4,
            "seed": 11,
            "max_iterations": 9,
        }
        service = SolveService(iter_sliced_config(tmp_path))
        card = service.submit(payload)
        drain(service)
        job = service.get_job(card["id"])
        assert job.state == "done"
        assert job.slices > 1, "budget should have split the job"
        assert job.result["assignment"] == [
            int(p) for p in direct.assignment
        ]
        assert job.result["objective_value"] == pytest.approx(
            direct.objective_value
        )

    def test_cancel_queued_job(self, tmp_path):
        service = SolveService(iter_sliced_config(tmp_path))
        card = service.submit(ring_payload(max_iterations=500))
        cancelled = service.cancel(card["id"])
        assert cancelled["state"] == "cancelled"
        assert service._graphs == {}
        drain(service)
        assert service.get_job(card["id"]).state == "cancelled"

    def test_shared_inline_graph_lives_until_its_last_job_ends(
        self, tmp_path
    ):
        service = SolveService(iter_sliced_config(tmp_path))
        first = service.submit(ring_payload(seed=1))
        second = service.submit(ring_payload(seed=2))
        fingerprint = first["fingerprint"]
        assert second["fingerprint"] == fingerprint
        service.cancel(first["id"])
        assert list(service._graphs) == [fingerprint]
        drain(service)
        assert service.get_job(second["id"]).state == "done"
        assert service._graphs == {}

    def test_seeded_instance_graphs_are_not_memoised(self, tmp_path):
        service = SolveService(iter_sliced_config(tmp_path))
        default = service.submit({"instance": "grid-16", "k": 4,
                                  "method": "percolation"})
        for graph_seed in range(1, 6):
            service.submit({"instance": "geometric-150",
                            "method": "percolation",
                            "graph_seed": graph_seed})
        drain(service)
        assert all(job.terminal for job in service.jobs.values())
        assert list(service._graphs) == [default["fingerprint"]]

    def test_seeded_instance_graph_lives_until_its_last_job_ends(
        self, tmp_path
    ):
        service = SolveService(iter_sliced_config(tmp_path))
        payload = {"instance": "geometric-150", "method": "percolation",
                   "graph_seed": 3}
        first = service.submit(dict(payload, seed=1))
        graph = service._graphs[first["fingerprint"]]
        second = service.submit(dict(payload, seed=2))
        assert second["fingerprint"] == first["fingerprint"]
        assert list(service._graphs) == [first["fingerprint"]]
        assert service._graphs[first["fingerprint"]] is graph
        service.cancel(first["id"])
        assert list(service._graphs) == [first["fingerprint"]]
        drain(service)
        assert service.get_job(second["id"]).state == "done"
        assert service._graphs == {}

    def test_refused_submits_keep_no_inline_graph(self, tmp_path):
        service = SolveService(iter_sliced_config(tmp_path))
        for n in range(10, 15):
            with pytest.raises(ConfigurationError, match="island"):
                service.submit(
                    ring_payload(n=n, method="multilevel", islands=2)
                )
        assert service._graphs == {}
        assert service.jobs == {}
        # Registered instances stay memoised for the next submit.
        with pytest.raises(ConfigurationError, match="island"):
            service.submit({"instance": "grid-16", "k": 4,
                            "method": "multilevel", "islands": 2})
        assert len(service._graphs) == 1

    def test_submit_validation_errors_do_not_create_jobs(self, tmp_path):
        service = SolveService(iter_sliced_config(tmp_path))
        refused = [
            {"graph": {"n": 4, "edges": []}, "k": 0},
            {"instance": "grid-16", "k": 4, "method": "sa", "islands": 2,
             "migration_interval": 0},
            {"instance": "caveman-8x6", "k": 100},
            {"instance": "grid-16", "k": 4, "method": "multilevel",
             "islands": 2, "tenant": "t", "weight": 3.0},
            {"instance": "grid-16", "k": 4, "objective": "bogus"},
            {"instance": "grid-16", "k": 4, "options": {"objective": "cut"}},
        ]
        for payload in refused:
            with pytest.raises(ConfigurationError):
                service.submit(payload)
        with pytest.raises(GraphError, match="malformed JSON graph"):
            service.submit({"graph": {"n": 3, "edges": [[0]]}, "k": 2})
        assert service.jobs == {}
        assert service.scheduler.weights() == {}

    @pytest.mark.parametrize(
        "options", [{"bogus": 1}, {"time_budget": 1.0}],
        ids=["bogus", "time_budget"],
    )
    def test_submit_refuses_options_the_method_does_not_take(
        self, tmp_path, options
    ):
        service = SolveService(iter_sliced_config(tmp_path))
        with pytest.raises(ConfigurationError, match="simulated-annealing"):
            service.submit(ring_payload(method="sa", options=options))
        assert service.jobs == {}

    def test_fairness_under_concurrent_jobs(self, tmp_path):
        """Many cheap jobs across weighted tenants all complete, and the
        heavier tenant's backlog clears no slower than the light one."""
        service = SolveService(iter_sliced_config(tmp_path, workers=4))
        for i in range(12):
            tenant = ("light", "heavy")[i % 2]
            weight = {"light": 1.0, "heavy": 3.0}[tenant]
            service.submit(ring_payload(
                n=10 + (i % 3), seed=i, tenant=tenant, weight=weight,
                max_iterations=4,
            ))
        drain(service)
        states = {job.state for job in service.jobs.values()}
        assert states == {"done"}
        assert service.stats()["tenants"]["weights"] == {
            "light": 1.0, "heavy": 3.0,
        }


# ---------------------------------------------------------------------------
# Faults and retries
# ---------------------------------------------------------------------------
class TestServiceFaults:
    def test_crash_retries_from_checkpoint_and_result_is_identical(
        self, tmp_path
    ):
        from repro.engine.faults import FaultInjector
        from repro.engine.retry import RetryPolicy

        clean = SolveService(iter_sliced_config(tmp_path / "clean"))
        reference = clean.submit(ring_payload())
        drain(clean)
        expected = clean.get_job(reference["id"]).result

        chaotic = SolveService(iter_sliced_config(
            tmp_path / "chaos",
            faults=FaultInjector.parse("crash@0,0,1"),
            retry=RetryPolicy(max_attempts=2, backoff=0.0),
        ))
        card = chaotic.submit(ring_payload())
        drain(chaotic)
        job = chaotic.get_job(card["id"])
        assert job.state == "done"
        assert job.attempts == 2
        assert any("retrying" in line for line in job.fault_trace)
        assert job.result["assignment"] == expected["assignment"]

    def test_corrupt_result_fails_validation_and_does_not_cache(
        self, tmp_path
    ):
        from repro.engine.faults import FaultInjector

        service = SolveService(iter_sliced_config(
            tmp_path,
            faults=FaultInjector.parse("corrupt@0,0,1"),
        ))
        card = service.submit(ring_payload())
        drain(service)
        job = service.get_job(card["id"])
        assert job.state == "failed"
        assert job.error_kind == "invalid"
        assert service.cache.stats()["stores"] == 0
        # The poisoned answer must not satisfy a later identical query.
        retry = service.submit(ring_payload())
        assert service.get_job(retry["id"]).cached is False

    def test_crash_without_retry_budget_fails_permanently(self, tmp_path):
        from repro.engine.faults import FaultInjector

        service = SolveService(iter_sliced_config(
            tmp_path, faults=FaultInjector.parse("crash@0,0,1;crash@0,0,2"),
        ))
        card = service.submit(ring_payload())
        drain(service)
        job = service.get_job(card["id"])
        assert job.state == "failed"
        assert job.error_kind == "crash"


# ---------------------------------------------------------------------------
# Slice workers: each slice runs in a worker process
# ---------------------------------------------------------------------------
#: One fusion–fission job of ~34 ms per iteration on grid-16.
GRID_FF = {"instance": "grid-16", "k": 4, "method": "fusion-fission",
           "seed": 5}


def whole_job_config(tmp_path, **overrides):
    """One worker, and every job is one unbounded slice."""
    return iter_sliced_config(tmp_path, workers=1, slice_iterations=None,
                              **overrides)


async def wait_until(condition, timeout=60.0):
    """Poll ``condition`` from the event loop until it holds."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        await asyncio.sleep(0.005)


async def slice_started(service, job_id):
    """Wait until the job's slice has emitted its ``start`` event."""
    events = service.events_path(job_id)
    await wait_until(lambda: events.exists() and events.read_text())


class TestSliceWorkers:
    def kill_worker_mid_slice(self, tmp_path, retry):
        """Submit a job, SIGKILL the one worker while its slice runs,
        then submit a second job; return both jobs once terminal."""
        from repro.engine.retry import RetryPolicy

        service = SolveService(whole_job_config(
            tmp_path, retry=RetryPolicy(max_attempts=retry, backoff=0.0),
        ))

        async def scenario():
            await service.start()
            try:
                card = service.submit(dict(GRID_FF, max_iterations=20))
                await slice_started(service, card["id"])
                [worker] = multiprocessing.active_children()
                os.kill(worker.pid, signal.SIGKILL)
                await wait_until(lambda: service.get_job(card["id"]).terminal)
                after = service.submit(ring_payload())
                await service.drain(timeout=120)
            finally:
                await service.stop()
            return service.get_job(card["id"]), service.get_job(after["id"])

        return asyncio.run(scenario())

    def test_worker_death_retries_to_the_uninterrupted_result(
        self, tmp_path
    ):
        from repro.workloads import build_instance

        direct = solve(build_instance("grid-16"), 4, "fusion-fission",
                       seed=5, budget=Budget(max_iterations=20))
        job, after = self.kill_worker_mid_slice(tmp_path, retry=2)
        assert job.state == "done"
        assert job.attempts == 2
        assert any("[crash]" in line for line in job.fault_trace)
        assert job.result["assignment"] == [int(p) for p in direct.assignment]
        assert after.state == "done"

    def test_worker_death_without_retries_fails_as_crash(self, tmp_path):
        job, after = self.kill_worker_mid_slice(tmp_path, retry=1)
        assert job.state == "failed"
        assert job.error_kind == "crash"
        assert after.state == "done"

    def test_cancel_reaches_a_running_unbounded_slice(self, tmp_path):
        """A job that is one unbounded slice (seconds of work) stops at
        its next iteration boundary, not at the end of the slice."""
        service = SolveService(whole_job_config(tmp_path))

        async def scenario():
            await service.start()
            try:
                card = service.submit(GRID_FF)
                await slice_started(service, card["id"])
                service.cancel(card["id"])
                start = time.monotonic()
                await wait_until(lambda: service.get_job(card["id"]).terminal)
                return time.monotonic() - start, service.get_job(card["id"])
            finally:
                await service.stop()

        waited, job = asyncio.run(scenario())
        assert job.state == "cancelled"
        assert waited < 1.0
        assert 0 < job.iterations
        assert not service.store.cancel_path(job.id).exists()

    def test_stop_leaves_no_worker(self, tmp_path):
        service = SolveService(iter_sliced_config(tmp_path))
        service.submit(ring_payload())
        drain(service)
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Durability: restart recovery
# ---------------------------------------------------------------------------
class TestServiceRecovery:
    def run_slices(self, service, n):
        """Execute exactly ``n`` scheduler slices synchronously."""
        async def _run():
            for _ in range(n):
                job_id = service.scheduler.next()
                assert job_id is not None
                job = service.jobs[job_id]
                job.state = "running"
                outcome = service._run_slice_sync(job)
                service._apply_outcome(job, outcome)

        asyncio.run(_run())

    def test_restart_resumes_from_checkpoint_bit_identically(self, tmp_path):
        reference = SolveService(iter_sliced_config(tmp_path / "ref"))
        ref_card = reference.submit(ring_payload())
        drain(reference)
        expected = reference.get_job(ref_card["id"]).result

        # First server: run one slice (2 of 6 iterations), then vanish
        # without any shutdown courtesy.
        first = SolveService(iter_sliced_config(tmp_path / "live"))
        card = first.submit(ring_payload())
        self.run_slices(first, 1)
        job = first.get_job(card["id"])
        assert job.state == "queued" and job.checkpoint is not None
        del first

        # Second server on the same data dir adopts and finishes it.
        second = SolveService(iter_sliced_config(tmp_path / "live"))
        recovered = second.get_job(card["id"])
        assert recovered.recovered is True
        assert recovered.iterations == 2
        drain(second)
        final = second.get_job(card["id"])
        assert final.state == "done"
        assert final.result["assignment"] == expected["assignment"]

    def test_restart_requeues_job_killed_mid_slice(self, tmp_path):
        """A job persisted as ``running`` (killed mid-slice) recovers
        from its checkpoint; the lost slice replays identically."""
        reference = SolveService(iter_sliced_config(tmp_path / "ref"))
        ref_card = reference.submit(ring_payload())
        drain(reference)
        expected = reference.get_job(ref_card["id"]).result

        first = SolveService(iter_sliced_config(tmp_path / "live"))
        card = first.submit(ring_payload())
        self.run_slices(first, 1)
        job = first.get_job(card["id"])
        job.state = "running"  # simulate SIGKILL mid-slice-2
        first.store.save(job)
        del first

        second = SolveService(iter_sliced_config(tmp_path / "live"))
        adopted = second.get_job(card["id"])
        assert adopted.state == "queued"
        assert any("recovered after restart" in line
                   for line in adopted.fault_trace)
        drain(second)
        assert second.get_job(card["id"]).result["assignment"] == \
            expected["assignment"]

    def test_terminal_jobs_and_cache_survive_restart(self, tmp_path):
        first = SolveService(iter_sliced_config(tmp_path))
        card = first.submit(ring_payload())
        drain(first)
        del first
        second = SolveService(iter_sliced_config(tmp_path))
        job = second.get_job(card["id"])
        assert job.state == "done" and job.result is not None
        hit = second.submit(ring_payload())
        assert second.get_job(hit["id"]).cached is True


# ---------------------------------------------------------------------------
# Satellites: shared fingerprint, atomic writes
# ---------------------------------------------------------------------------
class TestFingerprintPromotion:
    def test_fingerprint_value_is_stable(self):
        # Result-cache keys on disk embed this value: it must not drift.
        assert graph_fingerprint(grid_graph(4, 4)) == (
            "69779d4be9a021357c03d6541de59e14"
        )

    def test_workloads_reexport_is_the_same_function(self):
        import repro.workloads as workloads

        assert workloads.graph_fingerprint is graph_fingerprint

    def test_fingerprint_sensitive_to_weights(self):
        a = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        b = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
        assert graph_fingerprint(a) != graph_fingerprint(b)


class TestAtomicWrites:
    def test_atomic_write_replaces_not_appends(self, tmp_path):
        from repro.common.atomic import atomic_write_json

        target = tmp_path / "x.json"
        atomic_write_json(target, {"v": 1})
        atomic_write_json(target, {"v": 2})
        assert json.loads(target.read_text()) == {"v": 2}
        # No temp litter left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    def test_jsonl_writer_append_mode(self, tmp_path):
        from repro.api.events import JsonlEventWriter, SolveEvent

        path = tmp_path / "events.jsonl"
        with JsonlEventWriter(path) as writer:
            writer(SolveEvent("start", 0, 0.0))
        with JsonlEventWriter(path, append=True, fsync=True) as writer:
            writer(SolveEvent("done", 1, 0.5))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["event"] for row in rows] == ["start", "done"]

    def test_jsonl_writer_truncates_by_default(self, tmp_path):
        from repro.api.events import JsonlEventWriter, SolveEvent

        path = tmp_path / "events.jsonl"
        path.write_text("stale\n")
        with JsonlEventWriter(path) as writer:
            writer(SolveEvent("start", 0, 0.0))
        assert len(path.read_text().splitlines()) == 1
