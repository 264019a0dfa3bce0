"""The solve service core: submit, time-sliced execution, durability.

:class:`SolveService` is the partitioning-as-a-service engine behind the
HTTP front end (:mod:`repro.service.http`) and the ``repro serve`` /
``repro submit`` CLI pair.  It owns four pieces and one loop:

* a :class:`~repro.service.scheduler.FairShareScheduler` deciding which
  tenant's job gets the next solve slice,
* a :class:`~repro.graph.pool.GraphPool` of worker processes executing
  slices (each slice is :func:`run_slice`: resume the job's last
  checkpoint on its graph, both shipped with the call →
  ``SolveSession.run(max_seconds/max_iterations)`` → cooperative pause →
  ``checkpoint()``),
* a :class:`~repro.service.store.JobStore` that atomically persists the
  full job record — checkpoint included — at *every* slice boundary, so
  a SIGKILL at any instant loses at most the in-flight slice, and
* a :class:`~repro.service.store.ResultCache` keyed by
  ``(graph_fingerprint, canonical request)`` answering repeated queries
  on hot graphs without running a single solver iteration.

Determinism is inherited, not re-proven: the session checkpoint/resume
contract (bit-identical resume on integral-weight graphs) means a job
sliced N ways — or killed and recovered mid-flight — finishes with the
exact partition an uninterrupted ``solve()`` of the same request
produces.  That is the property the durability tests and the
``service-smoke`` CI job assert end to end.

Faults: ``repro serve --faults 'crash@SEQ,0,ATTEMPT'`` routes the
engine's deterministic :class:`~repro.engine.faults.FaultInjector` into
job execution — the job submission ordinal plays the role of the
portfolio's spec index (seed index is always 0) — and the engine's
:class:`~repro.engine.retry.RetryPolicy` governs recovery, resuming the
retried attempt from the job's last durable checkpoint.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.common.exceptions import (
    ConfigurationError,
    ReproError,
    classify_error,
)
from repro.engine.faults import (
    FaultInjector,
    FaultSpec,
    corrupt_assignment,
    inject_before_solve,
)
from repro.engine.retry import RetryPolicy
from repro.engine.runner import validate_assignment
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.graph import Graph
from repro.graph.pool import GraphPool, PoolWorker
from repro.service.jobs import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    Job,
    JobSpec,
    cache_key,
    new_job_id,
)
from repro.service.scheduler import FairShareScheduler
from repro.service.store import JobStore, ResultCache

__all__ = [
    "ServiceConfig", "SliceTask", "SolveService", "STATS_SCHEMA", "run_slice",
]

STATS_SCHEMA = "repro-service-stats/v1"


@dataclass
class ServiceConfig:
    """Tunables of one service process.

    Attributes
    ----------
    data_dir:
        Root of the durable state (jobs, events, cache, server.json).
    workers:
        Number of slice worker processes — how many jobs solve
        *concurrently*; thousands more can be queued.
    slice_seconds:
        Wall-clock budget of one solve slice; ``None`` disables the
        time limit (then ``slice_iterations`` should bound slices).
    slice_iterations:
        Session-iteration budget of one slice; deterministic slicing
        for tests/CI (a wall-clock slice cuts at a machine-dependent
        iteration, an iteration slice always at the same one — the
        *result* is bit-identical either way).
    retry:
        Attempt/backoff policy for failed slices (crash/timeout/
        transient kinds retry from the last durable checkpoint).
    faults:
        Optional deterministic chaos injector (``repro serve --faults``).
    event_fsync:
        Run per-job event logs in fsync-per-event mode so the streams
        survive a SIGKILL along with the checkpoints.
    """

    data_dir: Path
    workers: int = 2
    slice_seconds: float | None = 0.25
    slice_iterations: int | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    faults: FaultInjector | None = None
    event_fsync: bool = False

    def __post_init__(self) -> None:
        self.data_dir = Path(self.data_dir)
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.slice_seconds is not None and self.slice_seconds <= 0:
            raise ConfigurationError(
                f"slice_seconds must be > 0, got {self.slice_seconds}"
            )
        if self.slice_iterations is not None and self.slice_iterations < 1:
            raise ConfigurationError(
                f"slice_iterations must be >= 1, got {self.slice_iterations}"
            )


class SolveService:
    """Multi-tenant solve server core (front-end-agnostic).

    All bookkeeping (scheduler, job table, persistence) happens on the
    event-loop thread; worker processes only ever run :func:`run_slice`
    on a snapshot of one job and return a plain outcome dict.
    ``submit``/``status``/``cancel``/``stats`` are synchronous and safe
    to call from HTTP handlers and tests alike.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.store = JobStore(config.data_dir)
        self.cache = ResultCache(self.store.cache_dir)
        self.scheduler = FairShareScheduler()
        self.jobs: dict[str, Job] = {}
        self.started_at = time.time()
        self.slices_executed = 0
        self.recovered_jobs = 0
        self._graphs: dict[str, Graph] = {}
        self._instance_graphs: dict[str, str] = {}
        self._seq = 0
        self._pool: GraphPool | None = None
        self._pool_generation = 0
        self._workers: list[asyncio.Task] = []
        self._wake: asyncio.Event | None = None
        self._stopping = False
        self._recover()

    # -- restart recovery --------------------------------------------------
    def _recover(self) -> None:
        """Re-adopt every persisted job; re-enqueue the in-flight ones.

        A job found ``running`` was mid-slice when the previous server
        died — its last durable checkpoint is authoritative, the lost
        slice replays bit-identically.  Queued jobs simply re-enqueue.
        """
        for job in self.store.load_all():
            self.jobs[job.id] = job
            self._seq = max(self._seq, job.seq + 1)
            if job.spec.weight is not None:
                self.scheduler.set_weight(job.spec.tenant, job.spec.weight)
            if job.terminal:
                continue
            if job.state == JOB_RUNNING:
                job.fault_trace.append(
                    f"recovered after restart at slice {job.slices} "
                    f"(iteration {job.iterations}); resuming from the "
                    "last durable checkpoint"
                )
            job.state = JOB_QUEUED
            job.recovered = True
            self.recovered_jobs += 1
            self.store.save(job)
            self.scheduler.enqueue(job.spec.tenant, job.id)

    # -- graph plumbing ----------------------------------------------------
    def _graph_for(self, job_or_spec) -> tuple[Graph, str]:
        """Graph + fingerprint for a spec; jobs on one graph share it.

        Default-seed instance graphs are memoised for the life of the
        server.  Every other graph, an instance built for an explicit
        ``graph_seed`` included, lives only while an unfinished job runs
        on it (see :meth:`_release_graph`).
        """
        spec = job_or_spec.spec if isinstance(job_or_spec, Job) else \
            job_or_spec
        memoised = spec.instance is not None and spec.graph_seed is None
        if memoised and spec.instance in self._instance_graphs:
            fingerprint = self._instance_graphs[spec.instance]
            return self._graphs[fingerprint], fingerprint
        graph = spec.build_graph()
        fingerprint = graph_fingerprint(graph)
        graph = self._graphs.setdefault(fingerprint, graph)
        if memoised:
            self._instance_graphs[spec.instance] = fingerprint
        return graph, fingerprint

    def _release_graph(self, fingerprint: str | None) -> None:
        """Drop a graph once no unfinished job runs on it.

        Default-seed instance graphs stay memoised: clients resubmit
        registered instances, and rebuilding one costs tens of
        milliseconds.  Explicit ``graph_seed`` values are unbounded, so
        their graphs are not.
        """
        if fingerprint in self._instance_graphs.values():
            return
        if any(
            job.fingerprint == fingerprint and not job.terminal
            for job in self.jobs.values()
        ):
            return
        self._graphs.pop(fingerprint, None)

    # -- submission / queries ----------------------------------------------
    def submit(self, payload: dict) -> dict:
        """Validate, cache-check, persist and enqueue one job.

        Returns the job card.  A cache hit creates the job already
        ``done`` (``cached: true``, zero slices, zero iterations) so the
        status/result endpoints behave identically for hot and cold
        queries.
        """
        from repro.api import get_solver

        spec = JobSpec.from_payload(payload)
        # Options the method does not take, and requests the solver
        # cannot run, fail here, not at the first slice.
        solver = get_solver(spec.method, spec.k, **dict(spec.options))
        graph, fingerprint = self._graph_for(spec)
        try:
            solver.check_request(spec.request(graph))
        except ReproError:
            self._release_graph(fingerprint)
            raise
        if spec.weight is not None:
            self.scheduler.set_weight(spec.tenant, spec.weight)
        key = cache_key(fingerprint, spec)
        job = Job(
            id=new_job_id(),
            seq=self._seq,
            spec=spec,
            fingerprint=fingerprint,
            key=key,
        )
        self._seq += 1
        cached = self.cache.get(key)
        if cached is not None:
            job.state = JOB_DONE
            job.result = cached
            job.cached = True
        self.jobs[job.id] = job
        self.store.save(job)
        if job.terminal:
            self._release_graph(fingerprint)
        else:
            self.scheduler.enqueue(spec.tenant, job.id)
            self._notify()
        return job.as_dict()

    def get_job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return job

    def status(self, job_id: str) -> dict:
        return self.get_job(job_id).as_dict()

    def result(self, job_id: str) -> dict | None:
        """Result payload of a finished job (None while unfinished)."""
        return self.get_job(job_id).result

    def cancel(self, job_id: str) -> dict:
        """Cooperatively cancel a job (queued: immediate; running: at
        the next iteration boundary of its current slice, where the
        slice's observer finds the job's cancel marker)."""
        job = self.get_job(job_id)
        if job.terminal:
            return job.as_dict()
        job.cancel_requested = True
        if job.state == JOB_QUEUED and self.scheduler.remove(
            job.spec.tenant, job.id
        ):
            job.state = JOB_CANCELLED
            self.store.save(job)
            self._release_graph(job.fingerprint)
        else:
            self.store.cancel_path(job.id).touch()
        return job.as_dict()

    def events_path(self, job_id: str) -> Path:
        return self.store.events_path(self.get_job(job_id).id)

    def has_pending(self) -> bool:
        return any(not job.terminal for job in self.jobs.values())

    def stats(self) -> dict:
        """The ``/stats`` payload: queues, cache counters, slice totals."""
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "schema": STATS_SCHEMA,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "workers": self.config.workers,
            "slice_seconds": self.config.slice_seconds,
            "slice_iterations": self.config.slice_iterations,
            "jobs": {
                "total": len(self.jobs),
                "by_state": dict(sorted(states.items())),
                "recovered": self.recovered_jobs,
            },
            "slices_executed": self.slices_executed,
            "cache": self.cache.stats(),
            "tenants": {
                "weights": self.scheduler.weights(),
                "backlog": self.scheduler.backlog(),
            },
            "faults": bool(self.config.faults),
        }

    # -- the pump ----------------------------------------------------------
    def _notify(self) -> None:
        if self._wake is not None:
            self._wake.set()

    async def start(self) -> None:
        """Start the worker processes and the slice pumps (idempotent).

        The workers fork here, before the HTTP front end starts any
        thread, and nothing waits for them to come up.
        """
        if self._workers:
            return
        self._stopping = False
        self._wake = asyncio.Event()
        self._pool = GraphPool(None, self.config.workers)
        self._workers = [
            asyncio.create_task(self._worker_loop())
            for _ in range(self.config.workers)
        ]
        if len(self.scheduler):
            self._notify()

    async def stop(self) -> None:
        """Stop pulling new slices; let in-flight slices finish."""
        self._stopping = True
        self._notify()
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._workers = []
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    async def drain(self, timeout: float | None = None) -> None:
        """Run until every submitted job is terminal (tests/CLI helper)."""
        await self.start()
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.has_pending():
            if deadline is not None and time.monotonic() > deadline:
                raise ReproError(
                    f"service drain timed out after {timeout:g}s with "
                    f"{sum(1 for j in self.jobs.values() if not j.terminal)} "
                    "jobs unfinished"
                )
            await asyncio.sleep(0.01)

    async def _worker_loop(self) -> None:
        assert self._wake is not None
        while not self._stopping:
            job_id = self.scheduler.next()
            if job_id is None:
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=0.5)
                except asyncio.TimeoutError:
                    pass
                continue
            job = self.jobs[job_id]
            if job.terminal:  # cancelled while queued, already final
                continue
            job.state = JOB_RUNNING
            self._apply_outcome(job, await self._run_slice(job))

    async def _run_slice(self, job: Job) -> dict:
        """Run one slice of ``job`` on a worker process; never raises.

        A worker's death breaks the whole pool: it is rebuilt once, and
        every slice that was in flight on it resolves as a ``crash`` —
        the retry policy resumes each from its last durable checkpoint.
        """
        generation = self._pool_generation
        try:
            args = (self._slice_task(job), self._job_graph(job))
            try:
                future = self._pool.submit(run_slice, *args)
            except BrokenProcessPool:  # broke before this slice: rerun it
                self._heal_pool(generation)
                generation = self._pool_generation
                future = self._pool.submit(run_slice, *args)
            return await asyncio.wrap_future(future)
        except Exception as exc:  # noqa: BLE001 - isolate job failures
            if isinstance(exc, BrokenProcessPool):
                self._heal_pool(generation)
            return _error_outcome(exc)

    def _heal_pool(self, generation: int) -> None:
        """Rebuild the pool that ``generation`` names, if not yet done."""
        if generation == self._pool_generation and self._pool is not None:
            self._pool.rebuild()
            self._pool_generation += 1

    def _run_slice_sync(self, job: Job) -> dict:
        """Run one slice of ``job`` in this process (same outcome)."""
        return run_slice(None, self._slice_task(job), self._job_graph(job))

    def _job_graph(self, job: Job) -> Graph:
        graph = self._graphs.get(job.fingerprint or "")
        if graph is None:
            graph, _ = self._graph_for(job)
        return graph

    def _slice_task(self, job: Job) -> SliceTask:
        fault = None
        if self.config.faults is not None:
            fault = self.config.faults.fault_for(job.seq, 0, job.attempts)
        return SliceTask(
            # The graph travels as an argument; its edge list need not.
            spec=replace(job.spec, graph_data=None),
            checkpoint=job.checkpoint,
            fault=fault,
            events_path=self.store.events_path(job.id),
            cancel_path=self.store.cancel_path(job.id),
            slice_seconds=self.config.slice_seconds,
            slice_iterations=self.config.slice_iterations,
            event_fsync=self.config.event_fsync,
        )

    # -- state transitions (loop thread) -------------------------------------
    def _apply_outcome(self, job: Job, outcome: dict) -> None:
        self.slices_executed += 1
        job.slices += 1
        job.iterations = int(outcome.get("iterations", job.iterations))
        job.seconds = float(outcome.get("seconds", job.seconds))
        kind = outcome["kind"]
        if note := outcome.get("note"):
            job.fault_trace.append(f"attempt {job.attempts}: {note}")
        if kind == "done":
            job.state = JOB_DONE
            job.result = outcome["result"]
            job.checkpoint = None
            if job.key is not None:
                self.cache.put(
                    job.key, job.result,
                    fingerprint=job.fingerprint or "",
                    request=job.spec.solve_fields(),
                )
        elif kind == "cancelled":
            job.state = JOB_CANCELLED
        elif kind == "paused":
            job.checkpoint = outcome["checkpoint"]
            if job.cancel_requested:
                job.state = JOB_CANCELLED
            else:
                job.state = JOB_QUEUED
                self.scheduler.enqueue(job.spec.tenant, job.id)
                self._notify()
        else:  # error
            self._apply_error(job, outcome)
        self.store.save(job)
        if job.terminal:
            self._release_graph(job.fingerprint)
            self.store.cancel_path(job.id).unlink(missing_ok=True)

    def _apply_error(self, job: Job, outcome: dict) -> None:
        error = outcome.get("error", "unknown error")
        error_kind = outcome.get("error_kind", "error")
        if self.config.retry.should_retry(error_kind, job.attempts) \
                and not job.cancel_requested:
            delay = self.config.retry.backoff_seconds(job.attempts)
            job.fault_trace.append(
                f"attempt {job.attempts}: {error} [{error_kind}] — "
                f"retrying from the last checkpoint in {delay:g}s"
            )
            job.attempts += 1
            job.state = JOB_QUEUED
            asyncio.get_running_loop().create_task(
                self._requeue_after(job, delay)
            )
        else:
            job.state = JOB_FAILED
            job.error = error
            job.error_kind = error_kind

    async def _requeue_after(self, job: Job, delay: float) -> None:
        if delay > 0:
            await asyncio.sleep(delay)
        if job.terminal:
            return
        self.scheduler.enqueue(job.spec.tenant, job.id)
        self._notify()


# -- slice execution (worker process) -----------------------------------------
@dataclass(frozen=True)
class SliceTask:
    """A picklable snapshot of everything one slice of a job needs."""

    spec: JobSpec
    checkpoint: dict | None
    fault: FaultSpec | None
    events_path: Path
    cancel_path: Path
    slice_seconds: float | None
    slice_iterations: int | None
    event_fsync: bool


def run_slice(
    _worker: PoolWorker | None, task: SliceTask, graph: Graph
) -> dict:
    """Execute one budgeted slice of a job on ``graph``; never raises.

    Runs in a slice worker process (``_worker`` is its pool handle,
    unused: the service's pool holds no graph) or, through
    :meth:`SolveService._run_slice_sync`, in the caller's.  It touches
    only its own session, the job's event stream and cancel marker;
    every state transition happens back on the event loop in
    :meth:`SolveService._apply_outcome`.
    """
    from repro.api import JsonlEventWriter, get_solver, resume

    writer = None
    try:
        fault = task.fault
        if fault is not None and fault.kind != "corrupt":
            inject_before_solve(
                fault, in_pool=False, timeout=task.slice_seconds or 1.0,
            )
        spec = task.spec
        if task.checkpoint is not None:
            session = resume(graph, task.checkpoint)
        else:
            solver = get_solver(spec.method, spec.k, **dict(spec.options))
            session = solver.start(spec.request(graph))
        writer = JsonlEventWriter(
            task.events_path, fsync=task.event_fsync, append=True,
        )
        session.subscribe(writer)

        def watch_cancel(event) -> None:
            # SolveService.cancel() leaves the marker: one stat per event,
            # the first of them the run's ``start``.
            if task.cancel_path.exists():
                session.cancel()

        session.subscribe(watch_cancel)
        # run() treats its budgets as session totals; grant each slice a
        # fresh window on top of the cumulative solve time and iterations.
        max_seconds = None
        if task.slice_seconds is not None:
            max_seconds = session.elapsed() + task.slice_seconds
        targets = [] if spec.max_iterations is None else [spec.max_iterations]
        if task.slice_iterations is not None:
            targets.append(session.iteration + task.slice_iterations)
        report = session.run(
            max_seconds=max_seconds, max_iterations=min(targets, default=None),
        )
        outcome = _slice_outcome(task, session, report)
        if outcome["kind"] == "paused":
            # Checkpoint before the writer closes so the checkpoint
            # event lands in the job's stream too.
            outcome["checkpoint"] = session.checkpoint()
        return outcome
    except Exception as exc:  # noqa: BLE001 - isolate job failures
        return _error_outcome(exc)
    finally:
        if writer is not None:
            writer.close()


def _error_outcome(exc: Exception) -> dict:
    return {
        "kind": "error",
        "error": f"{type(exc).__name__}: {exc}",
        "error_kind": classify_error(exc),
    }


def _slice_outcome(task: SliceTask, session, report) -> dict:
    from repro.api import STATUS_CANCELLED, STATUS_DONE

    spec = task.spec
    base = {
        "iterations": session.iteration,
        "seconds": session.elapsed(),
    }
    if report.status == STATUS_CANCELLED:
        return {"kind": "cancelled", **base}
    budget_done = (
        spec.max_iterations is not None
        and session.iteration >= spec.max_iterations
    )
    if report.status != STATUS_DONE and not budget_done:
        return {"kind": "paused", **base}
    # Terminal: finished naturally, or exhausted the job's own
    # iteration budget (deterministic, so still cacheable).
    if report.partition is None:
        return {
            "kind": "error",
            "error": (
                f"iteration budget ({spec.max_iterations}) expired "
                "before the solver produced any partition"
            ),
            "error_kind": "config",
            **base,
        }
    assignment = np.asarray(
        report.partition.assignment, dtype=np.int64
    ).copy()
    note = None
    if task.fault is not None and task.fault.kind == "corrupt":
        assignment = corrupt_assignment(assignment, spec.k)
        note = f"injected fault: {task.fault.describe()}"
    try:
        validate_assignment(
            assignment, session.request.graph.num_vertices, spec.k,
            label=spec.method,
        )
    except Exception as exc:  # ResultInvalid
        outcome = {**_error_outcome(exc), **base}
        if note:
            outcome["note"] = note
        return outcome
    result = report.as_dict(include_assignment=True)
    if budget_done and report.status != STATUS_DONE:
        result["status"] = "paused-budget"
    return {"kind": "done", "result": result, **base}
