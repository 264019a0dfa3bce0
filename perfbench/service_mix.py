"""The ``service-mix`` workload: ``repro serve --workers 2`` over HTTP.

One client process keeps :data:`CLIENTS` jobs outstanding in a closed
loop (each client thread submits its next job only after it has seen the
previous one finish) until ``--seconds`` have passed, at least
:data:`MIN_JOBS` jobs were submitted and the last pass over
:data:`PATTERN` is whole, then lets the jobs in flight finish.  The
server slices every job deterministically
(``--slice none --slice-iterations 1``), persisting a checkpoint after
each slice, and starts from a fresh, empty data directory, so the result
cache starts cold.

The job sequence repeats :data:`PATTERN` (why it holds what it holds is
noted there); two tenants submit four kinds of job:

* ``A``: ant colony on ``powerlaw-2000`` — the per-ant walk plus a
  ~0.4 MB JSON pheromone checkpoint persisted per slice;
* ``S``: simulated annealing on ``atc-core`` — session start runs
  whole-graph percolation floods;
* ``F``: small fusion–fission jobs on ``mesh-200``;
* ``R``: an exact repeat of the job :data:`REPEAT_LAG` slots earlier,
  submitted only after the client has seen that job's result, so it must
  take the result-cache path.

A repeat's original can still be in flight when the repeat's turn comes;
the repeating client then waits for it.  ``service.cache.hits`` must
equal the number of repeats submitted.  A refused or failed submit, a
failed job and a wrong result all count as failures; a failed job's time
to result counts as infinite.
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from checks import request_key
from common import Context, percentile, vm_kb
import tracer as tracing

CLIENTS = 4
#: Server starts timed per run for ``setup_s`` (the median is reported).
SETUP_STARTS = 5
POLL_SECONDS = 0.05   # the poll interval of ServiceClient.wait
#: 2 repeats in 16 jobs: the 12.5% repeat rate (13 of 104 jobs) of the
#: prototype run this workload was designed from.  The 14 solves give
#: each of SA, ACO and FF more than a quarter of the solve seconds: one
#: SA job, the fewest possible, costs about as much as 11 ACO or 10 FF
#: jobs.  Measured in the service at seed 0, the shares were SA 0.45,
#: ACO 0.27 and FF 0.27; every run prints the shares it saw.
PATTERN = "SAFAFAFRFAAFAFRA"
#: A repeat repeats the job this many slots earlier (an ACO or FF job).
REPEAT_LAG = 6
#: A failed job's time to result: later than any percentile limit.
FAILED_TTR = 1e9
#: A run takes at least this many jobs, so ``ttr_p90_s`` has at least ten
#: samples beyond it; ``mcut`` averages the results of these first slots
#: only, so it does not depend on how many jobs a run completes.
MIN_JOBS = 112

KINDS = {
    "A": {"method": "ant-colony", "instance": "powerlaw-2000", "k": 8,
          "max_iterations": 2, "tenant": "analytics", "pool": 160},
    "S": {"method": "simulated-annealing", "instance": "atc-core", "k": 32,
          "max_iterations": 2, "tenant": "ops", "pool": 32},
    "F": {"method": "fusion-fission", "instance": "mesh-200", "k": 4,
          "max_iterations": 3, "tenant": "ops", "pool": 200},
}
TENANT_WEIGHTS = {"ops": 2.0, "analytics": 1.0}
SERVE_ARGS = ["--workers", "2", "--slice", "none", "--slice-iterations", "1"]


def job_plan(seed: int, slots: int) -> list[dict]:
    """The first ``slots`` jobs of the sequence a workload seed defines.

    Each kind draws solve seeds from its frozen pool, entering it at a
    seed-dependent offset; past the end of the pool it uses fresh seeds
    (checked structurally only).
    """
    rng = np.random.default_rng(seed)
    offsets = {kind: int(rng.integers(spec["pool"]))
               for kind, spec in KINDS.items()}
    used = {kind: 0 for kind in KINDS}
    plan = []
    for i in range(slots):
        kind = PATTERN[i % len(PATTERN)]
        if kind == "R":
            original = plan[i - REPEAT_LAG]
            plan.append({**original, "kind": "R", "repeat_of": i - REPEAT_LAG})
            continue
        spec = KINDS[kind]
        j = used[kind]
        used[kind] += 1
        solve_seed = (
            (offsets[kind] + j) % spec["pool"] if j < spec["pool"]
            else 10_000 + j
        )
        plan.append({
            "kind": kind,
            "repeat_of": None,
            "key": request_key(spec["method"], spec["instance"], spec["k"],
                               solve_seed, spec["max_iterations"]),
            "payload": {
                "tenant": spec["tenant"],
                "weight": TENANT_WEIGHTS[spec["tenant"]],
                "instance": spec["instance"],
                "k": spec["k"],
                "method": spec["method"],
                "seed": solve_seed,
                "max_iterations": spec["max_iterations"],
                "name": f"{kind}{j}",
            },
        })
    return plan


class Server:
    """One ``repro serve`` process on a fresh data directory."""

    def __init__(self, ctx: Context, tag: str, trace_out: Path | None = None):
        from repro.service import ServiceClient

        self.data_dir = ctx.out_dir / f"service-{tag}"
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.data_dir.mkdir(parents=True)
        self.log_path = ctx.out_dir / f"service-{tag}.log"
        launcher = Path(__file__).with_name("serve.py")
        cmd = [sys.executable, str(launcher)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["serve", "--data-dir", str(self.data_dir), *SERVE_ARGS]
        start = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(cmd, cwd=ctx.root, env=ctx.env(),
                                         stdout=log, stderr=subprocess.STDOUT)
        try:
            self.client = ServiceClient.discover(self.data_dir, timeout=30.0,
                                                 wait_seconds=60.0)
            deadline = time.monotonic() + 60.0
            while True:
                try:
                    self.client.healthz()
                    break
                except OSError:
                    if time.monotonic() > deadline or \
                            self.proc.poll() is not None:
                        raise
                    time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def peak_rss_mb(self) -> float:
        return vm_kb(self.proc.pid, "VmHWM") / 1024

    def stop(self) -> None:
        """SIGINT (clean stop, writes the trace), then wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class ClosedLoop:
    """:data:`CLIENTS` client threads walking one job plan."""

    def __init__(self, client, plan: list[dict], seconds: float) -> None:
        self.client = client
        self.plan = plan
        self.seconds = seconds
        self.records: list[dict] = []
        self.seen = [threading.Event() for _ in plan]
        self.submit_s: list[float] = []
        self.status_s: list[float] = []
        self._next = 0
        self._lock = threading.Lock()

    def run(self) -> None:
        self.start = time.perf_counter()
        threads = [threading.Thread(target=self._client_loop)
                   for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.end = max((r["t_seen"] for r in self.records),
                       default=time.perf_counter())

    def _take(self) -> int | None:
        """The next slot, or None once the run is complete.

        A run ends only after the time is up, at least :data:`MIN_JOBS`
        slots were taken, and a whole number of :data:`PATTERN` passes,
        so every run has the same mix of kinds.
        """
        with self._lock:
            done = (time.perf_counter() - self.start >= self.seconds
                    and self._next >= MIN_JOBS
                    and self._next % len(PATTERN) == 0)
            if done or self._next >= len(self.plan):
                return None
            slot = self._next
            self._next += 1
            return slot

    def _client_loop(self) -> None:
        while (slot := self._take()) is not None:
            job = self.plan[slot]
            record = {"slot": slot, "job": job, "state": "refused",
                      "card": None, "result": None, "error": None}
            try:
                if job["repeat_of"] is not None:
                    self.seen[job["repeat_of"]].wait(timeout=120)
                record["t_submit"] = time.perf_counter()
                self._run_job(record)
            except Exception as exc:  # noqa: BLE001 - a failure is counted
                record["error"] = f"{type(exc).__name__}: {exc}"
            finally:
                record["t_seen"] = time.perf_counter()
                record.setdefault("t_submit", record["t_seen"])
                with self._lock:
                    self.records.append(record)
                self.seen[slot].set()

    def _run_job(self, record: dict) -> None:
        t0 = time.perf_counter()
        card = self.client.submit(record["job"]["payload"])
        t1 = time.perf_counter()
        with self._lock:
            self.submit_s.append(t1 - t0)
        while card["state"] not in ("done", "failed", "cancelled"):
            time.sleep(POLL_SECONDS)
            t0 = time.perf_counter()
            card = self.client.status(card["id"])
            t1 = time.perf_counter()
            with self._lock:
                self.status_s.append(t1 - t0)
        record["state"] = card["state"]
        record["card"] = card
        if card["state"] == "done":
            record["result"] = self.client.result(card["id"])["result"]


def _check(ctx: Context, loop: ClosedLoop, graphs: dict) -> list[float]:
    mcuts = []
    for record in sorted(loop.records, key=lambda r: r["slot"]):
        job = record["job"]
        label = f"slot {record['slot']} {job['payload']['name']}" + (
            f" (repeat of slot {job['repeat_of']})" if job["repeat_of"]
            is not None else "")
        ctx.attempted += 1
        result = record["result"]
        if record["state"] != "done" or result is None:
            ctx.failed += 1
            card = record["card"] or {}
            ctx.checker.fail(label, f"job {record['state']}: "
                             f"{record['error'] or card.get('error')}")
            continue
        payload = job["payload"]
        mcut = ctx.checker.check(
            label, job["key"], graphs[payload["instance"]], payload["k"],
            result["assignment"], result["objective"],
            result["objective_value"],
        )
        if mcut is None:
            ctx.failed += 1
        elif record["slot"] < MIN_JOBS:
            mcuts.append(mcut)
    return mcuts


def _window(ctx: Context, tag: str, seconds: float, graphs: dict,
            trace_out: Path | None = None) -> dict:
    """One server, one closed-loop run, its checks; returns its figures."""
    server = Server(ctx, tag, trace_out)
    try:
        # Sized well past what a run can complete; ClosedLoop._take ends it.
        plan = job_plan(ctx.seed, 4000)
        loop = ClosedLoop(server.client, plan, seconds)
        loop.run()
        stats = server.client.stats()
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    mcuts = _check(ctx, loop, graphs)
    repeats = sum(1 for r in loop.records if r["job"]["repeat_of"] is not None)
    # The one hits == repeats check, made on every window, traced or not.
    hits = stats["cache"]["hits"]
    if hits != repeats:
        ctx.failed += 1
        ctx.checker.fail(tag, f"{hits} cache hits for {repeats} repeats")
    ttrs = [
        r["t_seen"] - r["t_submit"] if r["state"] == "done" else FAILED_TTR
        for r in loop.records
    ]
    solved = [r for r in loop.records
              if r["state"] == "done" and not r["card"]["cached"]]
    solved_s = [r["card"]["seconds"] for r in solved]
    kind_s = defaultdict(float)
    for r in solved:
        kind_s[r["job"]["kind"]] += r["card"]["seconds"]
    makespan = loop.end - loop.start
    # The first MIN_JOBS jobs are the same work on every run.
    first_jobs_s = max(r["t_seen"] for r in loop.records
                       if r["slot"] < MIN_JOBS) - loop.start
    ctx.notes.append(
        f"{tag}: {len(loop.records)} jobs ({repeats} repeats) in "
        f"{makespan:.2f}s, {stats['slices_executed']} slices; share of "
        "solve seconds " + " ".join(
            f"{kind} {kind_s[kind] / max(sum(solved_s), 1e-9):.2f}"
            for kind in KINDS)
    )
    return {
        "setup_s": server.setup_s,
        "records": loop.records,
        "stats": stats,
        "solved": len(solved),
        "solve_s": statistics.median(solved_s) if solved_s else float("nan"),
        "makespan_s": first_jobs_s,
        "jobs_per_s": sum(r["state"] == "done" for r in loop.records)
        / makespan,
        "ttrs": ttrs,
        "mcut": statistics.fmean(mcuts) if mcuts else float("nan"),
        "peak_rss_mb": rss_mb,
        "submit_s": loop.submit_s,
        "status_s": loop.status_s,
    }


def run(ctx: Context) -> tuple[dict, dict]:
    from repro.workloads import build_instance

    graphs = {spec["instance"]: build_instance(spec["instance"])
              for spec in KINDS.values()}
    if not ctx.trace:
        setups = []
        for i in range(SETUP_STARTS - 1):
            server = Server(ctx, f"setup{i}")
            server.stop()
            setups.append(server.setup_s)
        w = _window(ctx, "run", ctx.seconds, graphs)
        setups.append(w["setup_s"])
        return {
            "setup_s": statistics.median(setups),
            "solve_s": w["solve_s"],
            "makespan_s": w["makespan_s"],
            "jobs_per_s": w["jobs_per_s"],
            "ttr_p50_s": percentile(w["ttrs"], 50),
            "ttr_p90_s": percentile(w["ttrs"], 90),
            "mcut": w["mcut"],
            "peak_rss_mb": w["peak_rss_mb"],
        }, {}
    plain = _window(ctx, "plain", ctx.seconds / 2, graphs)
    trace_out = ctx.out_dir / "server-trace.json"
    traced = _window(ctx, "traced", ctx.seconds / 2, graphs, trace_out)
    dump = json.loads(trace_out.read_text())
    # Per solved job, so a faster server that finishes more jobs in its
    # window does not read as a costlier one.
    solved = max(traced["solved"], 1)
    layer = tracing.per_unit(tracing.summarize(dump["spans"]),
                             dump["counters"], solved)
    layer["percolation.bonds.share"] = layer.get(
        "percolation.bonds.s", 0.0) / max(layer.get("service.slice.s", 0.0),
                                          1e-9)
    waits = dump["samples"].get("service.queue_wait", [0.0])
    stats = traced["stats"]
    layer.update({
        "service.jobs": len(traced["records"]),
        "service.slices": stats["slices_executed"] / solved,
        "service.queue_wait.p50_s": percentile(waits, 50),
        "service.queue_wait.p90_s": percentile(waits, 90),
        "service.cache.hits": stats["cache"]["hits"],
        "service.cache.misses": stats["cache"]["misses"],
        "service.http.submit_s": statistics.median(traced["submit_s"]),
        "service.http.status_s": statistics.median(traced["status_s"]),
        "tracing.overhead_frac": plain["jobs_per_s"] / traced["jobs_per_s"]
        - 1.0,
    })
    return {}, layer
