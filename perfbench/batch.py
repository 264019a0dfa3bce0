"""The in-process workloads: ``ff-atc``, ``ml-kernels`` and ``portfolio``.

Each workload has a pinned *cycle* of units, and a run repeats the
cycle until ``--seconds`` have passed.  A run always completes at least
one full cycle, and the unit in flight when time runs out finishes.

* ``ff-atc``: default fusion–fission on ``atc-core``, k=32.  The cycle
  is two solves, with seeds :data:`FF_SEEDS`.
* ``ml-kernels``: multilevel, k=8, on ``powerlaw-2000`` and ``grid-64``,
  with seeds :data:`ML_SEEDS`.  The cycle is four solves.
* ``portfolio``: one ``PortfolioRunner(jobs=2)`` grid over the shm graph
  plane on ``powerlaw-2000``, k=8.  A few long multilevel and spectral
  tasks run among many short percolation and linear ones.  The cycle is
  one grid.

The inputs are pinned because a solve's time and quality depend on its
seed by more than the benchmark's bounds.  The workload seed only picks
where in the cycle a run starts.

With ``--trace 1`` the units run twice, each time for half the budget:
first untraced, then with the layer wrappers installed.  Per-layer
figures are per traced unit.  ``tracing.overhead_frac`` compares the
units the two halves have in common.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from checks import request_key
from common import Context, TreeRssSampler, measure_setup, percentile
import tracer as tracing

FF_SEEDS = (0, 1)
ML_SEEDS = (0, 1)
ML_INSTANCES = ("powerlaw-2000", "grid-64")
PF_INSTANCE = "powerlaw-2000"
PF_RUNNER_SEED = 0
PF_SEEDS = 3
PF_JOBS = 2


@dataclass
class Solve:
    """One returned partition, kept until the checks run after timing."""

    label: str
    key: str | None
    graph: object
    k: int
    assignment: object
    objective: str
    value: float
    seconds: float       # the solve's own wall time
    ttr: float           # request -> result seen by the caller


@dataclass
class Unit:
    position: int        # index in the workload's cycle
    seconds: float
    solves: list[Solve]
    records: list = field(default_factory=list)   # portfolio RunRecords


def _setup_code(instances) -> str:
    builds = "; ".join(f"build_instance({name!r})" for name in instances)
    return ("import repro.api, repro.engine; "
            "from repro.workloads import build_instance; " + builds)


def _solve(graph, instance, method, k, seed) -> Solve:
    from repro.api import SolveRequest, get_solver

    start = time.perf_counter()
    session = get_solver(method, k).start(
        SolveRequest(graph=graph, k=k, seed=seed, name=instance)
    )
    report = session.run()
    seconds = time.perf_counter() - start
    return Solve(
        label=f"{method} {instance} seed={seed}",
        key=request_key(method, instance, k, seed),
        graph=graph, k=k, assignment=report.assignment,
        objective=report.objective, value=report.objective_value,
        seconds=seconds, ttr=seconds,
    )


def _rotate(items: list, seed: int) -> list:
    shift = seed % len(items)
    return items[shift:] + items[:shift]


class FFAtc:
    name = "ff-atc"
    instances = ("atc-core",)

    def prepare(self, ctx: Context) -> None:
        from repro.workloads import build_instance

        self.graph = build_instance("atc-core")
        self.cycle = _rotate(list(FF_SEEDS), ctx.seed)

    def unit(self, position: int) -> Unit:
        solve = _solve(self.graph, "atc-core", "fusion-fission", 32,
                       self.cycle[position])
        return Unit(position, solve.seconds, [solve])


class MLKernels:
    name = "ml-kernels"
    instances = ML_INSTANCES

    def prepare(self, ctx: Context) -> None:
        from repro.workloads import build_instance

        self.graphs = {name: build_instance(name) for name in ML_INSTANCES}
        self.cycle = _rotate(
            [(name, seed) for name in ML_INSTANCES for seed in ML_SEEDS],
            ctx.seed,
        )

    def unit(self, position: int) -> Unit:
        name, seed = self.cycle[position]
        solve = _solve(self.graphs[name], name, "multilevel", 8, seed)
        return Unit(position, solve.seconds, [solve])


def portfolio_specs():
    from repro.engine import SolverSpec

    return [
        SolverSpec.for_method("multilevel"),
        SolverSpec.for_method("spectral"),
        SolverSpec.for_method("percolation"),
        SolverSpec(method="percolation", label="percolation-balanced",
                   options={"balance": True}),
        SolverSpec.for_method("linear"),
        SolverSpec(method="linear", label="linear-4way",
                   options={"arity": 4}),
    ]


def portfolio_key(label: str, runner_seed: int, seed_index: int) -> str:
    return (f"portfolio|{label}|{PF_INSTANCE}|k=8|runner={runner_seed}"
            f"|seed_index={seed_index}")


class Portfolio:
    name = "portfolio"
    instances = (PF_INSTANCE,)

    def prepare(self, ctx: Context) -> None:
        from repro.engine import PartitionProblem
        from repro.workloads import build_instance

        self.problem = PartitionProblem(
            graph=build_instance(PF_INSTANCE), k=8, name=PF_INSTANCE
        )
        self.cycle = [PF_RUNNER_SEED]

    def unit(self, position: int) -> Unit:
        from repro.engine import PortfolioRunner

        seen: dict[tuple, float] = {}
        start = time.perf_counter()
        result = PortfolioRunner(
            portfolio_specs(), num_seeds=PF_SEEDS, jobs=PF_JOBS,
            seed=PF_RUNNER_SEED, graph_transport="shm",
        ).run(self.problem, on_record=lambda r: seen.__setitem__(
            (r.spec_index, r.seed_index), time.perf_counter()))
        makespan = time.perf_counter() - start
        solves = []
        for r in result.records:
            solves.append(Solve(
                label=f"{r.label} seed_index={r.seed_index}",
                key=portfolio_key(r.label, PF_RUNNER_SEED, r.seed_index),
                graph=self.problem.graph, k=8,
                assignment=r.assignment if r.ok else None,
                objective=self.problem.objective, value=r.objective,
                seconds=r.seconds,
                ttr=seen[(r.spec_index, r.seed_index)] - start,
            ))
        return Unit(position, makespan, solves, list(result.records))


WORKLOADS = {w.name: w for w in (FFAtc, MLKernels, Portfolio)}


def _run_units(workload, budget: float, min_units: int) -> list[Unit]:
    units: list[Unit] = []
    start = time.perf_counter()
    while len(units) < min_units or time.perf_counter() - start < budget:
        units.append(workload.unit(len(units) % len(workload.cycle)))
    return units


def _check(ctx: Context, units: list[Unit]) -> dict[str, float]:
    """Check every solve; returns the mcut of each distinct request."""
    mcuts = {}
    for unit in units:
        for solve in unit.solves:
            ctx.attempted += 1
            if solve.assignment is None:
                ctx.failed += 1
                ctx.checker.fail(solve.label, "the solve returned no partition")
                continue
            mcut = ctx.checker.check(
                solve.label, solve.key, solve.graph, solve.k,
                solve.assignment, solve.objective, solve.value,
            )
            if mcut is None:
                ctx.failed += 1
            else:
                mcuts[solve.key] = mcut
    return mcuts


def _engine_layer(units: list[Unit]) -> dict[str, float]:
    if not units[0].records:
        return {}
    n = len(units)
    task_s = [sum(r.seconds for r in unit.records) for unit in units]
    return {
        "engine.tasks": sum(len(unit.records) for unit in units) / n,
        "engine.attempts": sum(
            r.attempts for unit in units for r in unit.records) / n,
        "engine.task_s.sum": sum(task_s) / n,
        "engine.overhead_s": statistics.fmean(
            unit.seconds - s / PF_JOBS for unit, s in zip(units, task_s)),
        "engine.payload_bytes": max(
            r.payload_bytes or 0 for unit in units for r in unit.records),
    }


def _median_by(items, key, value) -> dict:
    groups = defaultdict(list)
    for item in items:
        groups[key(item)].append(value(item))
    return {k: statistics.median(v) for k, v in groups.items()}


def run(ctx: Context) -> tuple[dict, dict]:
    """Run one batch workload; returns (end-to-end metrics, per-layer)."""
    workload = WORKLOADS[ctx.workload]()
    setup_s = 0.0 if ctx.trace else measure_setup(
        ctx, _setup_code(workload.instances))
    workload.prepare(ctx)
    layer: dict[str, float] = {}
    # Only the portfolio has worker processes to sample; the others read
    # their own peak RSS, so no sampler thread competes with their solves.
    sampler = TreeRssSampler() if ctx.workload == "portfolio" else None
    with sampler or contextlib.nullcontext():
        if not ctx.trace:
            units = _run_units(workload, ctx.seconds, len(workload.cycle))
        else:
            plain = _run_units(workload, ctx.seconds / 2, 1)
            tracer = tracing.Tracer(ctx.out_dir).install()
            try:
                traced = _run_units(workload, ctx.seconds / 2, 1)
            finally:
                tracer.uninstall()
            common = min(len(plain), len(traced))
            summary = tracing.merge(
                tracing.summarize(tracer.rows()),
                tracing.load_worker_summaries(ctx.out_dir),
            )
            layer = tracing.per_unit(summary, tracer.counters, len(traced))
            layer["tracing.overhead_frac"] = (
                sum(u.seconds for u in traced[:common])
                / sum(u.seconds for u in plain[:common]) - 1.0
            )
            layer["percolation.bonds.share"] = layer.get(
                "percolation.bonds.s", 0.0) / statistics.fmean(
                u.seconds for u in traced)
            units = plain + traced
    layer.update(_engine_layer(units))
    mcuts = _check(ctx, units)
    # Timings cover whole cycles only: a trailing partial cycle would
    # weight its cycle positions by where the clock happened to stop.
    timed = units[:len(units) // len(workload.cycle) * len(workload.cycle)]
    timed = timed or units
    solves = [s for unit in timed for s in unit.solves]
    ttrs = [s.ttr for s in solves]
    if sampler is not None:
        rss_mb = sampler.peak_kb / 1024
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_request = _median_by(solves, lambda s: s.key, lambda s: s.seconds)
    per_position = _median_by(timed, lambda u: u.position,
                              lambda u: u.seconds)
    metrics = {
        "setup_s": setup_s,
        "solve_s": statistics.fmean(per_request.values()),
        "makespan_s": sum(per_position.values()),
        "jobs_per_s": len(solves) / sum(u.seconds for u in timed),
        "ttr_p50_s": percentile(ttrs, 50),
        "ttr_p90_s": percentile(ttrs, 90),
        "mcut": statistics.fmean(mcuts.values()) if mcuts else float("nan"),
        "peak_rss_mb": rss_mb,
    }
    ctx.notes.append(f"{len(units)} units, {len(timed)} in whole cycles, "
                     f"{len(solves)} timed solves (ttr samples: {len(ttrs)})")
    ctx.notes.append("unit seconds: " + " ".join(
        f"{u.position}:{u.seconds:.3f}" for u in units))
    return metrics, layer
