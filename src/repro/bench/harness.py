"""Suite runner and table formatting for the reproduction benchmarks.

A suite is a list of labelled :class:`~repro.engine.SolverSpec` rows
(:func:`repro.bench.table1_methods` builds the paper's).  :func:`run_suite`
is a thin adapter over :class:`repro.engine.PortfolioRunner`: the rows
execute on the engine — sequentially by default, or on a process pool
with ``jobs > 1`` (the Table-1/Figure-1 benches pass ``--jobs`` through
and get multi-core for free).  Seed derivation is unchanged from the
pre-engine harness: one generator spawned per row, in row order.

Both paths run on the :mod:`repro.api` session layer —
:func:`run_method` drives one row as
``spec.build_solver(k).start(request).run()``, and the engine's
``execute_task`` does the same per grid cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.exceptions import ReproError
from repro.common.rng import SeedLike, ensure_rng
from repro.common.timer import Timer
from repro.graph.graph import Graph

__all__ = [
    "MethodResult",
    "instance_graph",
    "run_method",
    "run_suite",
    "format_table",
]


def instance_graph(name: str, seed: SeedLike = None) -> Graph:
    """Build a registered workload instance's graph for a bench run.

    Thin lazy-import shim over :func:`repro.workloads.build_instance` so
    the bench CLIs (``table1 --instance mesh-200``) can target any
    registered family without importing the workloads catalog at module
    load.  Name resolution (aliases, did-you-mean) happens there.
    """
    from repro.workloads import build_instance

    return build_instance(name, seed)


@dataclass
class MethodResult:
    """One Table-1 row: a method's Cut/Ncut/Mcut on a graph.

    ``cut`` follows the paper's convention (cross edges counted twice);
    Table 1 prints it divided by 1000.
    """

    label: str
    cut: float
    ncut: float
    mcut: float
    num_parts: int
    seconds: float

    def as_dict(self) -> dict:
        """Plain-dict view for JSON dumps."""
        return {
            "label": self.label,
            "cut": self.cut,
            "ncut": self.ncut,
            "mcut": self.mcut,
            "num_parts": self.num_parts,
            "seconds": self.seconds,
        }


def run_method(spec, graph: Graph, k: int, seed: SeedLike = None) -> MethodResult:
    """Run one spec at ``k`` parts through the session API; score on all
    criteria."""
    from repro.api import Budget, SolveRequest

    solver = spec.build_solver(k)
    request = SolveRequest(
        graph=graph, k=k, seed=seed, name=spec.label,
        budget=Budget(max_seconds=spec.time_budget),
    )
    with Timer() as timer:
        # The session report carries the full evaluate_partition metrics;
        # no second scoring pass needed.
        report = solver.start(request).run().metrics
    return MethodResult(
        label=spec.label,
        cut=report.cut,
        ncut=report.ncut,
        mcut=report.mcut,
        num_parts=report.num_parts,
        seconds=timer.elapsed,
    )


def _format_progress(result: MethodResult) -> str:
    return (
        f"  {result.label:<28} Cut/1000={result.cut / 1000.0:>9.1f} "
        f"Ncut={result.ncut:>7.2f} Mcut={result.mcut:>9.2f} "
        f"[{result.seconds:.1f}s]"
    )


def run_suite(
    specs: list,
    graph: Graph,
    k: int,
    seed: SeedLike = None,
    verbose: bool = False,
    jobs: int = 1,
) -> list[MethodResult]:
    """Run every labelled spec at ``k`` parts; one spawned seed per spec.

    ``jobs > 1`` fans the suite out on the engine's process pool; results
    (and their seeds) are identical to a sequential run, only wall-clock
    changes.
    """
    from repro.engine import PartitionProblem, PortfolioRunner

    if not specs:
        return []
    rng = ensure_rng(seed)
    seed_grid = [[rng.spawn(1)[0]] for _ in specs]
    problem = PartitionProblem(graph, k=k, objective="mcut", name="bench-suite")
    runner = PortfolioRunner(specs, num_seeds=1, jobs=jobs, seed=0)

    def on_record(record) -> None:
        # Fail fast: raising here aborts the engine run (remaining tasks
        # are cancelled) instead of burning the rest of the suite budget.
        # ReproError keeps the library contract — callers wrapping the
        # bench in `except ReproError` still catch solver failures even
        # though the original exception died in a worker process.
        if not record.ok:
            kind = record.error_kind or "error"
            raise ReproError(
                f"bench method {record.label!r} failed "
                f"[{kind}]: {record.error}"
            )
        if verbose:
            print(_format_progress(_to_method_result(record)))

    result = runner.run(problem, seed_grid=seed_grid, on_record=on_record)
    return [_to_method_result(record) for record in result.records]


def _to_method_result(record) -> MethodResult:
    report = record.report
    return MethodResult(
        label=record.label,
        cut=report.cut,
        ncut=report.ncut,
        mcut=report.mcut,
        num_parts=report.num_parts,
        seconds=record.seconds,
    )


def format_table(results: list[MethodResult], title: str = "") -> str:
    """Render results in the paper's Table-1 layout (Cut divided by 1000)."""
    lines = []
    if title:
        lines.append(title)
    header = f"{'Method':<28} {'Cut':>8} {'Ncut':>8} {'Mcut':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for r in results:
        lines.append(
            f"{r.label:<28} {r.cut / 1000.0:>8.1f} {r.ncut:>8.2f} "
            f"{r.mcut:>10.2f}"
        )
    return "\n".join(lines)
