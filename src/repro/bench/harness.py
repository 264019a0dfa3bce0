"""Suite runner and table formatting for the reproduction benchmarks.

A suite is a list of labelled :class:`~repro.engine.SolverSpec` rows
(:func:`repro.bench.table1_methods` builds the paper's).  :func:`run_suite`
runs them on :class:`repro.engine.PortfolioRunner` — sequentially by
default, or on a process pool with ``jobs > 1`` (the Table-1/Figure-1
benches pass ``--jobs`` through) — and returns the engine's
:class:`~repro.engine.RunRecord` per row; a record's ``report`` holds
the row's Cut/Ncut/Mcut.  One generator is spawned per row, in row
order.
"""

from __future__ import annotations

from repro.common.exceptions import ReproError
from repro.common.rng import SeedLike, ensure_rng
from repro.graph.graph import Graph

__all__ = ["run_suite", "format_table"]


def run_suite(
    specs: list,
    graph: Graph,
    k: int,
    seed: SeedLike = None,
    verbose: bool = False,
    jobs: int = 1,
) -> list:
    """Run every labelled spec at ``k`` parts; one spawned seed per spec.

    Returns one successful :class:`~repro.engine.RunRecord` per spec, in
    order; the first failed row raises :class:`ReproError`.  ``jobs > 1``
    fans the suite out on the engine's process pool; results (and their
    seeds) are identical to a sequential run, only wall-clock changes.
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
            print(f"  {_table_row(record)} [{record.seconds:.1f}s]")

    return runner.run(problem, seed_grid=seed_grid, on_record=on_record).records


def _table_row(record) -> str:
    report = record.report
    return (
        f"{record.label:<28} {report.cut / 1000.0:>8.1f} "
        f"{report.ncut:>8.2f} {report.mcut:>10.2f}"
    )


def format_table(records: list, title: str = "") -> str:
    """Render run records in the paper's Table-1 layout (Cut divided by
    1000)."""
    lines = []
    if title:
        lines.append(title)
    header = f"{'Method':<28} {'Cut':>8} {'Ncut':>8} {'Mcut':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    lines.extend(_table_row(record) for record in records)
    return "\n".join(lines)
