"""Regenerate Table 1: 17 methods × (Cut, Ncut, Mcut) on the ATC instance.

Run as a module::

    python -m repro.bench.table1 [--k 32] [--seed 2006] [--budget SECONDS]

``--budget`` caps each metaheuristic's wall-clock time (the paper let them
run for minutes to an hour; the default here is 30 s per metaheuristic,
enough to land the published ranking on the synthetic instance).
"""

from __future__ import annotations

import argparse
import json

from repro.atc.europe import core_area_graph
from repro.bench.harness import format_table, run_suite
from repro.bench.registry import table1_methods
from repro.common.rng import SeedLike

__all__ = ["run_table1"]


def run_table1(
    k: int = 32,
    seed: SeedLike = 2006,
    metaheuristic_budget: float | None = 30.0,
    graph=None,
    verbose: bool = False,
    jobs: int = 1,
    instance: str | None = None,
) -> list:
    """Run the full Table-1 suite; returns one
    :class:`~repro.engine.RunRecord` per method row.

    ``jobs > 1`` runs the 17 rows on the portfolio engine's process pool
    (same seeds, same numbers, less wall-clock).  ``instance`` swaps the
    default ATC graph for any registered workload instance
    (``repro workloads list``); an explicit ``graph`` wins over both.
    """
    if graph is None:
        if instance is not None:
            from repro.workloads import build_instance

            graph = build_instance(instance, seed)
        else:
            graph = core_area_graph(seed=seed)
    specs = table1_methods(k=k, metaheuristic_budget=metaheuristic_budget)
    return run_suite(specs, graph, k, seed=seed, verbose=verbose, jobs=jobs)


def main(argv: list[str] | None = None) -> None:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=32)
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--budget", type=float, default=30.0,
                        help="seconds per metaheuristic")
    parser.add_argument("--instance", type=str, default=None,
                        help="registered workload instance to bench "
                             "instead of the ATC default "
                             "(see `repro workloads list`)")
    parser.add_argument("--json", type=str, default=None,
                        help="also dump results to this JSON file")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the suite (1 = in-process)")
    args = parser.parse_args(argv)
    results = run_table1(
        k=args.k, seed=args.seed, metaheuristic_budget=args.budget,
        verbose=True, jobs=args.jobs, instance=args.instance,
    )
    source = args.instance or "synthetic core area"
    print()
    print(format_table(
        results,
        title=f"Table 1 reproduction (k={args.k}, {source}, "
              f"seed={args.seed}; Cut divided by 1000)",
    ))
    if args.json:
        from repro import __version__

        payload = {
            # Schema + version stamp (repro-bench-perf/v1 convention) so
            # downstream consumers can detect format drift.
            "schema": "repro-bench-table1/v1",
            "version": __version__,
            "config": {"k": args.k, "seed": args.seed,
                       "budget": args.budget, "jobs": args.jobs,
                       "instance": args.instance},
            "results": [
                {
                    "label": r.label,
                    "cut": r.report.cut,
                    "ncut": r.report.ncut,
                    "mcut": r.report.mcut,
                    "num_parts": r.report.num_parts,
                    "seconds": r.seconds,
                }
                for r in results
            ],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)


if __name__ == "__main__":
    main()
