#!/usr/bin/env python3
"""Portfolio engine demo: race solver families on the European airspace.

Builds the synthetic "country core area" instance (762 sectors, 3 165
flow edges) and fans it out across (method × seed) combinations on a
process pool — the paper's Table-1 race, run as a single portfolio.  The
engine keeps the best partition on the raw Mcut criterion and reports
per-method statistics, so you can see in one table both *which* family
wins and *how variable* each family is across seeds.

Run:  python examples/portfolio_atc.py [--k 32] [--seeds 4] [--jobs 4]
"""

import argparse

from repro.atc import core_area_graph
from repro.engine import PartitionProblem, PortfolioRunner, SolverSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=32, help="number of blocks")
    parser.add_argument("--seeds", type=int, default=4, help="seeds per method")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: CPU count)")
    parser.add_argument("--budget", type=float, default=10.0,
                        help="per-run seconds for the metaheuristics")
    parser.add_argument("--methods",
                        default="fusion-fission,annealing,multilevel,spectral",
                        help="comma-separated method names/aliases")
    parser.add_argument("--seed", type=int, default=2006)
    args = parser.parse_args()

    graph = core_area_graph(seed=args.seed)
    problem = PartitionProblem(
        graph, k=args.k, objective="mcut", name="european-core-area"
    )
    specs = [
        SolverSpec.for_method(name, time_budget=args.budget)
        for name in args.methods.split(",")
        if name.strip()
    ]
    print(
        f"portfolio: {len(specs)} methods x {args.seeds} seeds on "
        f"{graph.num_vertices} sectors / {graph.num_edges} flow edges "
        f"(k={args.k})\n"
    )
    runner = PortfolioRunner(
        specs, num_seeds=args.seeds, jobs=args.jobs, seed=args.seed
    )
    result = runner.run(problem)
    print(result.format_stats_table())

    best = result.best
    if best is None:
        raise SystemExit("every portfolio run failed")
    report = best.report
    print(
        f"\nwinner: {best.label} (seed #{best.seed_index}) — "
        f"Cut={report.cut:.0f} Ncut={report.ncut:.2f} Mcut={report.mcut:.2f}, "
        f"{report.num_connected_parts}/{report.num_parts} blocks connected, "
        f"imbalance {report.imbalance:.2f}"
    )


if __name__ == "__main__":
    main()
