"""Rebuild ``digests.json``: one digest per request the workloads can issue.

Usage (from the repository root)::

    python3 perfbench/freeze.py

Every digest comes from a direct, uninterrupted, in-process solve of the
request (portfolio grids run with ``jobs=1``), so the checks also hold
the service's sliced jobs and the engine's pool runs to their
uninterrupted, serial results.  Takes a few minutes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.api import SolveRequest, get_solver
    from repro.engine import PartitionProblem, PortfolioRunner
    from repro.workloads import build_instance

    import batch
    import service_mix
    from checks import DIGESTS_PATH, digest, request_key

    graphs: dict = {}

    def graph(name):
        if name not in graphs:
            graphs[name] = build_instance(name)
        return graphs[name]

    def solve(method, instance, k, seed, max_iterations=None):
        session = get_solver(method, k).start(
            SolveRequest(graph=graph(instance), k=k, seed=seed)
        )
        report = session.run(max_iterations=max_iterations)
        return digest(report.assignment)

    digests = {}
    start = time.perf_counter()
    for seed in batch.FF_SEEDS:
        digests[request_key("fusion-fission", "atc-core", 32, seed)] = solve(
            "fusion-fission", "atc-core", 32, seed)
    for name in batch.ML_INSTANCES:
        for seed in batch.ML_SEEDS:
            digests[request_key("multilevel", name, 8, seed)] = solve(
                "multilevel", name, 8, seed)
    problem = PartitionProblem(graph=graph(batch.PF_INSTANCE), k=8,
                               name=batch.PF_INSTANCE)
    result = PortfolioRunner(
        batch.portfolio_specs(), num_seeds=batch.PF_SEEDS, jobs=1,
        seed=batch.PF_RUNNER_SEED,
    ).run(problem)
    for r in result.records:
        digests[batch.portfolio_key(r.label, batch.PF_RUNNER_SEED,
                                    r.seed_index)] = digest(r.assignment)
    for spec in service_mix.KINDS.values():
        for seed in range(spec["pool"]):
            key = request_key(spec["method"], spec["instance"], spec["k"],
                              seed, spec["max_iterations"])
            digests[key] = solve(spec["method"], spec["instance"], spec["k"],
                                 seed, spec["max_iterations"])
    DIGESTS_PATH.write_text(json.dumps({
        "about": "assignment digests of direct uninterrupted solves; "
                 "rebuild with python3 perfbench/freeze.py",
        "digests": dict(sorted(digests.items())),
    }, indent=1) + "\n")
    print(f"froze {len(digests)} digests in "
          f"{time.perf_counter() - start:.0f}s -> {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
