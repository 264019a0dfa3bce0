"""Hot-path microbenchmarks: the tracked perf-regression harness.

Each record times an optimized kernel and, where a frozen reference
implementation exists (:mod:`repro.refine.reference`), the
pre-vectorization baseline too — the resulting ``speedup`` is the number
this and every future PR is held to.
Results are verified (``matches_reference``) before they are timed, so a
fast-but-wrong kernel fails the harness instead of flattering it.

Benchmarks
----------
* ``fm_pass``         — a pass under the 200-move stall rule, which the
  reference applies too, vs the per-vertex reference.  Its input is
  what a multilevel solve's finest-level FM receives: a multilevel
  partition of the graph one coarsening level up, refined at every
  level there, projected down one level.  The optimized pass
  must replay the reference's exact move sequence, so its speedup is
  bounded by the Python heap loop both share.
* ``fm_gain_engine``  — the batched boundary-candidate kernel alone
  (table build + masked argmax for every boundary vertex) vs the
  per-vertex scan.  This is the raw gain-engine speedup.
* ``coarsen_level``   — heavy-edge matching + contraction of one
  multilevel level (no reference; absolute throughput).
* ``ff_step``         — fusion–fission main-loop steps/second on a
  community graph, stepping a default ``FusionFissionPartitioner``
  session's stepper: the configuration a solve runs (no reference;
  absolute throughput).
* ``ff_initialize``   — Algorithm-2 molecule initialisation with the
  vectorized matched-prelude cascade vs the exact O(n²)-ish law loop
  (the hot spot PR 4 left behind).  Verification checks both cascades
  reach the target atom count; the partitions differ by design.
* ``islands_1/2/4``   — island-model simulated annealing throughput at
  1, 2 and 4 islands over a fixed round budget; ``islands_1`` verifies
  bit-identity against the plain sequential session.

Run ``repro bench perf [--quick] [--json OUT]`` or
``python -m repro.bench.perf``.  ``BENCH_PR4.json`` at the repo root is
the committed trajectory snapshot for PR 4; ``BENCH_PR7.json`` adds the
island rows (and two graph-transport rows this suite no longer runs).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.graph.graph import Graph
from repro.graph.generators import random_geometric_graph, weighted_caveman_graph

__all__ = ["PerfRecord", "run_perf_suite", "format_perf_table", "main"]

SCHEMA = "repro-bench-perf/v1"


@dataclass
class PerfRecord:
    """One microbenchmark result row."""

    name: str
    n: int
    m: int
    k: int
    reps: int
    seconds: float
    ops_per_second: float
    unit: str
    reference_seconds: float | None = None
    speedup: float | None = None
    matches_reference: bool | None = None
    notes: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


def _best_of(fn, reps: int) -> float:
    """Best (minimum) wall-clock of ``reps`` calls to ``fn``."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _unit_geometric(n: int, seed: int) -> Graph:
    """Unit-weight geometric graph, average degree ~10 at any ``n``."""
    radius = float(np.sqrt(10.0 / (np.pi * n)))
    g, _ = random_geometric_graph(n, radius, seed=seed)
    u, v, _ = g.edge_arrays()
    return Graph.from_arrays(n, u, v)


def _noisy_strips(n: int, k: int, seed: int) -> np.ndarray:
    """Contiguous k-strip assignment with seeded random noise."""
    a = (np.arange(n) * k // n).astype(np.int64)
    rng = np.random.default_rng(seed)
    noise = rng.choice(n, max(k, n // 32), replace=False)
    a[noise] = rng.integers(0, k, noise.shape[0])
    a[:k] = np.arange(k)  # keep ids compact
    return a


def _bench_fm_pass(graph: Graph, k, reps) -> PerfRecord:
    from repro.multilevel.coarsening import coarsen_once
    from repro.multilevel.partitioner import MultilevelPartitioner
    from repro.partition.partition import Partition
    from repro.refine.fm import STALL_MOVES, fm_refine
    from repro.refine.reference import fm_refine_reference

    coarse, coarse_map = coarsen_once(graph, seed=0)
    assignment = MultilevelPartitioner(k).partition(
        coarse, seed=0
    ).assignment[coarse_map]
    p_opt = Partition(graph, assignment.copy())
    p_ref = Partition(graph, assignment.copy())
    fm_refine(p_opt, max_passes=1)
    fm_refine_reference(p_ref, max_passes=1)
    matches = bool(np.array_equal(p_opt.assignment, p_ref.assignment))

    sec = _best_of(
        lambda: fm_refine(Partition(graph, assignment.copy()), max_passes=1),
        reps,
    )
    ref = _best_of(
        lambda: fm_refine_reference(
            Partition(graph, assignment.copy()), max_passes=1
        ),
        reps,
    )
    return PerfRecord(
        name="fm_pass",
        n=graph.num_vertices, m=graph.num_edges, k=k, reps=reps,
        seconds=sec, ops_per_second=graph.num_vertices / sec,
        unit="vertices/s",
        reference_seconds=ref, speedup=ref / sec,
        matches_reference=matches,
        notes=(f"a pass under the {STALL_MOVES}-move stall rule, "
               "which the reference applies too, on what a solve's "
               "finest-level FM receives: a multilevel partition one "
               "coarsening level up, projected down"),
    )


def _bench_fm_gain_engine(graph: Graph, assignment, k, reps) -> PerfRecord:
    from repro.partition.gains import GainTable
    from repro.partition.moves import boundary_vertices
    from repro.partition.partition import Partition
    from repro.refine.fm import _candidates_from_rows
    from repro.refine.reference import _best_target as ref_best_target

    partition = Partition(graph, assignment.copy())
    boundary = boundary_vertices(partition)
    ideal = float(partition.vertex_weight.sum()) / k
    max_weight = max(1.10 * ideal, float(partition.vertex_weight.max()))
    min_weight = min(max(0.0, 0.80 * ideal),
                     float(partition.vertex_weight.min()))

    def optimized():
        table = GainTable(partition)
        table.refresh(boundary)
        return _candidates_from_rows(
            partition, table.w_parts[boundary], boundary,
            max_weight, min_weight, None, None,
        )

    def reference():
        return [
            ref_best_target(partition, int(v), max_weight, min_weight)
            for v in boundary
        ]

    gains, targets, valid = optimized()
    ref_cands = reference()
    matches = True
    for i, cand in enumerate(ref_cands):
        if cand is None:
            matches &= not bool(valid[i])
        else:
            matches &= bool(valid[i]) and cand == (
                float(gains[i]), int(targets[i])
            )

    sec = _best_of(optimized, reps)
    ref = _best_of(reference, reps)
    return PerfRecord(
        name="fm_gain_engine",
        n=graph.num_vertices, m=graph.num_edges, k=k, reps=reps,
        seconds=sec, ops_per_second=boundary.shape[0] / sec,
        unit="candidates/s",
        reference_seconds=ref, speedup=ref / sec,
        matches_reference=bool(matches),
        notes=f"batched best-target for {boundary.shape[0]} boundary vertices",
    )


def _bench_coarsen_level(graph: Graph, reps) -> PerfRecord:
    from repro.graph.coarsen import contract_graph
    from repro.multilevel.matching import heavy_edge_matching

    def level():
        mate = heavy_edge_matching(graph, seed=0)
        coarse_map = np.full(graph.num_vertices, -1, dtype=np.int64)
        next_id = 0
        order = np.arange(graph.num_vertices)
        for v in order:
            if coarse_map[v] < 0:
                coarse_map[v] = next_id
                coarse_map[mate[v]] = next_id
                next_id += 1
        contract_graph(graph, coarse_map)

    sec = _best_of(level, reps)
    return PerfRecord(
        name="coarsen_level",
        n=graph.num_vertices, m=graph.num_edges, k=0, reps=reps,
        seconds=sec, ops_per_second=graph.num_vertices / sec,
        unit="vertices/s",
        notes="heavy-edge matching + contraction of one level",
    )


def _bench_ff_step(n: int, k: int, reps) -> PerfRecord:
    from repro.api.request import SolveRequest
    from repro.fusionfission.partitioner import FusionFissionPartitioner

    cave = 32
    caves = max(2, min(n, 1536) // cave)
    graph = weighted_caveman_graph(caves, cave)
    steps = 200

    def run():
        ff = FusionFissionPartitioner(k, max_steps=steps).start(
            SolveRequest(graph=graph, k=k, seed=0)
        ).stepper
        while ff.step():
            pass

    sec = _best_of(run, reps)
    return PerfRecord(
        name="ff_step",
        n=graph.num_vertices, m=graph.num_edges, k=k, reps=reps,
        seconds=sec, ops_per_second=steps / sec,
        unit="steps/s",
        notes=f"{steps} fusion-fission main-loop steps of a default "
              "solver's session stepper (incl. session start and init)",
    )


def _bench_ff_initialize(graph: Graph, k: int, reps) -> PerfRecord:
    from repro.fusionfission.core import initialize_molecule
    from repro.fusionfission.energy import ScaledEnergy
    from repro.fusionfission.laws import LawTable

    n = graph.num_vertices

    def run(cascade: str):
        energy = ScaledEnergy(n, k, objective="mcut")
        laws = LawTable(n)
        return initialize_molecule(
            graph, k, laws, energy, seed=0, cascade=cascade
        )

    p_fast = run("matched")
    p_ref = run("law")
    matches = bool(p_fast.num_parts == k and p_ref.num_parts == k)

    sec = _best_of(lambda: run("matched"), reps)
    ref = _best_of(lambda: run("law"), reps)
    return PerfRecord(
        name="ff_initialize",
        n=n, m=graph.num_edges, k=k, reps=reps,
        seconds=sec, ops_per_second=n / sec,
        unit="vertices/s",
        reference_seconds=ref, speedup=ref / sec,
        matches_reference=matches,
        notes="Algorithm-2 cascade: matched prelude vs exact law loop "
              "(check = both reach the target k; partitions differ by design)",
    )


def _bench_island_scaling(n: int, reps: int) -> list[PerfRecord]:
    from repro.annealing.sa import SimulatedAnnealingPartitioner
    from repro.api.request import Budget, SolveRequest

    cave = 32
    caves = max(2, min(n, 4096) // cave)
    graph = weighted_caveman_graph(caves, cave)
    k = 8
    rounds, interval = 20, 5

    def session_for(islands: int):
        solver = SimulatedAnnealingPartitioner(k=k)
        session = solver.start(SolveRequest(
            graph=graph, k=k, seed=11,
            budget=Budget(max_iterations=rounds),
            islands=islands, migration_interval=interval,
        ))
        session.run()
        return session

    # Bit-identity anchor: islands=1 must equal the plain sequential
    # session (same seed, no island plumbing at all).
    plain = SimulatedAnnealingPartitioner(k=k).start(SolveRequest(
        graph=graph, k=k, seed=11, budget=Budget(max_iterations=rounds),
    ))
    plain.run()
    one = session_for(1)
    identical = bool(
        one.partition is not None and plain.partition is not None
        and np.array_equal(
            one.partition.assignment, plain.partition.assignment
        )
    )

    records = []
    for islands in (1, 2, 4):
        sec = _best_of(lambda: session_for(islands), reps)
        # islands>1 advance `interval` child iterations per island per
        # round, so throughput is measured in child iterations.
        child_iters = rounds * (islands * interval if islands > 1 else 1)
        records.append(PerfRecord(
            name=f"islands_{islands}",
            n=graph.num_vertices, m=graph.num_edges, k=k, reps=reps,
            seconds=sec, ops_per_second=child_iters / sec,
            unit="island-iters/s",
            matches_reference=identical if islands == 1 else None,
            notes=(
                "identical to the plain sequential session"
                if islands == 1 else
                f"{islands} seed-lineage islands, ring migration every "
                f"{interval} iterations"
            ),
        ))
    return records


def effective_params(n: int, reps: int, quick: bool) -> tuple[int, int]:
    """The (n, reps) actually used — quick mode clamps both."""
    if quick:
        return min(n, 2000), min(reps, 2)
    return n, reps


def run_perf_suite(
    n: int = 20000,
    k: int = 16,
    reps: int = 3,
    seed: int = 1,
    quick: bool = False,
) -> list[PerfRecord]:
    """Run every microbenchmark; returns the records in run order."""
    n, reps = effective_params(n, reps, quick)
    graph = _unit_geometric(n, seed)
    records = [
        _bench_fm_pass(graph, k, reps),
        _bench_fm_gain_engine(
            graph, _noisy_strips(graph.num_vertices, k, seed=0), k, reps
        ),
        _bench_coarsen_level(graph, reps),
        _bench_ff_step(n, k, reps),
        _bench_ff_initialize(graph, k, reps),
        *_bench_island_scaling(n, reps),
    ]
    return records


def format_perf_table(records: list[PerfRecord]) -> str:
    """Human-readable table of the perf records."""
    header = (
        f"{'Benchmark':<24} {'n':>7} {'ops/s':>12} {'opt [s]':>10} "
        f"{'ref [s]':>10} {'speedup':>8} {'ok':>4}"
    )
    lines = [header, "-" * len(header)]
    for r in records:
        ref = f"{r.reference_seconds:.4f}" if r.reference_seconds else "-"
        spd = f"{r.speedup:.1f}x" if r.speedup else "-"
        ok = {True: "yes", False: "NO", None: "-"}[r.matches_reference]
        lines.append(
            f"{r.name:<24} {r.n:>7} {r.ops_per_second:>12.0f} "
            f"{r.seconds:>10.4f} {ref:>10} {spd:>8} {ok:>4}"
        )
    return "\n".join(lines)


def perf_report(records: list[PerfRecord], config: dict) -> dict:
    """JSON-serialisable report (the ``BENCH_*.json`` schema)."""
    from repro import __version__

    return {
        "schema": SCHEMA,
        "version": __version__,
        "config": config,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": [r.as_dict() for r in records],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench perf",
        description="hot-path microbenchmarks with reference baselines",
    )
    parser.add_argument("--n", type=int, default=20000,
                        help="instance size (default 20000)")
    parser.add_argument("--k", type=int, default=16, help="part count")
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions; best is kept")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="tiny instance for CI smoke (n<=2000)")
    parser.add_argument("--json", default=None,
                        help="write the JSON report to this file")
    args = parser.parse_args(argv)

    records = run_perf_suite(
        n=args.n, k=args.k, reps=args.reps, seed=args.seed, quick=args.quick
    )
    n_used, reps_used = effective_params(args.n, args.reps, args.quick)
    config = {
        "n": n_used, "k": args.k, "reps": reps_used, "seed": args.seed,
        "quick": args.quick,
    }
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(
            json.dumps(perf_report(records, config), indent=1) + "\n"
        )
    print(format_perf_table(records))
    bad = [r.name for r in records if r.matches_reference is False]
    if bad:
        print(f"error: kernels diverged from reference: {', '.join(bad)}",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
