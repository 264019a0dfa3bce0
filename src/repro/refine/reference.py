"""The pre-vectorization FM pass, kept verbatim as a reference.

``fm_refine_reference`` is the per-vertex-Python implementation that
:func:`repro.refine.fm.fm_refine` replaced.  It exists for

* **equivalence tests** — the gain-table FM must pick the exact same move
  sequence (same heap contents, same stamps, same rollback prefix) on
  seeded graphs;
* **the perf-regression harness** — ``repro bench perf`` reports the
  FM-pass speedup of optimized over reference.

Semantics are frozen, but for the shared stall rule
(:data:`repro.refine.fm.STALL_MOVES`); fix bugs in :mod:`repro.refine.fm`.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.partition.moves import boundary_vertices
from repro.partition.partition import Partition
from repro.refine import fm

__all__ = ["fm_refine_reference"]


def _best_target(
    partition: Partition,
    v: int,
    max_weight: float,
    min_weight: float = 0.0,
) -> tuple[float, int] | None:
    """Best admissible (gain, target) for ``v``; None if no move allowed."""
    source = partition.part_of(v)
    if partition.size[source] <= 1:
        return None
    vw = float(partition.graph.vertex_weights[v])
    if partition.vertex_weight[source] - vw < min_weight:
        return None
    w_parts = partition.neighbor_part_weights(v)
    gains = w_parts - w_parts[source]
    gains[source] = -np.inf
    over = partition.vertex_weight + vw > max_weight
    gains[over] = -np.inf
    untouched = w_parts <= 0.0
    untouched[source] = True
    gains[untouched] = -np.inf
    target = int(np.argmax(gains))
    if not np.isfinite(gains[target]):
        return None
    return float(gains[target]), target


def fm_refine_reference(
    partition: Partition,
    max_passes: int = 8,
    balance_tolerance: float = 0.10,
) -> float:
    """Per-vertex-Python FM passes (see :func:`repro.refine.fm.fm_refine`)."""
    total_improvement = 0.0
    n = partition.graph.num_vertices
    ideal = float(partition.vertex_weight.sum()) / partition.num_parts
    max_weight = max(
        (1.0 + balance_tolerance) * ideal,
        float(partition.vertex_weight.max()),
    )
    min_weight = min(
        max(0.0, (1.0 - 2.0 * balance_tolerance) * ideal),
        float(partition.vertex_weight.min()),
    )

    for _ in range(max_passes):
        locked = np.zeros(n, dtype=bool)
        heap: list[tuple[float, int, int, int]] = []
        stamp = 0
        for v in boundary_vertices(partition):
            cand = _best_target(partition, int(v), max_weight, min_weight)
            if cand is not None:
                gain, target = cand
                heapq.heappush(heap, (-gain, stamp, int(v), target))
                stamp += 1

        moves: list[tuple[int, int, int]] = []  # (vertex, from, to)
        cut_before = partition.edge_cut()
        best_cut = cut_before
        best_prefix = 0

        while heap:
            neg_gain, _, v, target = heapq.heappop(heap)
            if locked[v]:
                continue
            cand = _best_target(partition, v, max_weight, min_weight)
            if cand is None:
                continue
            gain, fresh_target = cand
            if fresh_target != target or abs(gain + neg_gain) > 1e-9:
                heapq.heappush(heap, (-gain, stamp, v, fresh_target))
                stamp += 1
                continue
            source = partition.part_of(v)
            partition.move(v, target, allow_empty_source=False)
            locked[v] = True
            moves.append((v, source, target))
            current_cut = partition.edge_cut()
            if current_cut < best_cut - 1e-12:
                best_cut = current_cut
                best_prefix = len(moves)
            if len(moves) - best_prefix >= fm.STALL_MOVES:
                break
            nbrs = partition.graph.neighbor_ids(v)
            for x in nbrs:
                x = int(x)
                if locked[x]:
                    continue
                cand_x = _best_target(partition, x, max_weight, min_weight)
                if cand_x is not None:
                    gx, tx = cand_x
                    heapq.heappush(heap, (-gx, stamp, x, tx))
                    stamp += 1

        for v, source, _target in reversed(moves[best_prefix:]):
            partition.move(v, source, allow_empty_source=False)
        pass_improvement = cut_before - partition.edge_cut()
        total_improvement += pass_improvement
        if pass_improvement <= 1e-12:
            break
    return float(total_improvement)
