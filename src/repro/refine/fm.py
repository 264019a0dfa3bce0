"""Fiduccia–Mattheyses k-way refinement on the batched gain engine.

Single-vertex moves ordered by gain (max-heap with lazy invalidation — the
array-of-buckets of the original paper assumes integer gains; a heap gives
the same asymptotics for float weights).  One *pass*:

1. compute, for every boundary vertex, the best-gain admissible target part
   — **batched**: all boundary rows of the
   :class:`~repro.partition.GainTable` materialise in one CSR gather, and
   the admissibility masking / argmax runs over the whole ``(b, k)`` block;
2. repeatedly pop the best candidate, re-validate its gain against the
   table, apply the move (handing the table row to
   :meth:`~repro.partition.Partition.move` so the move skips its own
   aggregation), lock the vertex, and update its neighbours' rows and
   candidates — one fused batched block per move;
3. stop when no admissible candidate remains or after :data:`STALL_MOVES`
   moves without a new best cut (as METIS does), then roll back to the
   best prefix (possibly empty) of the move sequence.

The move sequence (heap contents, stamps, rollback prefix) is identical to
the per-vertex reference implementation
(:func:`repro.refine.reference.fm_refine_reference`): every gain-table row
read during the pass equals what a fresh ``neighbor_part_weights``
aggregation would produce, bit for bit.  Exactness is preserved by one of
two maintenance modes:

* **integral edge weights** (the common unweighted/integer case) — float64
  arithmetic on integers below 2^52 is exact, so a move's effect on its
  neighbours' rows is two fancy-indexed adds;
* **arbitrary float weights** — rows of the moved vertex's neighbours are
  *rebuilt* from their CSR slices (still one batched gather), because
  ``(a + b) - b`` may drift an ulp from ``a``.

Several layers keep the Python cost per step down: candidate generation
touches ``(b, k)`` NumPy blocks, never per-vertex tuples; the per-part
admissibility bits (over the ceiling / under the floor / singleton part)
are maintained incrementally — only the two parts a move touches can flip
— which powers an *epoch shortcut* (a popped heap entry provably unchanged
since its push revalidates to itself without recomputation; uniform vertex
weights only); and pop-time revalidation scans a table row in plain Python
for small ``k`` (IEEE-identical to the masked ``argmax``).

Balance is enforced with a vertex-weight ceiling per part and a floor that
prevents emptying parts — FM therefore preserves ``k`` (which is also what
lets one gain table live for a whole pass).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.partition.gains import GainTable
from repro.partition.moves import boundary_vertices
from repro.partition.partition import Partition

__all__ = ["fm_refine", "STALL_MOVES"]

#: A pass stops after this many moves without a new best cut.  Read at
#: call time here and by :func:`repro.refine.reference.fm_refine_reference`.
STALL_MOVES = 200

#: Above this part count the Python row scan loses to NumPy's argmax.
_SCALAR_SCAN_MAX_K = 96


def _best_target(
    partition: Partition,
    table: GainTable,
    v: int,
    max_weight: float,
    min_weight: float = 0.0,
) -> tuple[float, int] | None:
    """Best admissible (gain, target) for ``v``; None if no move allowed.

    Generic (any vertex weights) revalidation used by the non-uniform
    path; the uniform path inlines a shared-mask variant.
    """
    source = partition.part_of(v)
    if partition.size[source] <= 1:
        return None
    vw = float(partition.graph.vertex_weights[v])
    # Weight floor: never drain a part below min_weight (prevents the
    # pathological collapse of one part into its neighbours).
    if partition.vertex_weight[source] - vw < min_weight:
        return None
    w_parts = table.w_parts[v]
    gains = w_parts - w_parts[source]
    gains[source] = -np.inf
    # Disallow overweight targets.
    over = partition.vertex_weight + vw > max_weight
    gains[over] = -np.inf
    # Only consider parts v actually touches (moving elsewhere cannot beat
    # them on gain and usually disconnects the part).
    untouched = w_parts <= 0.0
    untouched[source] = True
    gains[untouched] = -np.inf
    target = int(np.argmax(gains))
    if not np.isfinite(gains[target]):
        return None
    return float(gains[target]), target


def _candidates_from_rows(
    partition: Partition,
    rows: np.ndarray,
    vertices: np.ndarray,
    max_weight: float,
    min_weight: float,
    over_bits: np.ndarray | None,
    blocked_bits: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best admissible (gain, target) per row — the batched gain kernel.

    ``rows[i]`` must equal ``neighbor_part_weights(vertices[i])``.  With
    ``over_bits``/``blocked_bits`` (uniform vertex weights) the shared
    per-part admissibility replaces the per-vertex broadcast.  Returns
    ``(gains, targets, valid)`` parallel to ``vertices``; same masking and
    first-max tie-breaking as the scalar :func:`_best_target`.
    """
    sources = partition.assignment[vertices]
    idx = np.arange(vertices.shape[0])
    gains = rows - rows[idx, sources][:, None]
    gains[idx, sources] = -np.inf
    if over_bits is not None:
        gains[:, over_bits] = -np.inf
        admissible = ~blocked_bits[sources]
    else:
        vw = partition.graph.vertex_weights[vertices]
        admissible = partition.size[sources] > 1
        admissible &= partition.vertex_weight[sources] - vw >= min_weight
        gains[partition.vertex_weight[None, :] + vw[:, None] > max_weight] = (
            -np.inf
        )
    untouched = rows <= 0.0
    untouched[idx, sources] = True
    gains[untouched] = -np.inf
    targets = np.argmax(gains, axis=1)
    best = gains[idx, targets]
    valid = admissible & np.isfinite(best)
    return best, targets, valid


def fm_refine(
    partition: Partition,
    max_passes: int = 8,
    balance_tolerance: float = 0.10,
) -> float:
    """Run FM passes until no pass improves or ``max_passes`` is reached.

    A pass ends when no admissible move remains or after
    :data:`STALL_MOVES` moves without a new best cut, then keeps its best
    prefix (not bit-identical to full passes; see ``docs/performance.md``).

    Parameters
    ----------
    partition:
        Refined **in place**; ``k`` is preserved.
    max_passes:
        Maximum number of passes.
    balance_tolerance:
        Per-part vertex-weight ceiling ``(1 + tol) * ideal``; moves that
        would exceed it are inadmissible.  The ceiling never drops below
        the current maximum part weight, so refinement of an already
        imbalanced partition is not dead-locked.

    Returns
    -------
    float
        Total reduction in (once-counted) edge cut across all passes, >= 0.
    """
    total_improvement = 0.0
    graph = partition.graph
    n = graph.num_vertices
    k = partition.num_parts
    ideal = float(partition.vertex_weight.sum()) / k
    max_weight = max(
        (1.0 + balance_tolerance) * ideal,
        float(partition.vertex_weight.max()),
    )
    # Floor: parts may not drop below (1 - 2*tol) of ideal, relaxed to the
    # current minimum so pre-imbalanced inputs are not dead-locked.
    min_weight = min(
        max(0.0, (1.0 - 2.0 * balance_tolerance) * ideal),
        float(partition.vertex_weight.min()),
    )

    vweights = graph.vertex_weights
    uniform_vw = bool(np.all(vweights == vweights[0]))
    vw0 = float(vweights[0]) if uniform_vw else 0.0
    scalar_scan = uniform_vw and k <= _SCALAR_SCAN_MAX_K
    integral = graph.has_integral_weights()
    heappush, heappop = heapq.heappush, heapq.heappop
    part_weight = partition.vertex_weight
    part_size = partition.size
    part_cut = partition.cut

    for _ in range(max_passes):
        locked_np = np.zeros(n, dtype=bool)
        locked = bytearray(n)  # Python mirror: O(40ns) pop-loop reads
        assign_list = partition.assignment.tolist()
        heap: list[tuple[float, int, int, int, int]] = []
        stamp = 0
        epoch = 0
        touched = [0] * n  # last epoch a neighbour of v moved
        masks_epoch = 0  # last epoch a shared admissibility bit flipped
        boundary = boundary_vertices(partition)
        table = GainTable(partition)
        w_parts_table = table.w_parts
        materialized = table.materialized
        if uniform_vw:
            # Shared per-part admissibility (vertex-independent because
            # every vertex weighs the same): maintained incrementally —
            # only the two parts of each applied move can flip a bit.
            over_bits = part_weight + vw0 > max_weight
            blocked_bits = (part_weight - vw0 < min_weight) | (part_size <= 1)
            over_list = over_bits.tolist()
            blocked_list = blocked_bits.tolist()
        else:
            over_bits = blocked_bits = None
        if boundary.size:
            table.refresh(boundary)
            gains0, targets0, valid0 = _candidates_from_rows(
                partition, w_parts_table[boundary], boundary,
                max_weight, min_weight, over_bits, blocked_bits,
            )
            for b_v, b_g, b_t, b_ok in zip(
                boundary.tolist(), gains0.tolist(), targets0.tolist(),
                valid0.tolist(),
            ):
                if b_ok:
                    heappush(heap, (-b_g, stamp, b_v, b_t, 0))
                    stamp += 1

        moves: list[tuple[int, int, int]] = []  # (vertex, from, to)
        cut_before = partition.edge_cut()
        best_cut = cut_before
        best_prefix = 0

        while heap:
            neg_gain, _, v, target, pushed_at = heappop(heap)
            if locked[v]:
                continue
            if (
                uniform_vw
                and touched[v] <= pushed_at
                and masks_epoch <= pushed_at
            ):
                # Epoch shortcut: nothing the candidate depends on changed
                # since the push, so revalidation would reproduce it
                # exactly — skip it.
                gain = -neg_gain
            else:
                if scalar_scan:
                    # Python scan of one table row: IEEE-identical to the
                    # masked argmax, ~10 NumPy dispatches cheaper.
                    source = assign_list[v]
                    if blocked_list[source]:
                        continue
                    row = w_parts_table[v].tolist()
                    w_s = row[source]
                    gain = -np.inf
                    fresh_target = -1
                    for t in range(k):
                        w_t = row[t]
                        if w_t <= 0.0 or t == source or over_list[t]:
                            continue
                        g_t = w_t - w_s
                        if g_t > gain:
                            gain = g_t
                            fresh_target = t
                    if fresh_target < 0:
                        continue
                else:
                    cand = _best_target(
                        partition, table, v, max_weight, min_weight
                    )
                    if cand is None:
                        continue
                    gain, fresh_target = cand
                if fresh_target != target or abs(gain + neg_gain) > 1e-9:
                    # Stale entry: re-push with the current best and retry.
                    heappush(heap, (-gain, stamp, v, fresh_target, epoch))
                    stamp += 1
                    continue
            source = assign_list[v]
            partition.move(
                v, target, allow_empty_source=False,
                w_parts=w_parts_table[v],
            )
            epoch += 1
            locked[v] = 1
            locked_np[v] = True
            assign_list[v] = target
            moves.append((v, source, target))
            current_cut = float(part_cut.sum()) * 0.5
            if current_cut < best_cut - 1e-12:
                best_cut = current_cut
                best_prefix = len(moves)
            if len(moves) - best_prefix >= STALL_MOVES:
                break
            nbrs, wts_v = graph.neighbors(v)
            nbrs_list = nbrs.tolist()
            for x in nbrs_list:
                touched[x] = epoch
            if uniform_vw:
                for p in (source, target):
                    w_p = part_weight[p]
                    over_p = bool(w_p + vw0 > max_weight)
                    blocked_p = bool(
                        w_p - vw0 < min_weight or part_size[p] <= 1
                    )
                    if over_p != over_list[p] or blocked_p != blocked_list[p]:
                        masks_epoch = epoch
                        over_list[p] = over_p
                        blocked_list[p] = blocked_p
                        over_bits[p] = over_p
                        blocked_bits[p] = blocked_p
            # Update the moved vertex's neighbourhood rows and refresh
            # their candidates as one fused batched block.
            sel = ~locked_np[nbrs]
            fresh = nbrs[sel]
            if fresh.size:
                if integral:
                    # Exact two-op delta: integer-valued float64 adds
                    # cannot drift.  Rows never seen before still need a
                    # full build.
                    known = materialized[fresh]
                    if not known.all():
                        table.refresh(fresh[~known])
                    have = fresh[known]
                    w_have = wts_v[sel][known]
                    w_parts_table[have, source] -= w_have
                    w_parts_table[have, target] += w_have
                else:
                    # Float weights: rebuild the touched rows from their
                    # CSR slices so each equals a fresh aggregation.
                    table.refresh(fresh)
                if scalar_scan and fresh.size * k <= 256:
                    # Small block: the same row scan as pop-time
                    # revalidation beats ~15 NumPy dispatches.
                    for b_v in fresh.tolist():
                        b_s = assign_list[b_v]
                        if blocked_list[b_s]:
                            continue
                        row = w_parts_table[b_v].tolist()
                        w_s = row[b_s]
                        b_g = -np.inf
                        b_t = -1
                        for t in range(k):
                            w_t = row[t]
                            if w_t <= 0.0 or t == b_s or over_list[t]:
                                continue
                            g_t = w_t - w_s
                            if g_t > b_g:
                                b_g = g_t
                                b_t = t
                        if b_t >= 0:
                            heappush(heap, (-b_g, stamp, b_v, b_t, epoch))
                            stamp += 1
                else:
                    gains_n, targets_n, valid_n = _candidates_from_rows(
                        partition, w_parts_table[fresh], fresh,
                        max_weight, min_weight, over_bits, blocked_bits,
                    )
                    for b_v, b_g, b_t, b_ok in zip(
                        fresh.tolist(), gains_n.tolist(), targets_n.tolist(),
                        valid_n.tolist(),
                    ):
                        if b_ok:
                            heappush(heap, (-b_g, stamp, b_v, b_t, epoch))
                            stamp += 1

        # Roll back moves after the best prefix (the table is stale after
        # this, but each pass builds a fresh one).
        for v, source, _target in reversed(moves[best_prefix:]):
            partition.move(v, source, allow_empty_source=False)
        pass_improvement = cut_before - partition.edge_cut()
        total_improvement += pass_improvement
        if pass_improvement <= 1e-12:
            break
    return float(total_improvement)
