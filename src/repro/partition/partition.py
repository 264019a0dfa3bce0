"""Incrementally-maintained k-way partition state.

This is the data structure every algorithm in the repository manipulates.
Part ids are kept **compact** (``0..k-1``) at all times; operations that
remove a part (merge, emptying moves) relabel the last part into the hole,
so arrays never grow sparse.  The fusion–fission metaheuristic relies on the
part count being dynamic (paper §4: "the number of partitions changes over
time"), so ``k`` here is a property of the current state, not a constant.

Maintained per part ``A``:

* ``size[A]``      — vertex count,
* ``vertex_weight[A]`` — sum of vertex weights (balance bookkeeping),
* ``internal[A]``  — ``W(A)``: total weight of edges with both ends in ``A``,
* ``cut[A]``       — ``cut(A, V-A)``: total weight of edges leaving ``A``.

Invariants (checked by :meth:`Partition.check`, exercised by the
hypothesis suite):

* ``sum(internal) + sum(cut)/2 == total edge weight``
* ``cut[A] + 2*internal[A] == sum of degrees of A's vertices``
* all parts non-empty, ids compact.
"""

from __future__ import annotations

import numpy as np

from repro.common.exceptions import PartitionError
from repro.graph.graph import Graph

__all__ = ["Partition"]


class Partition:
    """A k-way partition of a :class:`~repro.graph.Graph` with O(deg) moves.

    Parameters
    ----------
    graph:
        The partitioned graph (held by reference, never copied).
    assignment:
        ``(n,)`` int array of part ids.  Ids must be compact ``0..k-1``
        with every part non-empty.

    Examples
    --------
    >>> from repro.graph import grid_graph
    >>> g = grid_graph(2, 4)
    >>> p = Partition(g, [0, 0, 1, 1, 0, 0, 1, 1])
    >>> p.num_parts
    2
    >>> p.edge_cut()
    2.0
    """

    __slots__ = (
        "graph",
        "assignment",
        "size",
        "vertex_weight",
        "internal",
        "cut",
        "_num_parts",
    )

    def __init__(self, graph: Graph, assignment) -> None:
        self.graph = graph
        assignment = np.asarray(assignment, dtype=np.int64).copy()
        n = graph.num_vertices
        if assignment.shape != (n,):
            raise PartitionError(
                f"assignment must have shape ({n},), got {assignment.shape}"
            )
        if n == 0:
            raise PartitionError("cannot partition the empty graph")
        if assignment.min() < 0:
            raise PartitionError("part ids must be non-negative")
        k = int(assignment.max()) + 1
        counts = np.bincount(assignment, minlength=k)
        if (counts == 0).any():
            missing = int(np.flatnonzero(counts == 0)[0])
            raise PartitionError(
                f"part ids must be compact 0..k-1: part {missing} is empty"
            )
        self.assignment = assignment
        self._num_parts = k
        self._recompute()

    # ------------------------------------------------------------------
    # Bulk (re)computation — O(n + m), used only at construction
    # ------------------------------------------------------------------
    def _recompute(self) -> None:
        g = self.graph
        k = self._num_parts
        a = self.assignment
        self.size = np.bincount(a, minlength=k).astype(np.int64)
        self.vertex_weight = np.bincount(
            a, weights=g.vertex_weights, minlength=k
        ).astype(np.float64)
        owner = g.arc_owners()
        same = a[owner] == a[g.indices]
        # Internal edges appear twice in the directed arc list -> w/2 each.
        self.internal = np.bincount(
            a[owner[same]], weights=g.weights[same] * 0.5, minlength=k
        ).astype(np.float64)
        self.cut = np.bincount(
            a[owner[~same]], weights=g.weights[~same], minlength=k
        ).astype(np.float64)

    # ------------------------------------------------------------------
    # Simple accessors
    # ------------------------------------------------------------------
    @property
    def num_parts(self) -> int:
        """Current number of parts ``k``."""
        return self._num_parts

    def part_of(self, v: int) -> int:
        """Part id of vertex ``v``."""
        return int(self.assignment[v])

    def members(self, part: int) -> np.ndarray:
        """Sorted vertex ids of ``part`` (O(n) scan)."""
        self._check_part(part)
        return np.flatnonzero(self.assignment == part)

    def edge_cut(self) -> float:
        """Total weight of cut edges, each counted **once**."""
        return float(self.cut.sum()) * 0.5

    def assoc(self, part: int | None = None):
        """``assoc(A, V) = cut(A, V-A) + W(A)`` (paper §1).

        ``part=None`` returns the full ``(k,)`` vector.
        """
        if part is None:
            return self.cut + self.internal
        self._check_part(part)
        return float(self.cut[part] + self.internal[part])

    def copy(self) -> "Partition":
        """Deep copy (shares the graph, copies all state arrays)."""
        clone = object.__new__(Partition)
        clone.graph = self.graph
        clone.assignment = self.assignment.copy()
        clone.size = self.size.copy()
        clone.vertex_weight = self.vertex_weight.copy()
        clone.internal = self.internal.copy()
        clone.cut = self.cut.copy()
        clone._num_parts = self._num_parts
        return clone

    def _check_part(self, part: int) -> None:
        if not (0 <= part < self._num_parts):
            raise PartitionError(
                f"part {part} out of range (k={self._num_parts})"
            )

    # ------------------------------------------------------------------
    # Neighbour aggregation — the O(deg) primitive everything uses
    # ------------------------------------------------------------------
    def neighbor_part_weights(self, v: int) -> np.ndarray:
        """``(k,)`` array: total edge weight from ``v`` into each part."""
        nbrs, wts = self.graph.neighbors(v)
        return np.bincount(
            self.assignment[nbrs], weights=wts, minlength=self._num_parts
        )

    # ------------------------------------------------------------------
    # Vertex move — O(deg(v))
    # ------------------------------------------------------------------
    def move(
        self,
        v: int,
        target: int,
        allow_empty_source: bool = True,
        w_parts: np.ndarray | None = None,
    ) -> int:
        """Move vertex ``v`` to part ``target``, updating all bookkeeping.

        If the move empties the source part, the part is removed and the
        last part id is relabelled into the hole (unless
        ``allow_empty_source=False``, which raises instead).  Moving a
        vertex to its own part is a no-op.

        Parameters
        ----------
        w_parts:
            Optional precomputed :meth:`neighbor_part_weights` of ``v``
            (not mutated).  Hot loops that already aggregated ``v``'s
            neighbourhood (gain tables, annealing deltas) pass it to skip
            the second O(deg) aggregation inside the move.

        Returns
        -------
        int
            The id of the target part *after* the move.  This can differ
            from ``target`` when the move emptied the source part and the
            target happened to be the last part id (which gets relabelled
            into the hole).
        """
        self._check_part(target)
        source = int(self.assignment[v])
        if source == target:
            return target
        if self.size[source] == 1 and not allow_empty_source:
            raise PartitionError(
                f"moving vertex {v} would empty part {source}"
            )
        if w_parts is None:
            w_parts = self.neighbor_part_weights(v)
        deg = float(self.graph.degree(v))
        w_s = float(w_parts[source])
        w_t = float(w_parts[target])

        self.assignment[v] = target
        self.size[source] -= 1
        self.size[target] += 1
        vw = float(self.graph.vertex_weights[v])
        self.vertex_weight[source] -= vw
        self.vertex_weight[target] += vw
        # Edges v--source were internal, now cut; v--target were cut, now
        # internal; v--other stay cut but move from cut[source]'s share into
        # cut[target]'s share.
        self.internal[source] -= w_s
        self.internal[target] += w_t
        self.cut[source] += w_s - (deg - w_s)
        self.cut[target] += (deg - w_t) - w_t

        if self.size[source] == 0:
            last = self._num_parts - 1
            self._remove_part(source)
            if target == last:
                return source
        return target

    # ------------------------------------------------------------------
    # Structural operations used by fusion-fission
    # ------------------------------------------------------------------
    def weight_between(self, a: int, b: int) -> float:
        """Total edge weight between parts ``a`` and ``b``.

        O(Σ deg over the smaller part).  This is the inverse of the paper's
        inter-atom *distance* (§4.2).
        """
        self._check_part(a)
        self._check_part(b)
        if a == b:
            raise PartitionError("weight_between needs two distinct parts")
        small = a if self.size[a] <= self.size[b] else b
        other = b if small == a else a
        members = np.flatnonzero(self.assignment == small)
        g = self.graph
        if not g.has_integral_weights():
            # Arbitrary floats: keep the per-vertex accumulation order so
            # seeded runs stay ulp-identical to the historical kernel.
            total = 0.0
            for v in members:
                nbrs, wts = g.neighbors(int(v))
                total += float(wts[self.assignment[nbrs] == other].sum())
            return total
        _, nbrs, wts = g.neighbors_many(members)
        return float(wts[self.assignment[nbrs] == other].sum())

    def merge_parts(self, a: int, b: int) -> int:
        """Merge part ``b`` into part ``a`` (fusion).

        Returns the id of the merged part, which is always a *currently
        valid* id: after the merge the last part id is relabelled into
        ``b``'s slot, and if that last id was ``a`` itself the merged part
        is now called ``b``.
        """
        self._check_part(a)
        self._check_part(b)
        if a == b:
            raise PartitionError("cannot merge a part with itself")
        w_ab = self.weight_between(a, b)
        self.assignment[self.assignment == b] = a
        self.size[a] += self.size[b]
        self.vertex_weight[a] += self.vertex_weight[b]
        self.internal[a] += self.internal[b] + w_ab
        self.cut[a] += self.cut[b] - 2.0 * w_ab
        self.size[b] = 0
        merged = a
        last = self._num_parts - 1
        self._remove_part(b)
        if merged == last:
            merged = b  # `a` was the relabelled last part.
        return merged

    def split_part(self, part: int, side_b: np.ndarray) -> int:
        """Split ``part`` by moving the vertices in ``side_b`` to a new part.

        ``side_b`` must be a non-empty proper subset of the part's members.
        Returns the new part id (``k`` before the call).  Cost O(Σ deg of
        ``side_b``).
        """
        self._check_part(part)
        side_b = np.asarray(side_b, dtype=np.int64)
        g = self.graph
        if side_b.size == 0:
            raise PartitionError("split side must be non-empty")
        if side_b.min() < 0 or side_b.max() >= g.num_vertices:
            bad = int(side_b.min() if side_b.min() < 0 else side_b.max())
            raise PartitionError(
                f"split side contains vertex id {bad}, outside the graph's "
                f"0..{g.num_vertices - 1}"
            )
        if np.unique(side_b).shape[0] != side_b.shape[0]:
            raise PartitionError(
                "split side contains duplicate vertex ids (bookkeeping "
                "would double-count them)"
            )
        outside = np.flatnonzero(self.assignment[side_b] != part)
        if outside.size:
            v = int(side_b[outside[0]])
            raise PartitionError(
                f"split side contains vertex {v} from part "
                f"{int(self.assignment[v])}, not from part {part} "
                f"({outside.size} of {side_b.size} ids are outside the part)"
            )
        if side_b.size >= self.size[part]:
            raise PartitionError("split side must be a proper subset of the part")
        new_part = self._num_parts
        self._append_part()
        # Bulk move: compute aggregate weight adjustments in one pass.
        in_b = np.zeros(g.num_vertices, dtype=bool)
        in_b[side_b] = True
        if g.has_integral_weights():
            # One batched CSR gather (no per-vertex Python loop); exact
            # for integral weights regardless of accumulation order.
            _, nbrs, wts = g.neighbors_many(side_b)
            nbr_parts = self.assignment[nbrs]
            same_part = nbr_parts == part
            to_b = in_b[nbrs]
            # Internal edges are seen from both ends -> half weight each.
            w_bb = float(wts[to_b].sum()) * 0.5
            w_ba = float(wts[same_part & ~to_b].sum())
            w_bx = float(wts[~same_part].sum())
        else:
            # Arbitrary floats: legacy per-vertex order, ulp-identical to
            # the historical kernel (seeded-run compatibility).
            w_bb = 0.0   # weight internal to side_b (counted once)
            w_ba = 0.0   # weight between side_b and the remainder of part
            w_bx = 0.0   # weight between side_b and other parts
            for v in side_b:
                nbrs, wts = g.neighbors(int(v))
                nbr_parts = self.assignment[nbrs]
                same_part = nbr_parts == part
                to_b = in_b[nbrs]
                w_bb += float(wts[to_b].sum())
                w_ba += float(wts[same_part & ~to_b].sum())
                w_bx += float(wts[~same_part].sum())
            w_bb *= 0.5  # each internal edge seen from both ends

        vw_b = float(g.vertex_weights[side_b].sum())
        self.assignment[side_b] = new_part
        self.size[new_part] = side_b.size
        self.size[part] -= side_b.size
        self.vertex_weight[new_part] = vw_b
        self.vertex_weight[part] -= vw_b
        self.internal[new_part] = w_bb
        self.internal[part] -= w_bb + w_ba
        self.cut[new_part] = w_ba + w_bx
        self.cut[part] += w_ba - w_bx
        return new_part

    # ------------------------------------------------------------------
    # Part-id compaction helpers
    # ------------------------------------------------------------------
    def _append_part(self) -> None:
        k = self._num_parts
        self.size = np.append(self.size, 0)
        self.vertex_weight = np.append(self.vertex_weight, 0.0)
        self.internal = np.append(self.internal, 0.0)
        self.cut = np.append(self.cut, 0.0)
        self._num_parts = k + 1

    def _remove_part(self, hole: int) -> None:
        """Remove the (empty) part ``hole``, relabelling the last part."""
        last = self._num_parts - 1
        if self.size[hole] != 0:
            raise PartitionError("internal error: removing a non-empty part")
        if hole != last:
            self.assignment[self.assignment == last] = hole
            self.size[hole] = self.size[last]
            self.vertex_weight[hole] = self.vertex_weight[last]
            self.internal[hole] = self.internal[last]
            self.cut[hole] = self.cut[last]
        self.size = self.size[:last]
        self.vertex_weight = self.vertex_weight[:last]
        self.internal = self.internal[:last]
        self.cut = self.cut[:last]
        self._num_parts = last
        if self._num_parts == 0:
            raise PartitionError("partition lost its last part")

    # ------------------------------------------------------------------
    # Invariant checking (used by tests and property-based suite)
    # ------------------------------------------------------------------
    def check(self, atol: float = 1e-8) -> None:
        """Verify all bookkeeping against a fresh recomputation.

        Raises
        ------
        PartitionError
            If any invariant is violated.
        """
        fresh = Partition(self.graph, self.assignment)
        if fresh._num_parts != self._num_parts:
            raise PartitionError("part count bookkeeping diverged")
        for name in ("size",):
            if not np.array_equal(getattr(fresh, name), getattr(self, name)):
                raise PartitionError(f"{name} bookkeeping diverged")
        for name in ("vertex_weight", "internal", "cut"):
            if not np.allclose(
                getattr(fresh, name), getattr(self, name), atol=atol
            ):
                raise PartitionError(f"{name} bookkeeping diverged")
        total = self.graph.total_edge_weight
        if abs(float(self.internal.sum()) + self.edge_cut() - total) > max(
            atol, atol * max(total, 1.0)
        ):
            raise PartitionError("internal + cut does not account for all weight")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Partition(k={self._num_parts}, n={self.graph.num_vertices}, "
            f"edge_cut={self.edge_cut():.6g})"
        )
