"""Per-vertex part-weight table for the FM refinement pass.

FM asks the same question over and over: *how much edge weight does
vertex ``v`` send into each part?*  Answering it per vertex costs an
O(deg + k) ``bincount`` — and a Python round-trip — per query.
:class:`GainTable` answers it from an ``(n, k)`` float table instead.
:meth:`GainTable.refresh` builds the rows of a whole vertex set
(typically the boundary) in one batched gather over the concatenated
CSR slices (:meth:`~repro.graph.Graph.neighbors_many`), bit-identical to
the per-vertex ``bincount`` because both accumulate each row in CSR
order.  A row is valid only once ``refresh`` has built it
(``materialized``).

FM keeps the rows current itself after every move
(:func:`repro.refine.fm.fm_refine`): two fancy-indexed adds on integral
edge weights, a :meth:`GainTable.refresh` of the touched rows otherwise.

The table assumes a **fixed part count**: FM forbids part-emptying
moves, so ``k`` never changes while a table is live.  Structural
operations (merge/split) invalidate it — build a fresh table per
refinement pass.
"""

from __future__ import annotations

import numpy as np

from repro.partition.partition import Partition

__all__ = ["GainTable"]


class GainTable:
    """``(n, k)`` table of per-part neighbour weights, built by rows.

    Parameters
    ----------
    partition:
        The live partition; its ``k`` is frozen into the table.

    Examples
    --------
    >>> from repro.graph import grid_graph
    >>> import numpy as np
    >>> g = grid_graph(2, 4)
    >>> p = Partition(g, [0, 0, 1, 1, 0, 0, 1, 1])
    >>> table = GainTable(p)
    >>> table.refresh(np.array([1]))
    >>> bool(np.array_equal(table.w_parts[1], p.neighbor_part_weights(1)))
    True
    """

    __slots__ = ("partition", "w_parts", "materialized")

    def __init__(self, partition: Partition):
        self.partition = partition
        n = partition.graph.num_vertices
        self.w_parts = np.zeros((n, partition.num_parts), dtype=np.float64)
        self.materialized = np.zeros(n, dtype=bool)

    def refresh(self, vertices: np.ndarray) -> None:
        """Rebuild the rows of ``vertices`` from scratch (one batched
        gather), bit-identical to per-vertex ``neighbor_part_weights``."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return
        if vertices.size <= 2:
            # Tiny batches: a per-row bincount beats the gather plumbing.
            p = self.partition
            for v in vertices:
                self.w_parts[v] = p.neighbor_part_weights(int(v))
            self.materialized[vertices] = True
            return
        rows, nbrs, wts = self.partition.graph.neighbors_many(vertices)
        parts = self.partition.assignment[nbrs]
        # Flattened bincount: per-cell accumulation order is identical to
        # np.add.at (input order) but runs on the fast C path.
        k = self.w_parts.shape[1]
        block = np.bincount(
            rows * k + parts, weights=wts, minlength=vertices.shape[0] * k
        )
        self.w_parts[vertices] = block.reshape(vertices.shape[0], k)
        self.materialized[vertices] = True
