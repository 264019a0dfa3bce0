"""The boundary-vertex scan shared by FM, the ant-colony daemon and
:func:`~repro.partition.evaluate_partition`."""

from __future__ import annotations

import numpy as np

from repro.partition.partition import Partition

__all__ = ["boundary_vertices"]


def boundary_vertices(partition: Partition) -> np.ndarray:
    """Vertices with at least one neighbour in a different part.

    Vectorised over the whole CSR structure: O(m) — the arc-owner array
    comes from the graph's immutable cache
    (:meth:`~repro.graph.Graph.arc_owners`), so repeated calls (one per
    FM pass) no longer re-materialise the O(m) ``np.repeat``.
    """
    g = partition.graph
    a = partition.assignment
    owner = g.arc_owners()
    crossing = a[owner] != a[g.indices]
    return np.unique(owner[crossing])
