"""Loop-level reference for :meth:`~repro.partition.Partition.weight_between`.

``weight_between_reference`` is the per-vertex loop the batched
integral-weight kernel replaced, kept verbatim so the equivalence tests
can hold the kernel to it on seeded graphs.
"""

from __future__ import annotations

import numpy as np

from repro.partition.partition import Partition

__all__ = ["weight_between_reference"]


def weight_between_reference(partition: Partition, a: int, b: int) -> float:
    """Per-vertex-loop total edge weight between parts ``a`` and ``b``."""
    small = a if partition.size[a] <= partition.size[b] else b
    other = b if small == a else a
    total = 0.0
    g = partition.graph
    for v in np.flatnonzero(partition.assignment == small):
        nbrs, wts = g.neighbors(int(v))
        total += float(wts[partition.assignment[nbrs] == other].sum())
    return total
