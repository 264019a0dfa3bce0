"""The all-arcs percolation flood, kept verbatim as a reference.

``percolation_bonds_reference`` is the Bellman–Ford loop that every
flood ran before :func:`~repro.percolation.percolation.percolation_bonds`
moved to the atom kernel: each sweep touches every arc of the graph and
skips those leaving the mask.  It exists for the equivalence tests,
which hold the kernel to it bit for bit on seeded floods.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.percolation.percolation import _anchor

__all__ = ["percolation_bonds_reference"]


def percolation_bonds_reference(
    graph: Graph,
    centers: np.ndarray,
    mask: np.ndarray | None = None,
    max_sweeps: int = 100,
    tolerance: float = 1e-12,
) -> np.ndarray:
    """Bellman–Ford sweeps over every arc of the graph, masked arcs skipped
    (same arguments and result as ``percolation_bonds``, unvalidated)."""
    n = graph.num_vertices
    centers = np.asarray(centers, dtype=np.int64)
    k = centers.shape[0]
    allowed = (np.ones(n, dtype=bool) if mask is None
               else np.asarray(mask, dtype=bool))
    anchor = _anchor(graph)
    # -inf marks "liquid not yet arrived"; it propagates harmlessly through
    # the (b + w)/2 update, so bonds only ever flow outward from centres.
    bonds = np.full((n, k), -np.inf)
    bonds[centers, np.arange(k)] = anchor
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    valid_arc = allowed[owner] & allowed[graph.indices]
    src = owner[valid_arc]
    dst = graph.indices[valid_arc]
    wt = graph.weights[valid_arc]
    for _ in range(max_sweeps):
        # candidate[dst] = (bonds[src] + w) / 2, maximised per dst.
        candidate = (bonds[src] + wt[:, None]) * 0.5
        new_bonds = bonds.copy()
        np.maximum.at(new_bonds, dst, candidate)
        # Centres keep their anchor bond to their own colour regardless.
        new_bonds[centers, np.arange(k)] = anchor
        old_finite = np.isfinite(bonds)
        if not (np.isfinite(new_bonds) & ~old_finite).any():
            delta = np.where(old_finite, new_bonds, 0.0) - np.where(
                old_finite, bonds, 0.0
            )
            if float(np.abs(delta).max(initial=0.0)) <= tolerance:
                bonds = new_bonds
                break
        bonds = new_bonds
    bonds = np.where(np.isfinite(bonds), bonds, 0.0)
    bonds[~allowed] = 0.0
    return bonds
