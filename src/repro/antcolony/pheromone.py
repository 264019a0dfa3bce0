"""Per-colony pheromone fields on graph edges.

Pheromone lives on undirected edges, one value per colony — stored as a
``(k, m)`` float array aligned with the graph's canonical edge list (u < v),
plus a per-arc index so a directed CSR arc can find its undirected edge id
in O(1).  All bulk operations (evaporation, ownership) are vectorised.
"""

from __future__ import annotations

import numpy as np

from repro.common.exceptions import ConfigurationError
from repro.graph.graph import Graph

__all__ = ["PheromoneField"]


class PheromoneField:
    """``(k, m)`` pheromone matrix with O(1) arc→edge lookup.

    Parameters
    ----------
    graph:
        The underlying graph.
    num_colonies:
        ``k``, one colony per target part.
    initial:
        Starting pheromone level on every edge for every colony.
    """

    def __init__(self, graph: Graph, num_colonies: int, initial: float = 0.0):
        if num_colonies < 1:
            raise ConfigurationError(
                f"need at least one colony, got {num_colonies}"
            )
        self.graph = graph
        self.num_colonies = num_colonies
        u, v, _ = graph.edge_arrays()
        self.edge_u = u
        self.edge_v = v
        m = u.shape[0]
        self.values = np.full((num_colonies, m), float(initial))
        # arc_edge[j] = undirected edge id of CSR arc j.
        n = graph.num_vertices
        owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
        lo = np.minimum(owner, graph.indices)
        hi = np.maximum(owner, graph.indices)
        key = lo * np.int64(n) + hi
        edge_key = u * np.int64(n) + v
        order = np.argsort(edge_key)
        pos = np.searchsorted(edge_key[order], key)
        self.arc_edge = order[pos]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges carrying pheromone."""
        return self.values.shape[1]

    def deposit(self, colony: int, edges: np.ndarray, amount: float) -> None:
        """Add ``amount`` of pheromone for ``colony`` on each edge id."""
        np.add.at(self.values[colony], edges, amount)

    def evaporate(self, rate: float) -> None:
        """Multiply all trails by ``1 - rate`` (paper: trails decay
        over time to avoid convergence into a sub-optimal region)."""
        if not (0.0 <= rate < 1.0):
            raise ConfigurationError(f"evaporation rate must be in [0,1), got {rate}")
        self.values *= 1.0 - rate

    def vertex_ownership(self) -> np.ndarray:
        """Colony owning each vertex: argmax over colonies of the pheromone
        sum on incident edges (paper: "a vertex is owned by a colony if the
        sum of its pheromones on adjacent edges is greater than for other
        colonies").  Vertices with no pheromone at all get colony -1.

        Returns
        -------
        ``(n,)`` int array of colony ids (or -1).
        """
        n = self.graph.num_vertices
        k = self.num_colonies
        owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.graph.indptr))
        # strength[c, v] = sum of colony c's pheromone on v's edges.
        strength = np.zeros((k, n))
        per_arc = self.values[:, self.arc_edge]  # (k, arcs)
        for c in range(k):
            strength[c] = np.bincount(owner, weights=per_arc[c], minlength=n)
        best = np.argmax(strength, axis=0).astype(np.int64)
        silent = strength.max(axis=0) <= 0.0
        best[silent] = -1
        return best
