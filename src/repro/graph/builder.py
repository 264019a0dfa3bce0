"""Incremental graph construction.

:class:`GraphBuilder` accumulates edges (merging duplicates by summing their
weights — the natural semantics for flow graphs, where several routes between
the same pair of sectors add up) and produces an immutable
:class:`~repro.graph.Graph`.
"""

from __future__ import annotations

import numpy as np

from repro.common.exceptions import GraphError
from repro.graph.graph import Graph

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Accumulate edges, then :meth:`build` a :class:`Graph`.

    Unlike :meth:`Graph.from_edges`, duplicate edges are *merged* by summing
    weights, and self-loops are silently dropped (both behaviours match how
    raw flow records are aggregated into a sector graph, paper §5).

    Parameters
    ----------
    n:
        Number of vertices.  May be grown later with :meth:`ensure_vertex`.

    Examples
    --------
    >>> b = GraphBuilder(3)
    >>> b.add_edge(0, 1, 2.0)
    >>> b.add_edge(1, 0, 3.0)   # merged with the edge above
    >>> g = b.build()
    >>> g.edge_weight(0, 1)
    5.0
    """

    def __init__(self, n: int = 0) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be >= 0, got {n}")
        self._n = int(n)
        self._us: list[int] = []
        self._vs: list[int] = []
        self._ws: list[float] = []
        self._vertex_weights: dict[int, float] = {}

    @property
    def num_vertices(self) -> int:
        """Current vertex count."""
        return self._n

    def ensure_vertex(self, v: int) -> None:
        """Grow the vertex set so that ``v`` is a valid id."""
        if v < 0:
            raise GraphError(f"vertex ids must be non-negative, got {v}")
        if v >= self._n:
            self._n = v + 1

    def add_edge(self, u: int, v: int, w: float = 1.0) -> None:
        """Add (or accumulate onto) the undirected edge ``(u, v)``.

        Self-loops (``u == v``) are ignored.  Negative weights raise
        :class:`~repro.common.exceptions.GraphError`.
        """
        if w < 0:
            raise GraphError(f"edge weights must be non-negative, got {w}")
        if u == v:
            return
        self.ensure_vertex(u)
        self.ensure_vertex(v)
        self._us.append(int(u))
        self._vs.append(int(v))
        self._ws.append(float(w))

    def add_edges(self, edges) -> None:
        """Add an iterable of ``(u, v[, w])`` tuples."""
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                self.add_edge(u, v)
            else:
                u, v, w = edge
                self.add_edge(u, v, w)

    def set_vertex_weight(self, v: int, weight: float) -> None:
        """Assign a vertex weight (defaults to 1.0 if never set)."""
        if weight < 0:
            raise GraphError(f"vertex weights must be non-negative, got {weight}")
        self.ensure_vertex(v)
        self._vertex_weights[int(v)] = float(weight)

    def build(self) -> Graph:
        """Produce the immutable :class:`Graph`.

        Duplicate undirected edges are merged by summing their weights.
        """
        n = self._n
        u = np.asarray(self._us, dtype=np.int64)
        v = np.asarray(self._vs, dtype=np.int64)
        w = np.asarray(self._ws, dtype=np.float64)
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        key = lo * np.int64(n) + hi
        uniq, inverse = np.unique(key, return_inverse=True)
        merged_w = np.zeros(uniq.shape[0], dtype=np.float64)
        np.add.at(merged_w, inverse, w)
        merged_lo = (uniq // n).astype(np.int64)
        merged_hi = (uniq % n).astype(np.int64)
        vw = np.ones(n, dtype=np.float64)
        for vid, weight in self._vertex_weights.items():
            vw[vid] = weight
        return Graph.from_arrays(n, merged_lo, merged_hi, merged_w, vertex_weights=vw)
