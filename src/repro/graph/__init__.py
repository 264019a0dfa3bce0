"""Weighted undirected graph substrate.

The whole repository operates on :class:`repro.graph.Graph`, a compact
CSR-backed (compressed sparse row) weighted undirected graph.  This module
also provides:

* :class:`GraphBuilder` — incremental construction from edges,
* file I/O in METIS/Chaco, edge-list and JSON formats (:mod:`repro.graph.io`),
* synthetic generators, including the ATC-style instance family
  (:mod:`repro.graph.generators`),
* Laplacian / degree linear algebra (:mod:`repro.graph.laplacian`),
* traversal and connectivity utilities (:mod:`repro.graph.connectivity`),
* edge contraction used by the multilevel scheme (:mod:`repro.graph.coarsen`).
"""

from repro.graph.graph import Graph
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.builder import GraphBuilder
from repro.graph.connectivity import (
    bfs_order,
    connected_components,
    is_connected,
    component_of,
)
from repro.graph.laplacian import (
    adjacency_matrix,
    degree_vector,
    laplacian_matrix,
    normalized_laplacian_matrix,
)
from repro.graph.coarsen import contract_graph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    torus_graph,
    path_graph,
    random_geometric_graph,
    weighted_caveman_graph,
    star_graph,
    barbell_graph,
    powerlaw_graph,
)
from repro.graph.analysis import (
    DegreeStatistics,
    degree_statistics,
    modularity,
    conductance,
    weight_gini,
)
from repro.graph.io import (
    read_metis,
    write_metis,
    read_edgelist,
    write_edgelist,
    read_json,
    write_json,
)

__all__ = [
    "Graph",
    "graph_fingerprint",
    "GraphBuilder",
    "bfs_order",
    "connected_components",
    "is_connected",
    "component_of",
    "adjacency_matrix",
    "degree_vector",
    "laplacian_matrix",
    "normalized_laplacian_matrix",
    "contract_graph",
    "complete_graph",
    "cycle_graph",
    "grid_graph",
    "torus_graph",
    "path_graph",
    "random_geometric_graph",
    "weighted_caveman_graph",
    "star_graph",
    "barbell_graph",
    "powerlaw_graph",
    "DegreeStatistics",
    "degree_statistics",
    "modularity",
    "conductance",
    "weight_gini",
    "read_metis",
    "write_metis",
    "read_edgelist",
    "write_edgelist",
    "read_json",
    "write_json",
]
