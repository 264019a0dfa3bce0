"""Graph file I/O.

Three interchange formats:

* **METIS/Chaco** (``.graph``): the format consumed by the tools the paper
  benchmarks against (Metis, Chaco).  1-indexed adjacency lists, header
  ``n m [fmt]`` where fmt ``1`` means edge weights, ``10``/``11`` add vertex
  weights.
* **edge list** (``.txt``): one ``u v w`` triple per line, 0-indexed.
* **JSON**: explicit dict with ``n``, ``edges`` and optional
  ``vertex_weights`` — convenient for test fixtures and the ATC instance.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.common.exceptions import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph

__all__ = [
    "read_metis",
    "write_metis",
    "read_edgelist",
    "write_edgelist",
    "read_json",
    "write_json",
    "graph_to_json",
    "graph_from_json",
]


def _strip_comments(lines):
    for line in lines:
        line = line.strip()
        if line and not line.startswith("%") and not line.startswith("#"):
            yield line


def read_metis(path: str | Path) -> Graph:
    """Read a METIS/Chaco ``.graph`` file.

    Supports fmt codes ``0`` (unweighted), ``1`` (edge weights), ``10``
    (vertex weights) and ``11`` (both).
    """
    lines = list(_strip_comments(Path(path).read_text().splitlines()))
    if not lines:
        raise GraphError(f"{path}: empty METIS file")
    header = lines[0].split()
    if len(header) < 2:
        raise GraphError(f"{path}: METIS header needs at least 'n m'")
    n, m = int(header[0]), int(header[1])
    fmt = header[2] if len(header) > 2 else "0"
    fmt = fmt.zfill(3)
    has_vertex_weights = fmt[-2] == "1"
    has_edge_weights = fmt[-1] == "1"
    ncon = int(header[3]) if len(header) > 3 else (1 if has_vertex_weights else 0)
    if len(lines) - 1 != n:
        raise GraphError(
            f"{path}: expected {n} vertex lines, found {len(lines) - 1}"
        )
    builder = GraphBuilder(n)
    seen = set()
    for v, line in enumerate(lines[1:]):
        tokens = line.split()
        pos = 0
        if has_vertex_weights:
            if len(tokens) < ncon:
                raise GraphError(f"{path}: vertex {v + 1} missing vertex weight")
            builder.set_vertex_weight(v, float(tokens[0]))
            pos = ncon
        while pos < len(tokens):
            u = int(tokens[pos]) - 1
            pos += 1
            if has_edge_weights:
                if pos >= len(tokens):
                    raise GraphError(f"{path}: vertex {v + 1} odd token count")
                w = float(tokens[pos])
                pos += 1
            else:
                w = 1.0
            if not (0 <= u < n):
                raise GraphError(f"{path}: neighbour id {u + 1} out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            builder.add_edge(v, u, w)
    g = builder.build()
    if g.num_edges != m:
        raise GraphError(
            f"{path}: header declares {m} edges but file contains {g.num_edges}"
        )
    return g


def write_metis(graph: Graph, path: str | Path) -> None:
    """Write ``graph`` in METIS format with edge and vertex weights (fmt 011).

    Weights are written with full float precision; strictly METIS wants
    integers, but Chaco-style tools accept floats and our reader round-trips.
    """
    n = graph.num_vertices
    out = [f"{n} {graph.num_edges} 011 1"]
    for v in range(n):
        nbrs, wts = graph.neighbors(v)
        parts = [f"{graph.vertex_weights[v]:g}"]
        for u, w in zip(nbrs, wts):
            parts.append(str(int(u) + 1))
            parts.append(f"{w:g}")
        out.append(" ".join(parts))
    Path(path).write_text("\n".join(out) + "\n")


def read_edgelist(path: str | Path) -> Graph:
    """Read a 0-indexed ``u v [w]`` edge list; duplicate edges merge."""
    builder = GraphBuilder(0)
    for line in _strip_comments(Path(path).read_text().splitlines()):
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise GraphError(f"{path}: bad edge line {line!r}")
        u, v = int(tokens[0]), int(tokens[1])
        w = float(tokens[2]) if len(tokens) == 3 else 1.0
        builder.add_edge(u, v, w)
    return builder.build()


def write_edgelist(graph: Graph, path: str | Path) -> None:
    """Write a 0-indexed ``u v w`` edge list, one undirected edge per line."""
    u, v, w = graph.edge_arrays()
    lines = [f"{int(a)} {int(b)} {c:g}" for a, b, c in zip(u, v, w)]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def graph_to_json(graph: Graph) -> dict:
    """Encode ``graph`` in the JSON graph format: ``n``, ``edges`` as
    ``[u, v, w]`` triples and ``vertex_weights``."""
    u, v, w = graph.edge_arrays()
    return {
        "n": graph.num_vertices,
        "edges": [[int(a), int(b), float(c)] for a, b, c in zip(u, v, w)],
        "vertex_weights": [float(x) for x in graph.vertex_weights],
    }


def graph_from_json(data: Any) -> Graph:
    """Decode the JSON graph format (``vertex_weights`` optional); any
    malformed input raises :class:`GraphError`."""
    try:
        n = int(data["n"])
        edges = [(int(u), int(v), float(w)) for u, v, w in data["edges"]]
        vw = data.get("vertex_weights")
        vertex_weights = (
            None if vw is None else np.asarray(vw, dtype=np.float64)
        )
        return Graph.from_edges(n, edges, vertex_weights=vertex_weights)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GraphError(
            f"malformed JSON graph ({type(exc).__name__}: {exc}); expected "
            "'n', 'edges' as [u, v, w] triples and optional 'vertex_weights'"
        ) from exc


def read_json(path: str | Path) -> Graph:
    """Read the JSON graph format produced by :func:`write_json`."""
    try:
        return graph_from_json(json.loads(Path(path).read_text()))
    except (GraphError, json.JSONDecodeError) as exc:
        raise GraphError(f"{path}: {exc}") from exc


def write_json(graph: Graph, path: str | Path) -> None:
    """Write the graph as JSON (see :func:`graph_to_json`)."""
    Path(path).write_text(json.dumps(graph_to_json(graph)))
