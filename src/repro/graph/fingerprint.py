"""Content fingerprints of graphs.

One blake2b implementation shared by every consumer that needs to say
"these are the same bytes": the workload instance registry (builder
determinism tests), checkpoints (bound to the graph they were taken on)
and the service plane's result cache (``(graph_fingerprint, request)``
keys).  Keeping them on a single function guarantees a graph hashes
identically no matter which layer asks.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (graph.py)
    from repro.graph.graph import Graph

__all__ = ["graph_fingerprint"]


def graph_fingerprint(graph: "Graph") -> str:
    """Content hash of a graph's CSR arrays (stable across processes).

    blake2b-128 over the shape and raw bytes of ``indptr``, ``indices``,
    ``weights`` and ``vertex_weights``, in that order.  Two graphs have
    the same fingerprint iff those arrays are bit-identical — the
    determinism contract every registered workload builder is tested
    against (same name + same seed → same fingerprint), and the property
    that makes the fingerprint a safe result-cache key: equal
    fingerprints mean every solver sees identical inputs.
    """
    digest = blake2b(digest_size=16)
    for arr in (graph.indptr, graph.indices, graph.weights,
                graph.vertex_weights):
        digest.update(str(arr.shape).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()
