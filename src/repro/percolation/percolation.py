"""The percolation flooding algorithm.

Paper §4.4 defines, for a vertex ``v`` and a partition ``P_i`` flooding
from centre ``c_i``::

    bond(v, P_i) = sum over edges e on the path from c_i to v of w(e) / 2^d

where ``d`` counts the vertices between ``e`` and the centre — i.e. each
additional hop halves an edge's contribution, so bonds decay geometrically
with distance from the centre.  A vertex is coloured by the centre with the
strongest bond.  "All bonds are recomputed at each step … the algorithm
stops when no vertex moves to another partition."

Our implementation follows that fixed-point formulation: bond values are
propagated Bellman–Ford-style (a vertex's bond via neighbour ``u`` is
``(bond(u) + w(u, v)) / 2`` — equivalently the best discounted path weight)
until colours stabilise.  The ``/2`` per hop makes the iteration a
contraction, so convergence is guaranteed; the tests verify both the
fixed-point property and the hand-computable small cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.exceptions import ConfigurationError
from repro.common.rng import SeedLike, ensure_rng
from repro.graph.graph import Graph
from repro.partition.partition import Partition
from repro.api.request import SolveRequest
from repro.api.session import OneShotStepper, SolveSession

__all__ = [
    "percolation_bonds",
    "percolation_partition",
    "percolation_bisect",
    "choose_spread_centers",
    "PercolationPartitioner",
]


def percolation_bonds(
    graph: Graph,
    centers: np.ndarray,
    mask: np.ndarray | None = None,
    max_sweeps: int = 100,
    tolerance: float = 1e-12,
) -> np.ndarray:
    """Bond strength of every vertex to every centre's liquid.

    Parameters
    ----------
    graph:
        The graph to flood.
    centers:
        ``(k,)`` centre vertex ids (the ``c_i`` of §4.4).
    mask:
        Optional boolean ``(n,)`` restriction; vertices outside the mask
        neither receive nor transmit liquid (used when cutting a single
        atom during fission).
    max_sweeps:
        Bellman–Ford sweep cap (the half-per-hop discount converges
        geometrically; ~40 sweeps reach 1e-12).
    tolerance:
        Convergence threshold on bond changes.

    Returns
    -------
    ``(n, k)`` array of bond values (0 where unreachable / masked).

    Notes
    -----
    ``bond[v, i]`` is the maximum over paths from ``c_i`` to ``v`` of the
    discounted path weight; it satisfies the fixed point
    ``bond[v] = max_u (bond[u] + w(u, v)) / 2`` over neighbours ``u`` —
    unrolled, each edge on the path contributes ``w(e) / 2^d`` exactly as
    §4.4 prescribes.  The paper leaves the centre's own bond implicit; we
    anchor it at ``2 * w_max`` (the saturation value of the recurrence,
    since ``sum w_max / 2^d <= 2 w_max``), which makes bonds strictly
    *decrease* with hop distance on uniform-weight graphs — the behaviour
    the step-by-step flood in the paper exhibits — while preserving the
    trade-off that lets a strong flow corridor out-bond a nearby weak
    centre.  The interpretation is recorded in DESIGN.md.
    """
    n = graph.num_vertices
    centers = np.asarray(centers, dtype=np.int64)
    k = centers.shape[0]
    if k < 1:
        raise ConfigurationError("percolation needs at least one centre")
    if np.unique(centers).shape[0] != k:
        raise ConfigurationError("percolation centres must be distinct")
    allowed = np.ones(n, dtype=bool) if mask is None else np.asarray(mask, bool)
    if not allowed[centers].all():
        raise ConfigurationError("percolation centres must satisfy the mask")

    w_max = float(graph.weights.max()) if graph.weights.size else 1.0
    anchor = 2.0 * max(w_max, 1e-12)
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


def _color_from_bonds(
    bonds: np.ndarray, centers: np.ndarray, allowed: np.ndarray
) -> np.ndarray:
    """Assign each allowed vertex to its strongest-bond colour.

    Vertices with no positive bond to any colour (unreachable islands) get
    the colour of the nearest centre by index order — callers that care
    repair these afterwards.  Ties break towards the lower colour index,
    which is deterministic.
    """
    n, k = bonds.shape
    colors = np.argmax(bonds, axis=1).astype(np.int64)
    colors[centers] = np.arange(k)
    colors[~allowed] = -1
    return colors


def percolation_partition(
    graph: Graph,
    centers: np.ndarray,
    max_sweeps: int = 100,
) -> Partition:
    """Flood the whole graph from ``centers`` and return the partition.

    Colours that end up empty (a centre swallowed by a stronger
    neighbouring liquid can keep only itself — never empty; but masked or
    disconnected corner cases are repaired by reassigning to the nearest
    non-empty colour) are compacted away by :class:`Partition` rules —
    the result always has exactly ``len(centers)`` parts because each
    centre owns at least itself.
    """
    centers = np.asarray(centers, dtype=np.int64)
    bonds = percolation_bonds(graph, centers, max_sweeps=max_sweeps)
    allowed = np.ones(graph.num_vertices, dtype=bool)
    colors = _color_from_bonds(bonds, centers, allowed)
    return Partition(graph, colors)


def percolation_bisect(
    graph: Graph,
    vertices: np.ndarray,
    seed: SeedLike = None,
    centers: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cut the vertex set ``vertices`` in two by two-liquid percolation.

    This is the fission cutter (paper §4.4: "we use it during fission to
    cut partitions into two").  Centres default to a random vertex plus
    the vertex with the weakest bond to it (approximating a diameter
    pair).

    Returns
    -------
    (side_a, side_b):
        Two disjoint vertex-id arrays covering ``vertices``; both
        non-empty whenever ``len(vertices) >= 2``.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.shape[0] < 2:
        raise ConfigurationError("cannot bisect fewer than 2 vertices")
    rng = ensure_rng(seed)
    mask = np.zeros(graph.num_vertices, dtype=bool)
    mask[vertices] = True
    if centers is None:
        c0 = int(vertices[rng.integers(vertices.shape[0])])
        b0 = percolation_bonds(graph, np.array([c0]), mask=mask)[:, 0]
        pool = vertices[vertices != c0]
        c1 = int(pool[np.argmin(b0[pool])])
    else:
        c0, c1 = int(centers[0]), int(centers[1])
        if c0 == c1:
            raise ConfigurationError("bisection centres must be distinct")
        if not (mask[c0] and mask[c1]):
            raise ConfigurationError("bisection centres must lie in the set")
    cpair = np.array([c0, c1], dtype=np.int64)
    bonds = percolation_bonds(graph, cpair, mask=mask)
    colors = _color_from_bonds(bonds, cpair, mask)
    side_a = vertices[colors[vertices] == 0]
    side_b = vertices[colors[vertices] == 1]
    # Unreachable-within-mask vertices default to colour 0 via argmax(0,0);
    # guarantee a proper bisection.
    if side_b.size == 0:
        side_b = np.array([c1], dtype=np.int64)
        side_a = vertices[vertices != c1]
    return side_a, side_b


def choose_spread_centers(
    graph: Graph, k: int, seed: SeedLike = None
) -> np.ndarray:
    """Pick ``k`` well-spread centres (farthest-first by bond strength).

    The paper inputs "the set of k initial vertices" as a user parameter;
    this helper chooses them automatically: start from a random vertex,
    then repeatedly add the vertex with the weakest maximum bond to the
    centres chosen so far (a 2-approximation of the k-centre spread in the
    bond metric).
    """
    n = graph.num_vertices
    if not (1 <= k <= n):
        raise ConfigurationError(f"k must be in [1, {n}], got {k}")
    rng = ensure_rng(seed)
    centers = [int(rng.integers(n))]
    if k == 1:
        return np.asarray(centers, dtype=np.int64)
    best_bond = percolation_bonds(graph, np.asarray(centers))[:, 0]
    for _ in range(k - 1):
        best_bond_safe = best_bond.copy()
        best_bond_safe[np.asarray(centers)] = np.inf
        nxt = int(np.argmin(best_bond_safe))
        centers.append(nxt)
        new_bond = percolation_bonds(graph, np.asarray([nxt]))[:, 0]
        best_bond = np.maximum(best_bond, new_bond)
    return np.asarray(centers, dtype=np.int64)


@dataclass
class PercolationPartitioner:
    """Standalone percolation partitioner (Table 1 row "Percolation").

    Attributes
    ----------
    k:
        Number of liquids/parts.
    balance:
        Run a greedy balance repair after flooding (floods can be very
        uneven); Table 1's percolation row uses the raw flood, so the
        default is False.
    """

    k: int
    balance: bool = False
    balance_epsilon: float = 0.25

    name = "percolation"
    #: Direct construction: the session runs :meth:`partition` once.
    stepper = OneShotStepper

    def start(
        self, request: SolveRequest, checkpoint: dict | None = None
    ) -> SolveSession:
        """Open a run session (the :class:`repro.api.Solver` protocol)."""
        return SolveSession(self, request, checkpoint)

    def partition(self, graph: Graph, seed: SeedLike = None) -> Partition:
        """Flood from automatically spread centres."""
        rng = ensure_rng(seed)
        centers = choose_spread_centers(graph, self.k, seed=rng)
        partition = percolation_partition(graph, centers)
        if self.balance:
            from repro.refine.greedy import greedy_balance

            greedy_balance(partition, epsilon=self.balance_epsilon)
        return partition
