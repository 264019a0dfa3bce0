"""The four fusion–fission operators (paper §4.2).

* :func:`fusion_step` — merge the selected atom with a partner chosen "
  according to its size, its distance to the first one, and temperature"
  (distance = inverse of the connecting edge weight), then eject nucleons
  per the fusion law.
* :func:`fission_step` — cut the selected atom in two by percolation
  (§4.4), then eject nucleons per the fission law.
* :func:`nucleon_fusion` (``nfusion``) — absorb an ejected nucleon into
  the connected atom that binds it most strongly.
* :func:`nucleon_fission` (``nfission``) — a hot ejected nucleon strikes
  a connected atom and splits it ("a simple fission, with no nucleon
  ejected"), then settles into the nearer fragment.

All operators work directly on a :class:`~repro.partition.Partition` and
return the vertex ids of ejected nucleons (vertex ids are stable; part ids
are re-derived after every structural change because merges relabel them).
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import SeedLike, ensure_rng
from repro.fusionfission.laws import FISSION, FUSION, LawTable
from repro.partition.partition import Partition
from repro.percolation.percolation import percolation_bisect

__all__ = [
    "fusion_step",
    "fission_step",
    "nucleon_fusion",
    "nucleon_fission",
    "select_fusion_partner",
    "weakest_members",
]


def _part_connection_weights(partition: Partition, part: int) -> np.ndarray:
    """``(k,)`` total edge weight between ``part`` and every other part.

    One batched CSR gather + ``bincount`` over every member's arcs; the
    per-cell accumulation order matches the old per-vertex loop exactly
    (both walk the concatenated slices left to right), so results are
    bit-identical on any weights.
    """
    g = partition.graph
    _, nbrs, wts = g.neighbors_many(partition.members(part))
    weights = np.bincount(
        partition.assignment[nbrs], weights=wts,
        minlength=partition.num_parts,
    )
    weights[part] = 0.0
    return weights


def select_fusion_partner(
    partition: Partition,
    atom: int,
    temperature_fraction: float,
    ideal_size: float,
    rng: SeedLike = None,
) -> int | None:
    """Choose the atom to fuse with (paper: by size, distance, temperature).

    The paper defines the distance between two atoms as "the inverse of
    the sum of the weights of connected edges between these atoms" (∞ when
    disconnected), so closeness == connection weight.  Selection
    probability is ``w(A, B) * size_penalty(B)`` where the size penalty
    ``exp(-size_B / (ideal * (0.5 + temperature)))`` relaxes when hot —
    "the higher the temperature, the easier the fusion of big atoms".
    Returns ``None`` when the atom has no connected partner (an isolated
    atom cannot fuse).
    """
    rng = ensure_rng(rng)
    weights = _part_connection_weights(partition, atom)
    connected = np.flatnonzero(weights > 0.0)
    if connected.size == 0:
        return None
    sizes = partition.size[connected].astype(np.float64)
    softness = ideal_size * (0.5 + max(temperature_fraction, 0.0))
    scores = weights[connected] * np.exp(-sizes / max(softness, 1e-9))
    total = float(scores.sum())
    if total <= 0.0:
        return int(connected[np.argmax(weights[connected])])
    return int(rng.choice(connected, p=scores / total))


def weakest_members(
    partition: Partition, part: int, count: int
) -> np.ndarray:
    """The ``count`` members of ``part`` most weakly bound to it.

    Binding of a vertex = edge weight into its own part minus edge weight
    leaving it (ejection candidates sit on the boundary).  Never returns
    more than ``size - 1`` vertices (an atom keeps at least one nucleon).
    """
    members = partition.members(part)
    count = min(count, members.shape[0] - 1)
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    binding = _binding_of(partition, members, part)
    order = np.argsort(binding)
    return members[order[:count]].astype(np.int64)


def _binding_of(
    partition: Partition, vertices: np.ndarray, part: int | None = None
) -> np.ndarray:
    """Per-vertex binding: own-part edge weight minus leaving edge weight.

    ``part=None`` uses each vertex's own part.  Batched segment sums when
    weight arithmetic is exact (integral weights); the legacy per-vertex
    accumulation order otherwise, so seeded runs stay ulp-identical.
    """
    g = partition.graph
    assignment = partition.assignment
    if g.has_integral_weights():
        rows, nbrs, wts = g.neighbors_many(vertices)
        own_part = (
            np.full(rows.shape, part)
            if part is not None
            else assignment[vertices][rows]
        )
        own = assignment[nbrs] == own_part
        signed = np.where(own, wts, -wts)
        return np.bincount(rows, weights=signed, minlength=vertices.shape[0])
    binding = np.empty(vertices.shape[0])
    for i, v in enumerate(vertices):
        nbrs, wts = g.neighbors(int(v))
        own = assignment[nbrs] == (part if part is not None else assignment[v])
        binding[i] = float(wts[own].sum()) - float(wts[~own].sum())
    return binding


def nucleon_fusion(partition: Partition, nucleon: int) -> bool:
    """Absorb ``nucleon`` into the connected atom that binds it most.

    The paper only says ejected nucleons "are incorporated into different
    atoms connected with them"; the atom with the largest edge weight to
    the nucleon wins (the lowest part id on a tie).

    No-op (returns False) when the nucleon has no neighbour outside its
    own part, or when moving it would empty its part.
    """
    source = partition.part_of(nucleon)
    if partition.size[source] <= 1:
        return False
    w_parts = partition.neighbor_part_weights(nucleon)
    connected = w_parts > 0.0
    connected[source] = False
    candidates = np.flatnonzero(connected)
    if candidates.size == 0:
        return False
    target = int(candidates[np.argmax(w_parts[candidates])])
    partition.move(nucleon, target, allow_empty_source=False, w_parts=w_parts)
    return True


def nucleon_fission(
    partition: Partition,
    nucleon: int,
    max_parts: int,
    rng: SeedLike = None,
) -> bool:
    """A hot nucleon triggers a simple fission of a connected atom.

    The struck atom (the nucleon's most strongly connected *other* atom)
    is cut in two by percolation with no further ejection; the nucleon
    then joins whichever fragment binds it more.  When no admissible
    strike exists (no connected atom of size >= 2, or the molecule
    already has ``max_parts`` atoms) the nucleon just fuses
    (:func:`nucleon_fusion`); the return value is that of the final
    fusion.
    """
    rng = ensure_rng(rng)
    if partition.num_parts >= max_parts:
        return nucleon_fusion(partition, nucleon)
    own = partition.part_of(nucleon)
    w_parts = partition.neighbor_part_weights(nucleon)
    w_parts[own] = 0.0
    candidates = np.flatnonzero(w_parts > 0.0)
    candidates = candidates[partition.size[candidates] >= 2]
    if candidates.size == 0:
        return nucleon_fusion(partition, nucleon)
    struck = int(candidates[np.argmax(w_parts[candidates])])
    members = partition.members(struck)
    _, side_b = percolation_bisect(partition.graph, members, seed=rng)
    partition.split_part(struck, side_b)
    return nucleon_fusion(partition, nucleon)


def fusion_step(
    partition: Partition,
    atom: int,
    laws: LawTable,
    temperature_fraction: float,
    ideal_size: float,
    rng: SeedLike = None,
) -> tuple[np.ndarray, tuple[int, int, int] | None]:
    """Fuse ``atom`` with a selected partner; eject nucleons per the law.

    Returns
    -------
    (ejected, law_key):
        Vertex ids of the ejected nucleons (the caller routes them through
        ``nfusion``) and the ``(kind, size, choice)`` key for the later
        law update — ``None`` when no fusion happened (isolated atom or
        k = 1 guard).
    """
    rng = ensure_rng(rng)
    if partition.num_parts <= 2:
        # Fusing at k = 2 would collapse to the trivial molecule.
        return np.empty(0, dtype=np.int64), None
    partner = select_fusion_partner(
        partition, atom, temperature_fraction, ideal_size, rng=rng
    )
    if partner is None:
        return np.empty(0, dtype=np.int64), None
    combined_size = int(partition.size[atom] + partition.size[partner])
    eject = laws.sample(FUSION, combined_size, rng=rng)
    merged = partition.merge_parts(atom, partner)
    ejected = weakest_members(partition, merged, eject)
    return ejected, (FUSION, combined_size, eject)


def fission_step(
    partition: Partition,
    atom: int,
    laws: LawTable,
    max_parts: int,
    rng: SeedLike = None,
) -> tuple[np.ndarray, tuple[int, int, int] | None]:
    """Cut ``atom`` in two by percolation; eject nucleons per the law.

    Returns the same ``(ejected, law_key)`` shape as :func:`fusion_step`;
    the caller decides per nucleon between ``nfission`` (hot) and
    ``nfusion`` (cold).  No-op when the atom is a single nucleon or the
    molecule is already at ``max_parts``.
    """
    rng = ensure_rng(rng)
    size = int(partition.size[atom])
    if size < 2 or partition.num_parts >= max_parts:
        return np.empty(0, dtype=np.int64), None
    eject = laws.sample(FISSION, size, rng=rng)
    members = partition.members(atom)
    _, side_b = percolation_bisect(partition.graph, members, seed=rng)
    new_part = partition.split_part(atom, side_b)
    # Eject from the fragment boundary: weakest-bound members of both
    # fragments, interleaved (the paper does not pin the fragment).
    candidates = np.concatenate(
        [
            weakest_members(partition, atom, eject),
            weakest_members(partition, new_part, eject),
        ]
    )
    if candidates.size > eject:
        # Keep the globally weakest `eject` of the merged candidate pool.
        binding = _binding_of(partition, candidates)
        candidates = candidates[np.argsort(binding)[:eject]]
    return candidates.astype(np.int64), (FISSION, size, eject)
