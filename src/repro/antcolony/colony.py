"""The k-competing-colonies search loop.

One iteration (the three steps of paper §3.2):

1. **Motion** — every colony sends ants on short stochastic walks from
   vertices of its current territory.  Step probabilities combine the
   colony's pheromone on the edge, the edge weight (the "local heuristic":
   heavy flow edges smell of food), and an exploration bonus on edges the
   colony has never marked.  Ants remember their path.
2. **Pheromone update** — each ant deposits on the edges it walked;
   colonies whose territory improved the global objective reinforce their
   internal edges backward along remembered paths; all trails then
   evaporate.
3. **Centralised action** (the optional third step) — vertex ownership is
   recomputed from pheromone sums and repaired so every colony keeps at
   least one vertex; the resulting partition is scored and tracked.

Ants from different colonies may stand on the same vertex — connectivity
of parts is not forced, exactly as the paper stresses.

The loop lives in :class:`AntColonyRun`, a resumable stepper (one
:meth:`AntColonyRun.step` = one colony iteration) whose state —
pheromone field, territories, incumbent — serialises for the
:mod:`repro.api` checkpoint machinery.  A session drives it through
:meth:`AntColonyRun.advance`; tests may step a session's stepper
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.exceptions import ConfigurationError
from repro.graph.graph import Graph
from repro.antcolony.pheromone import PheromoneField
from repro.partition.objectives import Objective, get_objective
from repro.partition.partition import Partition
from repro.api.session import SolveSession, Solver

__all__ = ["AntColonyPartitioner", "AntColonyRun"]


def _ownership_to_partition(
    graph: Graph,
    ownership: np.ndarray,
    k: int,
    fallback: np.ndarray,
) -> Partition:
    """Turn a (possibly degenerate) ownership vector into a valid partition.

    Unowned vertices (-1) take their ``fallback`` assignment; colonies that
    lost every vertex reclaim their strongest fallback vertex so the
    partition keeps exactly ``k`` parts.
    """
    assignment = ownership.copy()
    missing = assignment < 0
    assignment[missing] = fallback[missing]
    counts = np.bincount(assignment, minlength=k)
    for colony in np.flatnonzero(counts == 0):
        # Reclaim one vertex from the largest part (its fallback territory).
        donor = int(np.argmax(np.bincount(assignment, minlength=k)))
        members = np.flatnonzero(assignment == donor)
        assignment[members[0]] = colony
        counts = np.bincount(assignment, minlength=k)
    return Partition(graph, assignment)


def _daemon_local_search(
    partition: Partition,
    obj: Objective,
    rng: np.random.Generator,
    max_moves: int = 200,
) -> None:
    """The optional centralised step of §3.2: greedy descent on boundary
    vertices ("centralized actions which cannot be performed by single
    ants" — realised, as is standard in ACS variants, as daemon local
    search on the colony-assembled solution)."""
    from repro.partition.moves import boundary_vertices

    moves = 0
    candidates = boundary_vertices(partition)
    rng.shuffle(candidates)
    for v in candidates:
        if moves >= max_moves:
            break
        v = int(v)
        source = partition.part_of(v)
        if partition.size[source] <= 1:
            continue
        w_parts = partition.neighbor_part_weights(v)
        w_parts[source] = 0.0
        targets = np.flatnonzero(w_parts > 0.0)
        if targets.size == 0:
            continue
        deltas = np.array(
            [obj.delta_move(partition, v, int(t)) for t in targets]
        )
        j = int(np.argmin(deltas))
        if deltas[j] < -1e-12:
            partition.move(v, int(targets[j]), allow_empty_source=False)
            moves += 1


class AntColonyRun:
    """Resumable competing-colonies loop (one :meth:`step` = one iteration).

    The stepper of :class:`AntColonyPartitioner`: it reads the colony
    parameters from ``session.solver`` and the objective from
    ``session.request``.  A fresh run seeds the colony territories by
    percolation on ``session.rng`` (paper §4.4) and lays the initial
    trails; ``state`` (a checkpoint's ``state`` block) restores one
    instead.  :attr:`best` / :attr:`best_energy` hold the best partition
    seen.  While the session has a wall-clock budget the iteration cap
    is lifted.
    """

    def __init__(
        self, session: SolveSession, state: dict | None = None
    ) -> None:
        request = session.request
        self.solver = session.solver
        self.graph, self.k = request.graph, request.k
        self.obj = get_objective(request.objective)
        self.rng = session.rng
        self.iterations = (
            None if session.open_ended else self.solver.iterations
        )
        self.on_improvement = session._incumbent_improved
        self.field = PheromoneField(self.graph, self.k, initial=0.0)
        if state is not None:
            self.restore_state(state)
            return

        from repro.percolation.percolation import PercolationPartitioner

        session._set_phase("percolation-init")
        initial = PercolationPartitioner(k=self.k).partition(
            self.graph, seed=self.rng
        )
        self.fallback = initial.assignment.copy()
        # Seed trails: each colony marks the edges internal to its start part.
        eu, ev = self.field.edge_u, self.field.edge_v
        for colony in range(self.k):
            internal = (self.fallback[eu] == colony) & (
                self.fallback[ev] == colony
            )
            self.field.values[colony, internal] = self.solver.deposit
        self.best = initial.copy()
        self.best_energy = self.obj.value(self.best)
        self.current_assignment = self.fallback.copy()
        self.it = 0
        session._set_phase("colonies")

    def step(self) -> bool:
        """One colony iteration (motion, update, centralised action);
        False once the iteration cap stops the run."""
        if self.iterations is not None and self.it >= self.iterations:
            return False
        graph, k, rng, field = self.graph, self.k, self.rng, self.field
        solver = self.solver
        w_edges = graph.weights  # per-arc weights (CSR order)
        eu, ev = field.edge_u, field.edge_v
        # --- Step 1: motion ----------------------------------------------
        paths: list[tuple[int, list[int]]] = []  # (colony, edge ids)
        for colony in range(k):
            territory = np.flatnonzero(self.current_assignment == colony)
            if territory.size == 0:
                territory = np.array([int(rng.integers(graph.num_vertices))])
            starts = territory[
                rng.integers(territory.size, size=solver.num_ants)
            ]
            for s in starts:
                v = int(s)
                walked: list[int] = []
                for _step in range(solver.walk_length):
                    lo, hi = graph.indptr[v], graph.indptr[v + 1]
                    if hi == lo:
                        break
                    edge_ids = field.arc_edge[lo:hi]
                    tau = field.values[colony, edge_ids]
                    heur = w_edges[lo:hi]
                    attract = (
                        np.power(tau + 1e-12, solver.pheromone_power)
                        * np.power(heur + 1e-12, solver.heuristic_power)
                    )
                    attract = attract + solver.exploration_bonus * (tau <= 0.0)
                    total = float(attract.sum())
                    if total <= 0.0:
                        break
                    choice = int(rng.choice(hi - lo, p=attract / total))
                    walked.append(int(edge_ids[choice]))
                    v = int(graph.indices[lo + choice])
                paths.append((colony, walked))
        # --- Step 2: pheromone update --------------------------------------
        for colony, walked in paths:
            if walked:
                field.deposit(
                    colony, np.asarray(walked, dtype=np.int64), solver.deposit
                )
        # --- Step 3: centralised ownership + daemon action + scoring ------
        ownership = field.vertex_ownership()
        partition = _ownership_to_partition(graph, ownership, k, self.fallback)
        if solver.daemon_moves > 0:
            _daemon_local_search(
                partition, self.obj, rng, max_moves=solver.daemon_moves
            )
        energy = self.obj.value(partition)
        if energy < self.best_energy - 1e-12:
            self.best = partition.copy()
            self.best_energy = energy
            self.on_improvement(self.best_energy, self.best)
            # Backward update: reinforce internal edges of the improved
            # partition (food found — strengthen the trail home).
            a = partition.assignment
            for colony in range(k):
                internal = np.flatnonzero(
                    (a[eu] == colony) & (a[ev] == colony)
                )
                if internal.size:
                    field.deposit(colony, internal, solver.reinforcement)
        self.current_assignment = partition.assignment.copy()
        field.evaporate(solver.evaporation)
        self.it += 1
        return self.iterations is None or self.it < self.iterations

    # -- the session's stepper interface (see repro.api.session) -----------
    def advance(self) -> bool:
        """One session iteration = one colony iteration (each dispatches
        ``k × num_ants`` ant walks — already a substantial work unit)."""
        return self.step()

    def best_partition(self) -> Partition:
        return self.best

    def best_objective(self) -> float:
        return self.best_energy

    def progress_payload(self) -> dict:
        return {"colony_iteration": self.it}

    def close(self) -> None:
        """Nothing to release."""

    def adopt_incumbent(self, partition: Partition, energy: float) -> None:
        """Adopt a migrated incumbent (island model).

        The donated assignment becomes the current territory map the
        next iteration's ownership fallback builds on; the best is
        updated when the donor is strictly better.  Deterministic — the
        pheromone field and rng stream are untouched.
        """
        self.current_assignment = partition.assignment.copy()
        if energy < self.best_energy - 1e-12:
            self.best = partition.copy()
            self.best_energy = float(energy)

    # -- checkpoint plumbing (see repro.api.session) -----------------------
    def export_state(self) -> dict:
        """JSON-serialisable loop state (rng handled by the session)."""
        return {
            "it": self.it,
            "pheromone": self.field.values.tolist(),
            "fallback": [int(p) for p in self.fallback],
            "current_assignment": [int(p) for p in self.current_assignment],
            "best_assignment": [int(p) for p in self.best.assignment],
            "best_energy": self.best_energy,
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state`."""
        self.it = int(state["it"])
        values = np.asarray(state["pheromone"], dtype=np.float64)
        if values.shape != self.field.values.shape:
            raise ConfigurationError(
                f"pheromone field shape {values.shape} does not match "
                f"the graph/colony layout {self.field.values.shape}"
            )
        self.field.values = values
        self.fallback = np.asarray(state["fallback"], dtype=np.int64)
        self.current_assignment = np.asarray(
            state["current_assignment"], dtype=np.int64
        )
        self.best = Partition(
            self.graph, np.asarray(state["best_assignment"], dtype=np.int64)
        )
        self.best_energy = float(state["best_energy"])


@dataclass
class AntColonyPartitioner(Solver):
    """Table 1's "Ant colony" row — runs :class:`AntColonyRun` with the
    paper's four tuning parameters (ants per colony, walk length,
    evaporation, deposit) exposed first.

    Attributes
    ----------
    num_ants:
        Ants dispatched per colony per iteration.
    walk_length:
        Steps per ant walk.
    evaporation, deposit, reinforcement:
        Trail decay rate, per-step deposit, and the bonus laid on a
        colony's internal edges when the global partition improves.
    exploration_bonus:
        Added attractiveness of edges the colony has never marked (the
        paper's "local heuristic forces ants to explore edges which have
        no pheromone").
    pheromone_power, heuristic_power:
        Exponents α, β of the standard ant-system step rule
        ``p(e) ∝ τ(e)^α · w(e)^β``.
    daemon_moves:
        Greedy boundary moves of the centralised step per iteration
        (``0`` turns it off).
    iterations:
        Iteration cap, lifted while the session has a wall-clock budget.
    """

    k: int
    num_ants: int = 8
    walk_length: int = 8
    evaporation: float = 0.05
    deposit: float = 1.0
    reinforcement: float = 4.0
    exploration_bonus: float = 0.5
    pheromone_power: float = 1.0
    heuristic_power: float = 1.0
    daemon_moves: int = 200
    iterations: int = 200

    name = "ant-colony"
    #: Iterative family: sessions may run island-model (`islands > 1`).
    supports_islands = True
    stepper = AntColonyRun
