"""The paper's simulated-annealing adaptation to k-partitioning.

Faithful to §3.1:

* **Perturbation** — pick a uniformly random vertex.  If the temperature is
  *high* (above the midpoint of the schedule), move it to the part with the
  lowest internal weight ("the lowest partition regarding the sum of edges
  weight which are entirely inside partitions"); otherwise move it to a
  random part among those it is connected to.  Connectivity of parts is
  *not* forced.
* **Acceptance** — Metropolis: accept improving moves, accept worsening
  moves with probability ``exp((e(s) - e(s')) / T)``.
* **Equilibrium** — a fixed number of *refused* moves at the current
  temperature triggers a cooling step.
* **Stop** — freezing point ``T <= tmin`` (or an optional wall-clock
  deadline / step cap for the Figure-1 harness), returning the best
  solution seen.

Moves that would empty a part are rejected outright so ``k`` stays fixed
(SA is the paper's fixed-k baseline; changing k is fusion–fission's trick).

The loop lives in :class:`AnnealRun`, a resumable stepper: one
:meth:`AnnealRun.step` is one iteration of the annealing loop, and its
state serialises/restores for the :mod:`repro.api` checkpoint
machinery.  A session drives it through :meth:`AnnealRun.advance`;
tests may step it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.common.exceptions import ConfigurationError
from repro.common.rng import SeedLike, ensure_rng
from repro.common.timer import Deadline
from repro.graph.graph import Graph
from repro.partition.objectives import Objective, get_objective
from repro.partition.partition import Partition
from repro.api.request import SolveRequest
from repro.api.session import SolveSession

__all__ = ["SimulatedAnnealingPartitioner", "AnnealRun"]


class AnnealRun:
    """Resumable annealing loop state (one :meth:`step` = one iteration).

    Anneals ``partition`` in place; :attr:`best` / :attr:`best_energy`
    hold the best solution seen (a copy).  The stepper exists so run
    sessions can suspend between iterations, checkpoint the full state
    (:meth:`export_state`/:meth:`restore_state`) and resume without
    perturbing the random stream.

    Parameters
    ----------
    partition:
        Starting solution (modified during the search).
    objective:
        Energy function (name or instance); lower is better.
    tmax, tmin:
        Temperature range.  The paper's single-parameter usage sets
        ``tmin = 0``; the geometric ratio is then ``cooling_ratio``.
    cooling_ratio:
        Ceiling on the geometric decay ``(tmax - tmin)/tmax`` (see
        :class:`~repro.annealing.schedule.GeometricCooling`).
    equilibrium_refusals:
        Refused moves at one temperature before cooling.
    freeze_epsilon:
        Freezing point as a fraction of ``tmax`` when ``tmin = 0``.
    max_steps, time_budget:
        Optional extra stopping criteria (whichever hits first).
    on_improvement:
        Callback ``(energy, partition)`` fired whenever a new best is
        found (sessions turn it into ``incumbent`` events).

    Energies are tracked incrementally through
    :meth:`Objective.delta_move`; a full re-evaluation never happens
    inside the loop (no per-step O(n) work).
    """

    #: Annealing moves per session iteration, so events, budget checks
    #: and checkpoints land every few hundred cheap moves instead of on
    #: every vertex move.
    chunk = 256

    def __init__(
        self,
        partition: Partition,
        objective: Objective | str = "mcut",
        tmax: float = 1.0,
        tmin: float = 0.0,
        cooling_ratio: float = 0.95,
        equilibrium_refusals: int = 50,
        freeze_epsilon: float = 1e-3,
        max_steps: int | None = None,
        time_budget: float | None = None,
        seed: SeedLike = None,
        on_improvement: Callable[[float, Partition], None] | None = None,
    ) -> None:
        self.obj = get_objective(objective)
        self.rng = ensure_rng(seed)
        if tmax <= 0:
            raise ConfigurationError(f"tmax must be > 0, got {tmax}")
        if tmin < 0 or tmin >= tmax:
            raise ConfigurationError(
                f"need 0 <= tmin < tmax, got tmin={tmin}, tmax={tmax}"
            )
        ratio = (tmax - tmin) / tmax
        self.ratio = min(ratio, cooling_ratio)
        self.freeze = max(tmin, freeze_epsilon * tmax)
        self.midpoint = 0.5 * (tmax + tmin)
        self.tmax = tmax
        self.max_steps = max_steps
        self.time_budget = time_budget
        self.equilibrium_refusals = equilibrium_refusals
        self.deadline = Deadline(time_budget)
        self.on_improvement = on_improvement

        self.partition = partition
        self.energy = self.obj.value(partition)
        self.best = partition.copy()
        self.best_energy = self.energy
        self.t = tmax
        self.refusals = 0
        self.steps = 0
        self.finished = False

    def step(self) -> bool:
        """One iteration of the annealing loop; False once stopped.

        Ordering (freeze/reheat check, step cap, deadline, then one move
        attempt) and every random draw replicate the historical loop
        exactly.
        """
        if self.finished:
            return False
        if self.t <= self.freeze:
            # Frozen.  With a wall-clock budget the paper's metaheuristics
            # "can run infinitely": reheat and continue from the best
            # solution; without a budget, freezing is the stop criterion.
            if self.time_budget is None or self.deadline.expired():
                self.finished = True
                return False
            self.partition = self.best.copy()
            self.energy = self.best_energy
            self.t = self.tmax
            self.refusals = 0
        if self.max_steps is not None and self.steps >= self.max_steps:
            self.finished = True
            return False
        if self.deadline.expired():
            self.finished = True
            return False
        self.steps += 1
        partition, rng, obj = self.partition, self.rng, self.obj
        n = partition.graph.num_vertices
        v = int(rng.integers(n))
        source = partition.part_of(v)
        if partition.size[source] <= 1:
            return True  # never empty a part
        if self.t > self.midpoint:
            # Hot: target the part with the lowest internal weight.
            target = int(np.argmin(partition.internal))
            if target == source:
                order = np.argsort(partition.internal)
                target = int(order[1]) if order.shape[0] > 1 else source
            if target == source:
                return True
            w_parts = partition.neighbor_part_weights(v)
        else:
            # Cold: random connected part.  The aggregation is computed
            # once and reused by the delta and the move below — the
            # incremental-energy invariant (docs/performance.md) is that
            # no step aggregates a neighbourhood twice.
            w_parts = partition.neighbor_part_weights(v)
            connected = w_parts > 0.0
            connected[source] = False
            candidates = np.flatnonzero(connected)
            if candidates.size == 0:
                return True
            target = int(candidates[rng.integers(candidates.size)])
        delta = obj.delta_move(partition, v, target, w_parts=w_parts)
        accept = delta <= 0.0
        if not accept and np.isfinite(delta):
            accept = math.exp(-delta / self.t) > rng.random()
        if accept:
            partition.move(
                v, target, allow_empty_source=False, w_parts=w_parts
            )
            if np.isfinite(delta) and np.isfinite(self.energy):
                self.energy += delta
            else:
                # Moves out of an inf-energy state (e.g. an Mcut part with
                # no internal edges) need a fresh evaluation.
                self.energy = obj.value(partition)
            if self.energy < self.best_energy - 1e-12:
                # Guard against float drift on long runs.
                self.energy = obj.value(partition)
                if self.energy < self.best_energy - 1e-12:
                    self.best = partition.copy()
                    self.best_energy = self.energy
                    if self.on_improvement is not None:
                        self.on_improvement(self.best_energy, self.best)
        else:
            self.refusals += 1
            if self.refusals >= self.equilibrium_refusals:
                self.refusals = 0
                self.t *= self.ratio
        return True

    # -- the session's stepper interface (see repro.api.session) -----------
    def advance(self) -> bool:
        """One session iteration: up to :attr:`chunk` moves."""
        for _ in range(self.chunk):
            if not self.step():
                return False
        return True

    def best_partition(self) -> Partition:
        return self.best

    def best_objective(self) -> float:
        return self.best_energy

    def progress_payload(self) -> dict:
        return {"temperature": self.t, "moves": self.steps}

    def close(self) -> None:
        """Nothing to release."""

    def adopt_incumbent(self, partition: Partition, energy: float) -> None:
        """Adopt a migrated incumbent (island model): continue the walk
        from the donated solution.

        Deterministic — no random draws, so adopting never perturbs the
        stream of subsequent :meth:`step` calls.  Temperature and
        refusal counters are kept: migration redirects the walk, it does
        not restart the schedule.
        """
        self.partition = partition.copy()
        self.energy = float(energy)
        if self.energy < self.best_energy - 1e-12:
            self.best = partition.copy()
            self.best_energy = self.energy

    # -- checkpoint plumbing (see repro.api.session) -----------------------
    def export_state(self) -> dict:
        """JSON-serialisable loop state (rng handled by the session)."""
        return {
            "assignment": [int(p) for p in self.partition.assignment],
            "best_assignment": [int(p) for p in self.best.assignment],
            "energy": self.energy,
            "best_energy": self.best_energy,
            "t": self.t,
            "refusals": self.refusals,
            "steps": self.steps,
            "finished": self.finished,
        }

    def restore_state(self, graph: Graph, state: dict) -> None:
        """Inverse of :meth:`export_state` (rebuilds both partitions)."""
        self.partition = Partition(
            graph, np.asarray(state["assignment"], dtype=np.int64)
        )
        self.best = Partition(
            graph, np.asarray(state["best_assignment"], dtype=np.int64)
        )
        self.energy = float(state["energy"])
        self.best_energy = float(state["best_energy"])
        self.t = float(state["t"])
        self.refusals = int(state["refusals"])
        self.steps = int(state["steps"])
        self.finished = bool(state["finished"])


@dataclass
class SimulatedAnnealingPartitioner:
    """Table 1's "Simulated annealing" row.

    Starts from the percolation partition (paper §4.4: percolation
    initialises SA and ant colony), then runs :class:`AnnealRun`.

    Attributes
    ----------
    k:
        Number of parts (any natural number — metaheuristics are not
        limited to powers of two).
    objective:
        Energy criterion; the ATC study uses ``"mcut"``.
    tmax:
        The single tuning parameter the paper highlights.
    """

    k: int
    objective: str = "mcut"
    tmax: float = 1.0
    tmin: float = 0.0
    cooling_ratio: float = 0.95
    equilibrium_refusals: int = 50
    max_steps: int | None = None
    time_budget: float | None = None

    name = "simulated-annealing"
    #: Iterative family: sessions may run island-model (`islands > 1`).
    supports_islands = True

    def start(
        self, request: SolveRequest, checkpoint: dict | None = None
    ) -> SolveSession:
        """Open a run session (the :class:`repro.api.Solver` protocol)."""
        return SolveSession(self, request, checkpoint)

    def stepper(
        self, session: SolveSession, state: dict | None = None
    ) -> AnnealRun:
        """A fresh :class:`AnnealRun` from the percolation partition on
        ``session.rng``, or one restored from a checkpoint ``state``."""
        graph = session.request.graph
        if state is None:
            from repro.percolation.percolation import PercolationPartitioner

            session._set_phase("percolation-init")
            start = PercolationPartitioner(k=session.request.k).partition(
                graph, seed=session.rng
            )
        else:
            # Placeholder partition: restore_state overwrites every field.
            start = Partition(
                graph, np.asarray(state["assignment"], dtype=np.int64)
            )
        run = AnnealRun(
            start,
            objective=session.request.objective or self.objective,
            tmax=self.tmax,
            tmin=self.tmin,
            cooling_ratio=self.cooling_ratio,
            equilibrium_refusals=self.equilibrium_refusals,
            max_steps=self.max_steps,
            time_budget=self.time_budget,
            seed=session.rng,
            on_improvement=session._incumbent_improved,
        )
        if state is None:
            session._set_phase("anneal")
        else:
            run.restore_state(graph, state)
        return run
