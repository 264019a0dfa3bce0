"""Island-model execution of iterative solve sessions.

An :class:`IslandGroup` is the stepper of an ``islands > 1``
:class:`~repro.api.session.SolveSession`: it runs N independent
*islands* — child sessions of the same solver, each seeded from its own
``SeedSequence.spawn`` lineage — that evolve in rounds.  One parent
session iteration is one round: every running island
advances ``migration_interval`` of its own iterations, newly found
incumbents are surfaced as parent ``incumbent`` events (tagged with the
island that found them), and the islands then trade incumbents around a
ring — island ``i`` adopts island ``i-1``'s best when it is strictly
better — recorded as one structured ``migration`` event.  The final
answer is a deterministic reduce: the best objective over islands, ties
broken by island index.

Two execution modes, selected by ``SolveRequest.island_jobs``:

* **serial** (``island_jobs=1``, default) — islands are stepped
  round-robin in the parent process.
* **parallel** (``island_jobs>1``) — each round, running islands are
  checkpointed, shipped to a :class:`~repro.graph.pool.GraphPool` (the
  worker pool the portfolio runner uses, whose workers map the graph
  once from shared memory), stepped there, and rebuilt in the parent
  from the returned checkpoints; the round waits for every island.
  Checkpoints are bit-exact for graphs with integral edge weights (the
  session determinism contract), so serial and parallel runs of such a
  request produce identical partitions and event streams.  With float
  weights the partitions still match, but a resumed island's objective
  can differ from the serial one in the last digits.

Because incumbent events are emitted by *scanning* island bests once per
round (not by forwarding child events as they happen), the parent event
stream is a pure function of the request — independent of execution mode
and worker scheduling.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

from repro.common.exceptions import CheckpointError
from repro.common.rng import spawn_rngs
from repro.api.events import EVENT_INCUMBENT, EVENT_MIGRATION
from repro.api.request import (
    STATUS_RUNNING,
    Budget,
    SolveRequest,
)
from repro.graph.pool import GraphPool, PoolWorker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import SolveSession
    from repro.partition.partition import Partition

__all__ = ["IslandGroup"]

#: Strict-improvement threshold shared with the solver steppers.
_EPS = 1e-12


def _island_step(
    worker: PoolWorker,
    solver: Any,
    request_args: dict,
    checkpoint: dict,
    steps: int,
) -> dict:
    """Advance one island ``steps`` iterations on a pool worker."""
    request = SolveRequest(graph=worker.graph, **request_args)
    session = solver.start(request, checkpoint=checkpoint)
    for _ in range(steps):
        if not session.step():
            break
    return session.checkpoint()


class IslandGroup:
    """N child sessions evolving one request, with ring migration.

    The parent session builds it as its stepper: fresh (``state=None``,
    children spawned off the parent rng) or restored from the ``state``
    block of an island checkpoint.
    """

    def __init__(self, parent: "SolveSession", state: dict | None) -> None:
        self.parent = parent
        request = parent.request
        self.interval = request.migration_interval
        self.jobs = request.island_jobs
        self.rounds = 0
        #: Best objective ever seen across islands (parent incumbent
        #: events fire on strict improvements of this).
        self.tracked_best: float | None = None
        self._pool: GraphPool | None = None
        if state is None:
            # Child seeds come from ``parent.rng.spawn`` — recorded in the
            # parent's encoded rng state (``n_children_spawned``), so a
            # checkpointed parent never re-spawns overlapping lineages.
            parent.phase = "islands"
            seeds = spawn_rngs(parent.rng, request.islands)
            self.children = [self._start_child(rng) for rng in seeds]
            return
        children_state = state.get("children")
        if not isinstance(children_state, list):
            children_state = []
        if len(children_state) != request.islands:
            raise CheckpointError(
                f"island checkpoint carries {len(children_state)} children, "
                f"the request asks for islands={request.islands}"
            )
        # A restored child's rng is authoritative, so it needs no seed.
        self.children = [
            self._start_child(None, child) for child in children_state
        ]
        self.rounds = int(state.get("rounds", 0))
        tracked = state.get("tracked_best")
        self.tracked_best = None if tracked is None else float(tracked)

    @staticmethod
    def _child_request_args(request: SolveRequest) -> dict:
        """Child-request kwargs (everything but graph and seed).

        Children run unbudgeted and silent: the parent owns budgets,
        heartbeats and events; islands only ever advance through
        :meth:`advance`, ``interval`` iterations at a time.
        """
        return {
            "k": request.k,
            "objective": request.objective,
            "balance_tolerance": request.balance_tolerance,
            "budget": Budget(),
            "name": request.name,
            "heartbeat_interval": None,
            "islands": 1,
        }

    def _start_child(
        self, seed: Any, checkpoint: dict | None = None
    ) -> "SolveSession":
        request = self.parent.request
        child_request = SolveRequest(
            graph=request.graph,
            seed=seed,
            **self._child_request_args(request),
        )
        return self.parent.solver.start(child_request, checkpoint=checkpoint)

    # -- one parent iteration ----------------------------------------------
    def advance(self) -> bool:
        """One round: step every running island ``interval`` iterations,
        surface new incumbents, run the migration ring.  Returns True
        while any island still has work."""
        if self.jobs > 1 and self._running_count() > 1:
            self._advance_parallel()
        else:
            self._advance_serial()
        self.rounds += 1
        self._scan_incumbents()
        adopted = self._migrate()
        self.parent._emit(
            EVENT_MIGRATION,
            round=self.rounds,
            interval=self.interval,
            ring=[
                child.stepper.best_objective() for child in self.children
            ],
            adopted=adopted,
        )
        more = self._running_count() > 0
        if not more:
            self.close()
        return more

    def _running_count(self) -> int:
        return sum(
            1 for child in self.children if child.status == STATUS_RUNNING
        )

    def _advance_serial(self) -> None:
        for child in self.children:
            for _ in range(self.interval):
                if not child.step():
                    break

    def _advance_parallel(self) -> None:
        request = self.parent.request
        if self._pool is None:
            self._pool = GraphPool(
                request.graph, min(self.jobs, len(self.children))
            )
        request_args = self._child_request_args(request)
        futures = {}
        for i, child in enumerate(self.children):
            if child.status != STATUS_RUNNING:
                continue
            futures[i] = self._pool.submit(
                _island_step,
                self.parent.solver,
                request_args,
                child.checkpoint(),
                self.interval,
            )
        # Rebuild in island order so any worker exception surfaces
        # deterministically; the returned checkpoints carry each island's
        # whole state, so this round matches the serial mode (bit for
        # bit on integral weights; see the module docstring).
        for i, future in futures.items():
            self.children[i] = self._start_child(None, future.result())

    # -- incumbents & migration --------------------------------------------
    def _scan_incumbents(self) -> None:
        """Emit a parent ``incumbent`` event per island whose best now
        beats everything seen before (scan order = island order, so the
        stream is independent of execution mode)."""
        for i, child in enumerate(self.children):
            objective = child.stepper.best_objective()
            if objective is None:
                continue
            if (
                self.tracked_best is None
                or objective < self.tracked_best - _EPS
            ):
                self.tracked_best = float(objective)
                self.parent._emit(
                    EVENT_INCUMBENT, objective=self.tracked_best, island=i
                )

    def _migrate(self) -> list[int]:
        """Ring migration over a simultaneous snapshot of island bests.

        Island ``i`` adopts island ``(i-1) % n``'s incumbent when the
        donor's objective is strictly better than its own; finished
        islands donate but never receive.  Returns the adopting island
        indices (the ``migration`` event payload).
        """
        n = len(self.children)
        if n < 2:
            return []
        snapshot: list[tuple[float | None, "Partition | None"]] = [
            (child.stepper.best_objective(), child.stepper.best_partition())
            for child in self.children
        ]
        adopted = []
        for i, child in enumerate(self.children):
            if child.status != STATUS_RUNNING:
                continue
            donor_objective, donor_partition = snapshot[(i - 1) % n]
            if donor_partition is None or donor_objective is None:
                continue
            mine = snapshot[i][0]
            if mine is None or donor_objective < mine - _EPS:
                child.stepper.adopt_incumbent(
                    donor_partition, donor_objective
                )
                adopted.append(i)
        return adopted

    # -- reduce -------------------------------------------------------------
    def _winner(self) -> "SolveSession | None":
        """Deterministic reduce: argmin (objective, island index)."""
        winner = None
        winner_objective = math.inf
        for child in self.children:
            partition = child.stepper.best_partition()
            if partition is None:
                continue
            objective = child.stepper.best_objective()
            objective = math.inf if objective is None else float(objective)
            if winner is None or objective < winner_objective:
                winner = child
                winner_objective = objective
        return winner

    def best_partition(self) -> "Partition | None":
        winner = self._winner()
        return winner.stepper.best_partition() if winner else None

    def best_objective(self) -> float | None:
        winner = self._winner()
        return winner.stepper.best_objective() if winner else None

    def progress_payload(self) -> dict:
        return {
            "islands": len(self.children),
            "islands_running": self._running_count(),
            "migration_round": self.rounds,
        }

    # -- checkpoint ----------------------------------------------------------
    def export_state(self) -> dict:
        """Full island state: per-child checkpoints plus ring bookkeeping
        (JSON-serialisable; round-trips bit-exactly mid-migration)."""
        return {
            "rounds": self.rounds,
            "tracked_best": self.tracked_best,
            "children": [child.checkpoint() for child in self.children],
        }

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Tear down the island pool and its shared graph segment
        (idempotent; called automatically when the last island stops)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
