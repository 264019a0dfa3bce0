"""Island-model execution of iterative solve sessions.

An :class:`IslandGroup` turns one :class:`~repro.api.session.SolveSession`
into N independent *islands* — child sessions of the same solver, each
seeded from its own ``SeedSequence.spawn`` lineage — that evolve in
rounds.  One parent session iteration is one round: every running island
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
from repro.api.events import EVENT_MIGRATION
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

    Build with :meth:`create` (fresh) or :meth:`restore` (from the
    ``state`` block of an island checkpoint); the parent session routes
    its ``advance``/``best``/``checkpoint`` hooks here whenever
    ``request.islands > 1``.
    """

    def __init__(
        self,
        parent: "SolveSession",
        children: list["SolveSession"],
        interval: int,
        jobs: int,
    ) -> None:
        self.parent = parent
        self.children = children
        self.interval = interval
        self.jobs = jobs
        self.rounds = 0
        #: Best objective ever seen across islands (parent incumbent
        #: events fire on strict improvements of this).
        self.tracked_best: float | None = None
        self._pool: GraphPool | None = None

    # -- construction ------------------------------------------------------
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

    @classmethod
    def create(cls, parent: "SolveSession") -> "IslandGroup":
        """Spawn ``request.islands`` fresh children off the parent rng.

        Child seeds come from ``parent.rng.spawn`` — recorded in the
        parent's encoded rng state (``n_children_spawned``), so a
        checkpointed parent never re-spawns overlapping lineages.
        """
        request = parent.request
        children: list["SolveSession"] = []
        for rng in spawn_rngs(parent.rng, request.islands):
            child_request = SolveRequest(
                graph=request.graph,
                seed=rng,
                **cls._child_request_args(request),
            )
            children.append(parent.solver.start(child_request))
        return cls(
            parent,
            children,
            interval=request.migration_interval,
            jobs=request.island_jobs,
        )

    @classmethod
    def restore(cls, parent: "SolveSession", state: dict) -> "IslandGroup":
        """Rebuild the group from :meth:`export_state` output."""
        request = parent.request
        children_state = state.get("children")
        if (
            not isinstance(children_state, list)
            or len(children_state) != request.islands
        ):
            found = (
                len(children_state)
                if isinstance(children_state, list) else "no"
            )
            raise CheckpointError(
                f"island checkpoint carries {found} children, the request "
                f"asks for islands={request.islands}"
            )
        children = []
        for child_checkpoint in children_state:
            child_request = SolveRequest(
                graph=request.graph,
                seed=None,  # the child's restored rng is authoritative
                **cls._child_request_args(request),
            )
            children.append(
                parent.solver.start(child_request, checkpoint=child_checkpoint)
            )
        group = cls(
            parent,
            children,
            interval=request.migration_interval,
            jobs=request.island_jobs,
        )
        group.rounds = int(state.get("rounds", 0))
        tracked = state.get("tracked_best")
        group.tracked_best = None if tracked is None else float(tracked)
        return group

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
                child._best_objective() for child in self.children
            ],
            adopted=adopted,
        )
        more = any(
            child.status == STATUS_RUNNING for child in self.children
        )
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
            advanced = future.result()
            child_request = SolveRequest(
                graph=request.graph, seed=None, **request_args
            )
            self.children[i] = self.parent.solver.start(
                child_request, checkpoint=advanced
            )

    # -- incumbents & migration --------------------------------------------
    def _scan_incumbents(self) -> None:
        """Emit a parent ``incumbent`` event per island whose best now
        beats everything seen before (scan order = island order, so the
        stream is independent of execution mode)."""
        for i, child in enumerate(self.children):
            objective = child._best_objective()
            if objective is None:
                continue
            if (
                self.tracked_best is None
                or objective < self.tracked_best - _EPS
            ):
                self.tracked_best = float(objective)
                self.parent._incumbent_improved(float(objective), island=i)

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
            (child._best_objective(), child._best_partition())
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
                child._adopt_incumbent(donor_partition, donor_objective)
                adopted.append(i)
        return adopted

    # -- reduce -------------------------------------------------------------
    def _winner(self) -> "SolveSession | None":
        """Deterministic reduce: argmin (objective, island index)."""
        winner = None
        winner_objective = math.inf
        for child in self.children:
            partition = child._best_partition()
            if partition is None:
                continue
            objective = child._best_objective()
            objective = math.inf if objective is None else float(objective)
            if winner is None or objective < winner_objective:
                winner = child
                winner_objective = objective
        return winner

    def best_partition(self) -> "Partition | None":
        winner = self._winner()
        return winner._best_partition() if winner is not None else None

    def best_objective(self) -> float | None:
        winner = self._winner()
        return winner._best_objective() if winner is not None else None

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
