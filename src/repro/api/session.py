"""Run sessions: one class drives every solve.

A :class:`SolveSession` is the live execution of one
:class:`~repro.api.request.SolveRequest` by one solver.  It is created by
``solver.start(request)`` and drives one *stepper* through
:meth:`~SolveSession.step`/:meth:`~SolveSession.run`, emitting
:class:`~repro.api.events.SolveEvent` records to registered observers,
honouring wall-clock/iteration budgets with cooperative pause semantics,
and serialising its full state into a JSON checkpoint that
:func:`repro.api.resume` restores deterministically.

Steppers
--------
The session gets its stepper from the solver's one factory,
``solver.stepper(session, state)``: with ``state=None`` it builds a
fresh stepper whose every random draw goes through ``session.rng``
(announcing setup phases through ``session._set_phase``); otherwise it
restores one from the ``state`` block of a checkpoint.  Either way it
wires ``session._incumbent_improved`` as the improvement callback.  An
``islands > 1`` session drives an :class:`~repro.api.islands.IslandGroup`
instead.  A stepper implements:

* ``advance() -> bool`` — one session iteration; True while work remains;
* ``best_partition()`` / ``best_objective()`` — the best-known partition
  and its objective, or None (a report then evaluates the partition);
* ``progress_payload() -> dict`` — extras for ``iteration`` events;
* ``export_state() -> dict`` — JSON-serialisable state (the session
  stores the rng);
* ``close()`` — release resources once the session stops;
* ``adopt_incumbent(partition, objective)`` — island children only:
  continue from a migrated incumbent.

The iterative families' loop classes (``AnnealRun``, ``AntColonyRun``,
``FusionFissionRun``) are their steppers; :class:`OneShotStepper` runs
the direct constructions (linear, spectral, multilevel, percolation).

Determinism contract
--------------------
For a session over a graph with **integral edge weights** (every graph
the test suite pins seeds on), the following two runs produce
bit-identical final partitions:

1. ``solver.start(request).run()`` uninterrupted,
2. run-to-iteration-``i`` → ``checkpoint()`` → JSON round-trip →
   ``resume`` → ``run()``.

For (2) the checkpoint stores the numpy bit-generator state verbatim plus
every float the solver threads through comparisons (energies are
round-tripped exactly by JSON's shortest-repr float encoding); partitions
are rebuilt from their assignment arrays, whose derived aggregates are
exact for integral weights regardless of summation order.  Graphs with
arbitrary float weights resume to within accumulation ulps — documented,
not guaranteed bit-for-bit.

Wall-clock budgets restart from the checkpointed *cumulative* elapsed
time, so ``Budget(max_seconds=10)`` spans resumes too.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from repro.common.exceptions import (
    CheckpointError,
    ConfigurationError,
    ReproError,
)
from repro.common.rng import ensure_rng
from repro.common.timer import Deadline, Ticker
from repro.graph.fingerprint import graph_fingerprint
from repro.api.events import (
    EVENT_CHECKPOINT,
    EVENT_DONE,
    EVENT_HEARTBEAT,
    EVENT_INCUMBENT,
    EVENT_ITERATION,
    EVENT_PAUSE,
    EVENT_PHASE,
    EVENT_START,
    SolveEvent,
)
from repro.api.request import (
    STATUS_CANCELLED,
    STATUS_DONE,
    STATUS_RUNNING,
    SolveReport,
    SolveRequest,
)
from repro.partition.metrics import evaluate_partition
from repro.partition.partition import Partition

__all__ = [
    "SolveSession",
    "OneShotStepper",
    "CHECKPOINT_SCHEMA",
    "encode_rng",
    "decode_rng",
]

CHECKPOINT_SCHEMA = "repro-solve-checkpoint/v1"

#: Sentinel distinguishing "use the request budget" from an explicit None
#: ("unlimited") in :meth:`SolveSession.run` overrides.
_UNSET: Any = object()


def encode_rng(rng: np.random.Generator) -> dict:
    """JSON-serialisable snapshot of a numpy generator's exact state.

    Captures both the bit-generator word state *and* the seed-sequence
    lineage (entropy, spawn key, children spawned): ``Generator.spawn``
    — the repository's convention for handing independent child streams
    to nested components — draws from the seed sequence, not the word
    state, so restoring only ``bit_generator.state`` would replay the
    stream but spawn different children.
    """
    state = {"state": rng.bit_generator.state}
    seed_seq = getattr(rng.bit_generator, "seed_seq", None)
    if isinstance(seed_seq, np.random.SeedSequence):
        entropy = seed_seq.entropy
        state["seed_seq"] = {
            "entropy": (
                list(entropy) if isinstance(entropy, (list, tuple))
                else entropy
            ),
            "spawn_key": list(seed_seq.spawn_key),
            "pool_size": seed_seq.pool_size,
            "n_children_spawned": seed_seq.n_children_spawned,
        }
    return state


def decode_rng(state: dict) -> np.random.Generator:
    """Rebuild a generator from :func:`encode_rng` output (bit-exact)."""
    try:
        word_state = state["state"]
        cls = getattr(np.random, word_state["bit_generator"])
        seed_seq_state = state.get("seed_seq")
        if seed_seq_state is not None:
            entropy = seed_seq_state["entropy"]
            seed_seq = np.random.SeedSequence(
                entropy=entropy,
                spawn_key=tuple(seed_seq_state["spawn_key"]),
                pool_size=int(seed_seq_state["pool_size"]),
                n_children_spawned=int(
                    seed_seq_state["n_children_spawned"]
                ),
            )
            bit_generator = cls(seed_seq)
        else:
            bit_generator = cls()
        bit_generator.state = word_state
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint rng state is malformed: {type(exc).__name__}: {exc}"
        ) from exc
    return np.random.Generator(bit_generator)


class SolveSession:
    """One live solve: stepping, events, budgets, checkpointing.

    The session drives one stepper (see the module docstring) and owns
    everything user-facing — :meth:`step`, :meth:`run`,
    :meth:`subscribe`, :meth:`cancel`, :meth:`checkpoint`,
    :meth:`report` — so every solver family behaves identically.

    Parameters
    ----------
    solver:
        The solver that created this session (exposes ``name``, the
        configured hyper-parameters and the ``stepper`` factory).
    request:
        The :class:`~repro.api.request.SolveRequest` being solved.
    checkpoint:
        Optional checkpoint dict (from :meth:`checkpoint`, possibly JSON
        round-tripped) to resume from instead of a fresh start.
    """

    #: Human-readable name of the phase the solver is currently in;
    #: steppers announce changes through :meth:`_set_phase`.
    phase: str = "setup"
    #: The object :meth:`step` advances (None only while it is built).
    stepper: Any = None

    def __init__(
        self,
        solver: Any,
        request: SolveRequest,
        checkpoint: dict | None = None,
    ) -> None:
        self.solver = solver
        self.request = request
        self.method: str = getattr(solver, "name", type(solver).__name__)
        self.status: str = STATUS_RUNNING
        self.iteration = 0
        self.events_emitted = 0
        self._observers: list[Callable[[SolveEvent], None]] = []
        self._cancelled = False
        self._heartbeat = Ticker(request.heartbeat_interval)
        self._elapsed_offset = 0.0
        self._clock_start: float | None = time.perf_counter()
        if request.islands > 1 and not getattr(
            solver, "supports_islands", False
        ):
            raise ConfigurationError(
                f"method {self.method!r} does not support island-model "
                f"execution (requested islands={request.islands}); only "
                "the iterative families (simulated-annealing, ant-colony, "
                "fusion-fission) do"
            )
        if checkpoint is None:
            self.rng = ensure_rng(request.seed)
            self.stepper = self._build_stepper(None)
        else:
            self._load_checkpoint(checkpoint)
        self._clock_pause()

    def _build_stepper(self, state: dict | None) -> Any:
        """Fresh (``state=None``) or restored stepper for this request."""
        if self.request.islands > 1:
            from repro.api.islands import IslandGroup

            return IslandGroup(self, state)
        return self.solver.stepper(self, state)

    def _objective_name(self) -> str:
        """Criterion name reported for this session."""
        return (
            self.request.objective
            or getattr(self.solver, "objective", None)
            or "mcut"
        )

    # -- observers & events ------------------------------------------------
    def subscribe(
        self, observer: Callable[[SolveEvent], None]
    ) -> Callable[[SolveEvent], None]:
        """Register an event observer; returns it for later unsubscribe."""
        self._observers.append(observer)
        return observer

    def unsubscribe(self, observer: Callable[[SolveEvent], None]) -> None:
        """Remove a previously registered observer (no-op if absent)."""
        if observer in self._observers:
            self._observers.remove(observer)

    def _emit(
        self, type_: str, objective: float | None = None, **payload: Any
    ) -> None:
        if objective is None and self.stepper is not None:
            objective = self.stepper.best_objective()
        event = SolveEvent(
            type=type_,
            iteration=self.iteration,
            elapsed=self.elapsed(),
            objective=objective,
            payload=payload,
        )
        self.events_emitted += 1
        for observer in list(self._observers):
            observer(event)

    def _set_phase(self, phase: str) -> None:
        """Switch phases, emitting a ``phase`` event on actual change."""
        if phase != self.phase:
            self.phase = phase
            self._emit(EVENT_PHASE, phase=phase)

    def _incumbent_improved(self, objective: float, best: Partition) -> None:
        """Stepper callback whenever the best solution improves."""
        self._emit(
            EVENT_INCUMBENT, objective=objective, num_parts=best.num_parts
        )

    # -- time accounting ----------------------------------------------------
    def elapsed(self) -> float:
        """Seconds of *solve* time, cumulative across checkpoint/resume.

        The clock only runs inside setup and :meth:`step` — a session
        held paused in-process (between ``run()`` calls) accrues nothing,
        so ``Budget.max_seconds`` measures work, not idle wall time.
        """
        running = 0.0
        if self._clock_start is not None:
            running = time.perf_counter() - self._clock_start
        return self._elapsed_offset + running

    def _clock_resume(self) -> None:
        if self._clock_start is None:
            self._clock_start = time.perf_counter()

    def _clock_pause(self) -> None:
        if self._clock_start is not None:
            self._elapsed_offset += time.perf_counter() - self._clock_start
            self._clock_start = None

    # -- control ------------------------------------------------------------
    def cancel(self) -> None:
        """Request cooperative cancellation (honoured at the next
        iteration boundary; safe to call from an observer)."""
        self._cancelled = True

    @property
    def done(self) -> bool:
        """True once the solver finished naturally."""
        return self.status == STATUS_DONE

    def step(self) -> bool:
        """Advance one iteration; return True while more work remains.

        Emits one ``iteration`` event per call (plus any ``incumbent``/
        ``phase`` events the solver raised inside, and a ``heartbeat``
        at most once per ``request.heartbeat_interval`` of solve time).
        A finished or cancelled session returns False without touching
        solver state.
        """
        if self.status != STATUS_RUNNING:
            return False
        if self._cancelled:
            self.status = STATUS_CANCELLED
            return False
        self._clock_resume()
        try:
            more = self.stepper.advance()
            self.iteration += 1
            self._emit(EVENT_ITERATION, **self.stepper.progress_payload())
            # Liveness signal for supervisors (the portfolio runner's
            # straggler reaper treats silence past the task timeout as a
            # hang): at most one per heartbeat_interval of solve time.
            if self._heartbeat.due(self.elapsed()):
                self._emit(EVENT_HEARTBEAT, phase=self.phase)
            if not more:
                self.status = STATUS_DONE
                self._set_phase("done")
                self._emit(EVENT_DONE)
            elif self._cancelled:
                self.status = STATUS_CANCELLED
            if self.status != STATUS_RUNNING:
                self.stepper.close()
        finally:
            self._clock_pause()
        return self.status == STATUS_RUNNING

    def run(
        self,
        max_seconds: float | None = _UNSET,
        max_iterations: int | None = _UNSET,
    ) -> SolveReport:
        """Drive :meth:`step` until done, cancelled, or out of budget.

        ``max_seconds``/``max_iterations`` override the request's budget
        for this call (pass ``None`` explicitly for "unlimited"); both
        are session-total limits (iteration counts and elapsed time
        carry across resumes).  Exhausting a budget *pauses* the session
        — status stays ``running`` and a later ``run()`` (or a
        checkpoint/resume cycle) continues the work.
        """
        budget = self.request.budget
        if max_seconds is _UNSET:
            max_seconds = budget.max_seconds
        if max_iterations is _UNSET:
            max_iterations = budget.max_iterations
        self._emit(
            EVENT_START,
            method=self.method,
            k=self.request.k,
            criterion=self._objective_name(),
            resumed=self.iteration > 0,
        )
        remaining = None
        if max_seconds is not None:
            remaining = max_seconds - self.elapsed()
        deadline = Deadline(remaining)
        pause_reason = None
        while self.status == STATUS_RUNNING:
            if self._cancelled:
                self.status = STATUS_CANCELLED
                break
            if max_iterations is not None and self.iteration >= max_iterations:
                pause_reason = "iteration budget exhausted"
                break
            if deadline.expired():
                pause_reason = "time budget exhausted"
                break
            self.step()
        if self.status == STATUS_CANCELLED:
            self._emit(EVENT_PAUSE, reason="cancelled")
        elif pause_reason is not None:
            self._emit(EVENT_PAUSE, reason=pause_reason)
        return self.report()

    # -- results ------------------------------------------------------------
    @property
    def partition(self) -> Partition:
        """The best-known partition (raises before one exists)."""
        best = self.stepper.best_partition()
        if best is None:
            raise ReproError(
                f"session ({self.method}) has no partition yet — "
                "run() or step() it first"
            )
        return best

    def report(self) -> SolveReport:
        """Snapshot the session into a :class:`SolveReport`."""
        best = self.stepper.best_partition()
        objective = self._objective_name()
        value = self.stepper.best_objective()
        metrics = None
        if best is not None:
            metrics = evaluate_partition(best)
            if value is None:
                value = float(getattr(metrics, objective))
        return SolveReport(
            method=self.method,
            status=self.status,
            objective=objective,
            objective_value=float("inf") if value is None else float(value),
            partition=best,
            metrics=metrics,
            iterations=self.iteration,
            seconds=self.elapsed(),
            events=self.events_emitted,
        )

    # -- checkpoint / resume -------------------------------------------------
    def checkpoint(self) -> dict:
        """Serialise the full session state to a JSON-compatible dict.

        The dict (schema ``repro-solve-checkpoint/v1``) carries the
        method name and constructor options needed to rebuild the
        solver, the graph's shape and content fingerprint (resume
        refuses any other graph), the exact rng state, and the stepper's
        state export — ``json.dumps`` → ``json.loads`` →
        :func:`repro.api.resume` continues the run deterministically.
        """
        from repro import __version__

        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "version": __version__,
            "method": self.method,
            "options": solver_options(self.solver),
            "graph": {
                "num_vertices": self.request.graph.num_vertices,
                "num_edges": self.request.graph.num_edges,
                "fingerprint": graph_fingerprint(self.request.graph),
            },
            "k": self.request.k,
            "objective": self.request.objective,
            "name": self.request.name,
            "status": self.status,
            "iteration": self.iteration,
            "elapsed": self.elapsed(),
            "phase": self.phase,
            "islands": self.request.islands,
            "migration_interval": self.request.migration_interval,
            "rng": encode_rng(self.rng),
            "state": self.stepper.export_state(),
        }
        self._emit(EVENT_CHECKPOINT)
        return payload

    def _load_checkpoint(self, checkpoint: dict) -> None:
        if not isinstance(checkpoint, dict):
            raise CheckpointError(
                f"checkpoint must be a dict, got {type(checkpoint).__name__}"
            )
        schema = checkpoint.get("schema")
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"unsupported checkpoint schema {schema!r} "
                f"(expected {CHECKPOINT_SCHEMA!r})"
            )
        method = checkpoint.get("method")
        if method != self.method:
            raise CheckpointError(
                f"checkpoint was taken by method {method!r}, "
                f"cannot resume with {self.method!r}"
            )
        if checkpoint.get("k") != self.request.k:
            raise CheckpointError(
                f"checkpoint is for k={checkpoint.get('k')}, "
                f"request asks k={self.request.k}"
            )
        stamp = checkpoint.get("graph")
        if stamp is not None:
            graph = self.request.graph
            if (
                stamp.get("num_vertices") != graph.num_vertices
                or stamp.get("num_edges") != graph.num_edges
            ):
                raise CheckpointError(
                    "checkpoint was taken on a different graph "
                    f"(n={stamp.get('num_vertices')}, "
                    f"m={stamp.get('num_edges')}; the request's has "
                    f"n={graph.num_vertices}, m={graph.num_edges})"
                )
            # Checkpoints written before the fingerprint existed keep
            # only the (n, m) check above.
            fingerprint = stamp.get("fingerprint")
            if fingerprint not in (None, graph_fingerprint(graph)):
                raise CheckpointError(
                    "checkpoint was taken on a graph of the same shape but "
                    f"different edges or weights (fingerprint {fingerprint})"
                )
        islands = int(checkpoint.get("islands", 1) or 1)
        if islands != self.request.islands:
            raise CheckpointError(
                f"checkpoint was taken with islands={islands}, the request "
                f"asks islands={self.request.islands} (resume carries the "
                "island layout through the checkpoint itself)"
            )
        try:
            self.rng = decode_rng(checkpoint["rng"])
            self.iteration = int(checkpoint["iteration"])
            self.status = str(checkpoint["status"])
            self._elapsed_offset = float(checkpoint.get("elapsed", 0.0))
            self.phase = str(checkpoint.get("phase", "setup"))
            self.stepper = self._build_stepper(checkpoint["state"])
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint state is malformed: {type(exc).__name__}: {exc}"
            ) from exc


def solver_options(solver: Any) -> dict:
    """Constructor options of a solver, as JSON-serialisable scalars.

    Dataclass solvers export every scalar field except ``k`` (the
    checkpoint stores ``k`` separately); anything non-scalar — ablation
    lambdas are rebuilt from the scalars that requested them — is
    dropped.  Non-dataclass solvers export nothing.
    """
    import dataclasses

    if not dataclasses.is_dataclass(solver):
        return {}
    options = {}
    for f in dataclasses.fields(solver):
        if f.name == "k":
            continue
        value = getattr(solver, f.name)
        if isinstance(value, (bool, int, float, str, type(None))):
            options[f.name] = value
    return options


class OneShotStepper:
    """Stepper for direct-construction solvers.

    Linear, spectral, multilevel and percolation compute their partition
    in one piece — there is no inner loop to suspend.  The session runs
    them as a single-iteration program: a checkpoint taken *before* the
    iteration captures only the rng state (resume recomputes the whole
    construction from it, bit-identically); a checkpoint taken after
    carries the finished assignment.  The construction itself is the
    solver's ``partition(graph, seed)``; such a solver declares
    ``stepper = OneShotStepper`` as its factory.
    """

    def __init__(
        self, session: SolveSession, state: dict | None = None
    ) -> None:
        # No reference back to the session: a one-shot session is freed
        # by reference counting as soon as its caller drops it.
        self.solver, self.graph = session.solver, session.request.graph
        self.rng = session.rng
        self.result: Partition | None = None
        if state is None:
            session._set_phase("construct")
        elif state.get("assignment") is not None:
            self.result = Partition(
                self.graph, np.asarray(state["assignment"], dtype=np.int64)
            )

    def advance(self) -> bool:
        self.result = self.solver.partition(self.graph, seed=self.rng)
        return False

    def best_partition(self) -> Partition | None:
        return self.result

    def best_objective(self) -> None:
        return None

    def progress_payload(self) -> dict:
        return {}

    def export_state(self) -> dict:
        assignment = None
        if self.result is not None:
            assignment = [int(p) for p in self.result.assignment]
        return {"assignment": assignment}

    def close(self) -> None:
        """Nothing to release."""
