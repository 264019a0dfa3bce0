"""Top-level entry points of the unified solver API.

* :func:`get_solver` — registry-backed solver construction (every method
  name/alias the CLI accepts).
* :func:`solve` — one-call convenience: build, start, run, report.
* :func:`resume` — rebuild a session from a checkpoint dict and the
  graph it was solving.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from repro.common.exceptions import CheckpointError
from repro.common.rng import SeedLike
from repro.graph.graph import Graph
from repro.api.events import SolveEvent
from repro.api.request import Budget, SolveReport, SolveRequest
from repro.api.session import CHECKPOINT_SCHEMA, SolveSession

__all__ = ["Solver", "get_solver", "solve", "resume"]


@runtime_checkable
class Solver(Protocol):
    """The one protocol every partitioner family implements.

    ``start`` opens a :class:`~repro.api.session.SolveSession` for a
    request (optionally resuming a checkpoint); the session gets the
    object it drives from ``stepper`` (see :mod:`repro.api.session`);
    ``name`` is the canonical registry name.
    """

    name: str

    def start(
        self, request: SolveRequest, checkpoint: dict | None = None
    ) -> SolveSession:
        ...

    def stepper(
        self, session: SolveSession, state: dict | None = None
    ) -> Any:
        ...


def get_solver(method: str, k: int, **options: Any) -> Solver:
    """Build a solver by registry name (aliases accepted).

    Unknown names raise :class:`~repro.common.exceptions.ConfigurationError`
    listing every canonical method and alias.
    """
    from repro.bench.registry import METHOD_FACTORIES, canonical_method

    return METHOD_FACTORIES[canonical_method(method)](k, **options)


def solve(
    graph: Graph,
    k: int,
    method: str = "fusion-fission",
    *,
    objective: str | None = None,
    seed: SeedLike = None,
    budget: Budget | None = None,
    balance_tolerance: float | None = None,
    observers: tuple[Callable[[SolveEvent], None], ...] = (),
    name: str = "graph",
    islands: int = 1,
    migration_interval: int = 10,
    island_jobs: int = 1,
    **options: Any,
) -> SolveReport:
    """One-call solve: build the solver, run a session, return the report.

    Extra ``options`` go to the solver constructor (e.g.
    ``max_steps=500`` for fusion–fission); ``islands``/
    ``migration_interval``/``island_jobs`` configure island-model
    execution for the iterative families (see
    :class:`~repro.api.request.SolveRequest`).

    Examples
    --------
    >>> from repro.graph import weighted_caveman_graph
    >>> from repro.api import solve
    >>> report = solve(weighted_caveman_graph(4, 6), k=4,
    ...                method="multilevel", seed=0)
    >>> report.status
    'done'
    >>> report.partition.num_parts
    4
    """
    solver = get_solver(method, k, **options)
    request = SolveRequest(
        graph=graph,
        k=k,
        objective=objective,
        balance_tolerance=balance_tolerance,
        seed=seed,
        budget=budget or Budget(),
        name=name,
        islands=islands,
        migration_interval=migration_interval,
        island_jobs=island_jobs,
    )
    session = solver.start(request)
    for observer in observers:
        session.subscribe(observer)
    return session.run()


def resume(
    graph: Graph,
    checkpoint: dict,
    *,
    budget: Budget | None = None,
    observers: tuple[Callable[[SolveEvent], None], ...] = (),
    island_jobs: int = 1,
) -> SolveSession:
    """Rebuild a paused session from a checkpoint dict.

    The checkpoint stores the method name and constructor options, so
    only the graph (never serialised) must be supplied.  The returned
    session continues exactly where :meth:`SolveSession.checkpoint` left
    off — same seed + same checkpoint → same final partition.  Island
    checkpoints resume with their recorded island layout;
    ``island_jobs`` only picks the execution mode, which never changes
    the result.
    """
    if not isinstance(checkpoint, dict):
        raise CheckpointError(
            f"checkpoint must be a dict, got {type(checkpoint).__name__}"
        )
    if checkpoint.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"unsupported checkpoint schema {checkpoint.get('schema')!r} "
            f"(expected {CHECKPOINT_SCHEMA!r})"
        )
    try:
        method = checkpoint["method"]
        k = int(checkpoint["k"])
        options = dict(checkpoint.get("options") or {})
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint header is malformed: {type(exc).__name__}: {exc}"
        ) from exc
    try:
        solver = get_solver(method, k, **options)
    except TypeError as exc:
        # e.g. a tampered checkpoint whose options belong to a different
        # method than its header claims.
        raise CheckpointError(
            f"checkpoint options do not fit method {method!r}: {exc}"
        ) from exc
    request = SolveRequest(
        graph=graph,
        k=k,
        objective=checkpoint.get("objective"),
        seed=None,  # the restored rng state is authoritative
        budget=budget or Budget(),
        name=checkpoint.get("name", "graph"),
        islands=int(checkpoint.get("islands", 1) or 1),
        migration_interval=int(checkpoint.get("migration_interval", 10) or 10),
        island_jobs=island_jobs,
    )
    session = solver.start(request, checkpoint=checkpoint)
    for observer in observers:
        session.subscribe(observer)
    return session
