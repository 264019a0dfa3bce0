"""`repro.api` — the unified solver API.

One stable, introspectable, interruptible programmatic surface over all
six partitioner families (fusion–fission, multilevel, simulated
annealing, ant colony, spectral/linear, percolation):

* :class:`Solver` base class — ``solver.start(request) -> SolveSession``;
  every registered partitioner subclasses it, and a session is the only
  way to run one (:func:`get_solver` builds them by registry name).
* :class:`SolveRequest` / :class:`SolveReport` — the request/response
  dataclasses (graph, k, objective, seed, budgets).
* :class:`SolveSession` — ``step()``/``run()`` execution with structured
  :class:`SolveEvent` streaming to observers, cooperative wall-clock and
  iteration budgets, ``cancel()``, and JSON ``checkpoint()`` /
  :func:`resume` that reproduces the uninterrupted run deterministically.
* :func:`solve` — the one-call convenience entry point; surfaced on the
  command line as ``repro solve``.

Quickstart
----------
>>> from repro.api import Budget, solve
>>> from repro.graph import weighted_caveman_graph
>>> report = solve(weighted_caveman_graph(4, 6), k=4, method="multilevel",
...                seed=0)
>>> report.status, report.partition.num_parts
('done', 4)

Streaming, budgets and checkpointing::

    from repro.api import JsonlEventWriter, SolveRequest, get_solver

    solver = get_solver("fusion-fission", k=32, max_steps=4000)
    session = solver.start(SolveRequest(graph, k=32, seed=0))
    session.subscribe(JsonlEventWriter("events.jsonl"))
    report = session.run(max_seconds=2.0)     # pauses when out of budget
    if report.status == "running":            # preempted, not finished
        ck = session.checkpoint()             # JSON-serialisable dict
        ...                                   # ship it anywhere
        session = resume(graph, ck)           # later / elsewhere
        report = session.run()                # identical final partition

See ``docs/api.md`` for the full solver, event and checkpoint formats.
"""

from repro.api.events import (
    EVENT_CHECKPOINT,
    EVENT_DONE,
    EVENT_HEARTBEAT,
    EVENT_INCUMBENT,
    EVENT_ITERATION,
    EVENT_MIGRATION,
    EVENT_PAUSE,
    EVENT_PHASE,
    EVENT_START,
    JsonlEventWriter,
    SolveEvent,
)
from repro.api.facade import get_solver, resume, solve
from repro.api.islands import IslandGroup
from repro.api.request import (
    STATUS_CANCELLED,
    STATUS_DONE,
    STATUS_RUNNING,
    Budget,
    SolveReport,
    SolveRequest,
    parse_duration,
)
from repro.api.session import (
    CHECKPOINT_SCHEMA,
    SolveSession,
    Solver,
    decode_rng,
    encode_rng,
)

__all__ = [
    "Solver",
    "SolveRequest",
    "SolveReport",
    "SolveSession",
    "SolveEvent",
    "Budget",
    "IslandGroup",
    "JsonlEventWriter",
    "solve",
    "resume",
    "get_solver",
    "parse_duration",
    "encode_rng",
    "decode_rng",
    "CHECKPOINT_SCHEMA",
    "STATUS_RUNNING",
    "STATUS_DONE",
    "STATUS_CANCELLED",
    "EVENT_START",
    "EVENT_PHASE",
    "EVENT_ITERATION",
    "EVENT_HEARTBEAT",
    "EVENT_INCUMBENT",
    "EVENT_MIGRATION",
    "EVENT_CHECKPOINT",
    "EVENT_PAUSE",
    "EVENT_DONE",
]
