"""The request/report halves of the unified solver API.

:class:`SolveRequest` is the one value a caller hands to any solver:
graph, part count, objective, seed and budgets.
:class:`SolveReport` is what a finished (or paused) session hands back:
the best partition plus status, iteration/time accounting and the full
paper-criteria metrics.  Both are plain dataclasses so they ship across
process boundaries and serialise into JSON reports.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.common.exceptions import ConfigurationError
from repro.common.rng import SeedLike
from repro.graph.graph import Graph
from repro.partition.metrics import PartitionReport
from repro.partition.objectives import get_objective
from repro.partition.partition import Partition

__all__ = [
    "Budget",
    "SolveRequest",
    "SolveReport",
    "parse_duration",
    "STATUS_RUNNING",
    "STATUS_DONE",
    "STATUS_CANCELLED",
]

#: Session status values (``SolveSession.status`` / ``SolveReport.status``).
STATUS_RUNNING = "running"      # preemptible: more work remains
STATUS_DONE = "done"            # the solver finished naturally
STATUS_CANCELLED = "cancelled"  # ``cancel()`` was honoured

_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(ms|s|m|h)?\s*$")
_DURATION_UNITS = {"ms": 1e-3, "s": 1.0, "m": 60.0, "h": 3600.0, None: 1.0}


def parse_duration(text: str | float | int | None) -> float | None:
    """Parse ``"2s"`` / ``"500ms"`` / ``"1.5m"`` / plain seconds.

    ``None`` passes through (no budget).  Raises
    :class:`~repro.common.exceptions.ConfigurationError` on junk so CLI
    typos fail with the accepted grammar in the message.
    """
    if text is None:
        return None
    if isinstance(text, (int, float)):
        value = float(text)
    else:
        match = _DURATION_RE.match(text)
        if match is None:
            raise ConfigurationError(
                f"cannot parse duration {text!r} "
                "(expected e.g. '2', '2s', '500ms', '1.5m', '1h')"
            )
        value = float(match.group(1)) * _DURATION_UNITS[match.group(2)]
    if value <= 0:
        raise ConfigurationError(f"duration must be > 0, got {value}")
    return value


@dataclass
class Budget:
    """Cooperative resource limits for one solve session.

    Both limits are *session-total*: a resumed session keeps counting
    from the checkpointed iteration and elapsed time, so
    ``Budget(max_iterations=100)`` means 100 iterations across every
    ``run()`` call and resume, not per call.

    Attributes
    ----------
    max_seconds:
        Wall-clock ceiling; the session pauses (status stays
        ``running``) at the first iteration boundary past it.  It is
        the only wall-clock budget: while it is set, the metaheuristics
        (annealing, ant colony, fusion–fission) drop their step and
        iteration caps and annealing reheats from its best when frozen,
        so the run uses the whole budget.
    max_iterations:
        Session-iteration ceiling, same pause semantics.
    """

    max_seconds: float | None = None
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ConfigurationError(
                f"max_seconds must be > 0, got {self.max_seconds}"
            )
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ConfigurationError(
                f"max_iterations must be >= 0, got {self.max_iterations}"
            )

    def as_dict(self) -> dict:
        return {
            "max_seconds": self.max_seconds,
            "max_iterations": self.max_iterations,
        }


@dataclass
class SolveRequest:
    """Everything a solver needs to produce one partition.

    Attributes
    ----------
    graph:
        The CSR graph to partition.
    k:
        Target number of parts.
    objective:
        Criterion the metaheuristics optimise and every report is
        scored on (``"cut"``/``"ncut"``/``"mcut"``, case and
        surrounding blanks ignored; anything else is refused).  Direct
        constructions (linear, spectral, multilevel, percolation) do
        not optimise it.
    seed:
        Anything :func:`~repro.common.rng.ensure_rng` accepts.
    budget:
        Session-level cooperative limits (see :class:`Budget`).
    name:
        Free-form instance label carried into reports and events.
    heartbeat_interval:
        Seconds of solve time between ``heartbeat`` events (emitted at
        iteration boundaries, so single-iteration constructions emit
        none mid-solve).  ``None`` disables heartbeats.
    islands:
        Number of independent islands the iterative solver families
        (annealing, ant colony, fusion–fission) evolve within this one
        solve, each from its own ``SeedSequence.spawn`` lineage.  ``1``
        (the default) is the plain sequential path, bit-identical to
        requests predating this field.  With ``islands > 1`` one session
        iteration advances every island ``migration_interval`` of its
        own iterations, then migrates incumbents around a ring
        (``migration`` events).  Solvers without island support
        (``supports_islands`` is false) reject such requests.
    migration_interval:
        Island iterations between incumbent migrations (only meaningful
        when ``islands > 1``).
    island_jobs:
        Worker processes evolving islands in parallel.  ``1`` (default)
        steps the islands round-robin in-process; for graphs with
        integral edge weights both modes produce bit-identical results
        (islands travel between intervals as checkpoints, which are
        exact — see the session determinism contract).  With float
        weights the partitions match, but a resumed island's objective
        can differ in the last digits.
    """

    graph: Graph
    k: int
    objective: str = "mcut"
    seed: SeedLike = None
    budget: Budget = field(default_factory=Budget)
    name: str = "graph"
    heartbeat_interval: float | None = 1.0
    islands: int = 1
    migration_interval: int = 10
    island_jobs: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if self.k > self.graph.num_vertices:
            raise ConfigurationError(
                f"k={self.k} exceeds the vertex count "
                f"({self.graph.num_vertices})"
            )
        self.objective = str(self.objective).strip().lower()
        get_objective(self.objective)
        if self.budget is None:
            self.budget = Budget()
        if self.heartbeat_interval is not None and self.heartbeat_interval <= 0:
            raise ConfigurationError(
                "heartbeat_interval must be > 0 (or None to disable), "
                f"got {self.heartbeat_interval}"
            )
        if self.islands < 1:
            raise ConfigurationError(
                f"islands must be >= 1, got {self.islands}"
            )
        if self.migration_interval < 1:
            raise ConfigurationError(
                f"migration_interval must be >= 1, got {self.migration_interval}"
            )
        if self.island_jobs < 1:
            raise ConfigurationError(
                f"island_jobs must be >= 1, got {self.island_jobs}"
            )

    def as_dict(self) -> dict:
        """Request metadata for reports/events (no graph payload)."""
        return {
            "name": self.name,
            "num_vertices": self.graph.num_vertices,
            "num_edges": self.graph.num_edges,
            "k": self.k,
            "objective": self.objective,
            "budget": self.budget.as_dict(),
            "heartbeat_interval": self.heartbeat_interval,
            "islands": self.islands,
            "migration_interval": self.migration_interval,
        }


@dataclass
class SolveReport:
    """Outcome of (so far) one solve session.

    Attributes
    ----------
    method:
        Canonical solver name that produced the result.
    status:
        ``"done"``, ``"running"`` (paused on a budget) or
        ``"cancelled"``.
    objective:
        Name of the criterion ``objective_value`` is measured on.
    objective_value:
        Best-known value (lower is better; ``inf`` when no solution
        exists yet).
    partition:
        The best :class:`~repro.partition.Partition` (``None`` only when
        a bounded run paused before producing any solution).
    metrics:
        Full paper-criteria :class:`~repro.partition.metrics
        .PartitionReport` of that partition.
    iterations, seconds, events:
        Session accounting (cumulative across resumes).
    """

    method: str
    status: str
    objective: str
    objective_value: float = math.inf
    partition: Partition | None = None
    metrics: PartitionReport | None = None
    iterations: int = 0
    seconds: float = 0.0
    events: int = 0

    @property
    def assignment(self) -> np.ndarray | None:
        """Part id per vertex of the best partition (``None`` if none)."""
        if self.partition is None:
            return None
        return self.partition.assignment

    @property
    def ok(self) -> bool:
        """True when the report carries a partition."""
        return self.partition is not None

    def as_dict(self, include_assignment: bool = False) -> dict:
        """JSON-serialisable view (schema ``repro-solve-report/v1``)."""
        from repro import __version__

        payload: dict[str, Any] = {
            "schema": "repro-solve-report/v1",
            "version": __version__,
            "method": self.method,
            "status": self.status,
            "objective": self.objective,
            "objective_value": (
                self.objective_value
                if math.isfinite(self.objective_value) else None
            ),
            "num_parts": (
                self.partition.num_parts if self.partition is not None else 0
            ),
            "iterations": self.iterations,
            "seconds": self.seconds,
            "events": self.events,
            "metrics": self.metrics.as_dict() if self.metrics else None,
        }
        if include_assignment and self.partition is not None:
            payload["assignment"] = [int(p) for p in self.partition.assignment]
        return payload
