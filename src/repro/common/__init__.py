"""Shared utilities: RNG plumbing, timing, exceptions, validation helpers.

Every stochastic entry point in :mod:`repro` accepts a ``seed`` (or an
already-constructed :class:`numpy.random.Generator`) and routes it through
:func:`repro.common.rng.ensure_rng`, so any experiment in the repository is
reproducible from a single integer.  Seeds, generators and
:class:`numpy.random.SeedSequence` objects all pickle, which is what lets
the portfolio engine (:mod:`repro.engine`) ship per-task seeds to worker
processes without losing determinism; :class:`repro.common.timer.Deadline`
is the shared wall-clock budget type used by both the session's budget
pauses and the engine's cancellation logic.
"""

from repro.common.atomic import atomic_write_json, atomic_write_text
from repro.common.exceptions import (
    GraphError,
    PartitionError,
    ConvergenceError,
    ConfigurationError,
)
from repro.common.rng import ensure_rng, spawn_rngs
from repro.common.timer import Timer, Deadline

__all__ = [
    "GraphError",
    "PartitionError",
    "ConvergenceError",
    "ConfigurationError",
    "ensure_rng",
    "spawn_rngs",
    "Timer",
    "Deadline",
    "atomic_write_text",
    "atomic_write_json",
]
