"""Exception hierarchy for the :mod:`repro` library.

All library errors derive from :class:`ReproError` so callers can catch one
base class at the API boundary.

Fault taxonomy
--------------
The execution layer (portfolio engine, session API, bench harness, CLI)
classifies every failure into one *error kind* — a short stable string
stored on :class:`~repro.engine.aggregate.RunRecord.error_kind` and used
by :class:`~repro.engine.retry.RetryPolicy` to decide retryability:

==============  ========================================  ==========
kind            raised as                                 retryable*
==============  ========================================  ==========
``transient``   :class:`TransientError`                   yes
``crash``       :class:`SolverCrash` / dead pool worker   yes
``timeout``     :class:`TaskTimeout`                      yes
``invalid``     :class:`ResultInvalid`                    no
``config``      :class:`ConfigurationError`               no
``cancelled``   (engine-level deadline cancellation)      no
``error``       anything else                             no
==============  ========================================  ==========

\\* :class:`~repro.engine.retry.RetryPolicy` retries exactly these kinds
(``repro.engine.retry.DEFAULT_RETRY_KINDS``).
"""

from __future__ import annotations

#: Stable error-kind strings (see the taxonomy table above).
ERROR_KIND_TRANSIENT = "transient"
ERROR_KIND_CRASH = "crash"
ERROR_KIND_TIMEOUT = "timeout"
ERROR_KIND_INVALID = "invalid"
ERROR_KIND_CONFIG = "config"
ERROR_KIND_CANCELLED = "cancelled"
ERROR_KIND_ERROR = "error"


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for malformed graph inputs (bad CSR arrays, negative weights,
    inconsistent symmetric structure, out-of-range vertex ids)."""


class PartitionError(ReproError):
    """Raised for invalid partition states or operations (empty parts where
    forbidden, assignment arrays of the wrong length, moves of nonexistent
    vertices)."""


class ConvergenceError(ReproError):
    """Raised when an iterative numerical routine (Lanczos, RQI) fails to
    reach the requested tolerance within its iteration budget."""


class ConfigurationError(ReproError):
    """Raised when user-supplied algorithm parameters are inconsistent
    (e.g. ``tmin >= tmax``, ``k < 1``, probabilities outside [0, 1])."""


class CheckpointError(ReproError):
    """Raised when a solve checkpoint cannot be restored (unknown schema,
    method/k mismatch against the resuming request, malformed state)."""


class TransientError(ReproError):
    """A plausibly-spurious failure (flaky I/O, resource pressure, an
    injected chaos fault): re-running the exact same task may succeed.

    Base class of the retryable family — ``except TransientError``
    catches crashes and timeouts too."""


class SolverCrash(TransientError):
    """A solver's worker process died outright (OOM kill, segfault,
    ``os._exit``).  Raised in-process when the engine *simulates* such a
    death; pool workers surface it as ``BrokenProcessPool``, which the
    runner attributes and reclassifies to this kind."""


class TaskTimeout(TransientError):
    """A task exceeded its wall-clock timeout, or went silent past the
    heartbeat window and was reaped by the runner."""


class ResultInvalid(ReproError):
    """A solver returned a malformed result (assignment of the wrong
    shape, part labels outside ``[0, k)``).  Deterministic — retrying the
    same seed would reproduce it — so not retryable by default."""


def classify_error(exc: BaseException) -> str:
    """Map an exception to its stable error kind (taxonomy above).

    ``BrokenProcessPool`` (not a :class:`ReproError`) classifies as
    ``crash`` so pool-worker deaths and in-process simulations report
    identically.
    """
    from concurrent.futures.process import BrokenProcessPool

    if isinstance(exc, SolverCrash):
        return ERROR_KIND_CRASH
    if isinstance(exc, TaskTimeout):
        return ERROR_KIND_TIMEOUT
    if isinstance(exc, TransientError):
        return ERROR_KIND_TRANSIENT
    if isinstance(exc, ResultInvalid):
        return ERROR_KIND_INVALID
    if isinstance(exc, ConfigurationError):
        return ERROR_KIND_CONFIG
    if isinstance(exc, BrokenProcessPool):
        return ERROR_KIND_CRASH
    return ERROR_KIND_ERROR
