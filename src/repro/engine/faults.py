"""Deterministic fault injection for the portfolio engine.

A :class:`FaultInjector` makes a specific task of the (spec × seed)
grid misbehave in a specific way on a specific attempt — the chaos-test
harness for the engine's retry, self-healing and straggler machinery.
Faults are keyed by grid coordinates, so the same injection spec
reproduces the same failure sequence on every run and both executors.

Grammar
-------
An injection spec is a ``;``-separated list of entries::

    kind@SPEC,SEED,ATTEMPT[,DURATION]

where ``kind`` is one of

``crash``
    kill the task: pool workers die outright (``os._exit``, taking the
    worker process with them → ``BrokenProcessPool``); the inline
    executor (``jobs=1``) simulates the death by raising
    :class:`~repro.common.exceptions.SolverCrash`.
``hang``
    go silent for ``DURATION`` seconds (default 30): no heartbeats, no
    progress.  Pool workers get reaped by the runner's straggler timer;
    inline the hang cooperatively raises
    :class:`~repro.common.exceptions.TaskTimeout` once the task timeout
    passes (the closest single-process analogue of being reaped).
``fail``
    raise :class:`~repro.common.exceptions.TransientError` (a clean,
    retryable failure).
``corrupt``
    let the solve finish, then return an assignment with labels outside
    ``[0, k)`` — exercises the engine's result validation.

``SPEC``/``SEED``/``ATTEMPT`` are integers or ``*`` (match any);
``ATTEMPT`` is 1-based.  Examples::

    crash@0,0,1                    # first attempt of task (0,0) crashes
    hang@*,1,1,0.5                 # every spec's seed #1 hangs 0.5s once
    fail@2,*,*                     # spec #2 always fails (never succeeds)

Injectors reach the runner through ``PortfolioRunner(faults=...)`` or
the CLI's ``--faults`` option:
``repro portfolio … --retries 1 --faults 'crash@0,0,1'``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.common.exceptions import (
    ConfigurationError,
    SolverCrash,
    TaskTimeout,
    TransientError,
)

__all__ = ["FaultSpec", "FaultInjector", "FAULT_KINDS"]

FAULT_KINDS = ("crash", "hang", "fail", "corrupt")

#: Exit status of a worker killed by an injected crash — distinctive in
#: process listings / CI logs.
CRASH_EXIT_CODE = 66


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what happens, to which grid cell, when."""

    kind: str
    spec_index: int | None = None  # None = any spec
    seed_index: int | None = None  # None = any seed
    attempt: int | None = None     # None = every attempt (1-based)
    duration: float = 30.0         # hang only: seconds of silence

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r} "
                f"(known: {', '.join(FAULT_KINDS)})"
            )
        if self.duration <= 0:
            raise ConfigurationError(
                f"fault duration must be > 0, got {self.duration}"
            )

    def matches(self, spec_index: int, seed_index: int, attempt: int) -> bool:
        """True when this fault fires for the given cell and attempt."""
        return (
            (self.spec_index is None or self.spec_index == spec_index)
            and (self.seed_index is None or self.seed_index == seed_index)
            and (self.attempt is None or self.attempt == attempt)
        )

    def describe(self) -> str:
        """Short human-readable form for fault traces."""
        star = "*"
        cell = (
            f"{star if self.spec_index is None else self.spec_index},"
            f"{star if self.seed_index is None else self.seed_index},"
            f"{star if self.attempt is None else self.attempt}"
        )
        if self.kind == "hang":
            return f"hang@{cell} ({self.duration:g}s)"
        return f"{self.kind}@{cell}"


def _parse_coord(token: str, what: str) -> int | None:
    token = token.strip()
    if token == "*":
        return None
    try:
        value = int(token)
    except ValueError as exc:
        raise ConfigurationError(
            f"fault {what} must be an integer or '*', got {token!r}"
        ) from exc
    if value < 0 or (what == "attempt" and value < 1):
        raise ConfigurationError(f"fault {what} out of range: {token!r}")
    return value


@dataclass(frozen=True)
class FaultInjector:
    """An ordered set of :class:`FaultSpec` entries (first match wins)."""

    faults: tuple[FaultSpec, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FaultInjector":
        """Parse the injection grammar (module docstring) into an injector."""
        faults = []
        for entry in text.replace(";", " ").split():
            if "@" not in entry:
                raise ConfigurationError(
                    f"fault entry {entry!r} is missing '@' "
                    "(expected kind@SPEC,SEED,ATTEMPT[,DURATION])"
                )
            kind, _, where = entry.partition("@")
            parts = [p for p in where.split(",")]
            if len(parts) not in (3, 4):
                raise ConfigurationError(
                    f"fault entry {entry!r} needs SPEC,SEED,ATTEMPT"
                    "[,DURATION] after '@'"
                )
            duration = 30.0
            if len(parts) == 4:
                try:
                    duration = float(parts[3])
                except ValueError as exc:
                    raise ConfigurationError(
                        f"fault duration must be a number, got {parts[3]!r}"
                    ) from exc
            faults.append(
                FaultSpec(
                    kind=kind.strip().lower(),
                    spec_index=_parse_coord(parts[0], "spec index"),
                    seed_index=_parse_coord(parts[1], "seed index"),
                    attempt=_parse_coord(parts[2], "attempt"),
                    duration=duration,
                )
            )
        return cls(faults=tuple(faults))

    def fault_for(
        self, spec_index: int, seed_index: int, attempt: int
    ) -> FaultSpec | None:
        """The first fault matching this cell and attempt, if any."""
        for fault in self.faults:
            if fault.matches(spec_index, seed_index, attempt):
                return fault
        return None

    def __bool__(self) -> bool:
        return bool(self.faults)


# ---------------------------------------------------------------------------
# Injection execution (called from execute_task, both executors).
# ---------------------------------------------------------------------------
def inject_before_solve(
    fault: FaultSpec, *, in_pool: bool, timeout: float | None
) -> None:
    """Fire a pre-solve fault (``crash``/``hang``/``fail``).

    ``corrupt`` is a no-op here; it fires after the solve via
    :func:`corrupt_assignment`.
    """
    if fault.kind == "crash":
        if in_pool:
            # A real worker death: skips all exception handling, exactly
            # like an OOM kill, and surfaces as BrokenProcessPool.
            os._exit(CRASH_EXIT_CODE)
        raise SolverCrash(
            "injected fault: worker crash (simulated in-process)"
        )
    if fault.kind == "fail":
        raise TransientError("injected fault: transient failure")
    if fault.kind == "hang":
        _hang(fault, in_pool=in_pool, timeout=timeout)


def _hang(fault: FaultSpec, *, in_pool: bool, timeout: float | None) -> None:
    """Go silent for ``fault.duration`` seconds.

    In a pool worker the silence is real — no heartbeats reach the
    runner, whose reaper kills the worker once the task timeout passes.
    In-process nothing can kill us, so the hang raises
    :class:`TaskTimeout` itself once the timeout elapses (deterministic
    stand-in for being reaped); with no timeout it sleeps the full
    duration and lets the task continue.
    """
    end = time.monotonic() + fault.duration
    reap_at = None if timeout is None else time.monotonic() + timeout
    while time.monotonic() < end:
        if not in_pool and reap_at is not None and time.monotonic() >= reap_at:
            raise TaskTimeout(
                f"injected hang exceeded the task timeout ({timeout:g}s); "
                "reaped"
            )
        time.sleep(min(0.01, max(0.0, end - time.monotonic())))


def corrupt_assignment(assignment: np.ndarray, k: int) -> np.ndarray:
    """Return a corrupted copy of ``assignment`` (labels outside [0, k))."""
    bad = np.asarray(assignment, dtype=np.int64).copy()
    bad[: max(1, bad.size // 2)] = k + 1
    return bad
