"""Wall-clock helpers used by the time-budgeted benchmark harness.

Figure 1 of the paper plots solution quality against wall-clock time on a
log axis; :class:`Deadline` gives solve sessions and the portfolio engine a
uniform way to stop at a time budget, and :class:`Timer` is a tiny
context-manager stopwatch used throughout the bench harness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field


class Timer:
    """Context-manager stopwatch.

    Examples
    --------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start


class Ticker:
    """Rate limiter for periodic actions on a caller-supplied clock.

    ``due(now)`` returns True at most once per ``interval`` of the
    caller's time axis (the solve sessions feed it their cumulative
    solve-time so heartbeats pause when the session does).  The first
    call after construction never fires — the interval must elapse
    first.  ``interval=None`` disables the ticker (never due).
    """

    def __init__(self, interval: float | None) -> None:
        if interval is not None and interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.interval = interval
        self._last: float | None = None

    def due(self, now: float) -> bool:
        """True when ``interval`` has elapsed since the last firing."""
        if self.interval is None:
            return False
        if self._last is None:
            self._last = now
            return False
        if now - self._last >= self.interval:
            self._last = now
            return True
        return False


@dataclass
class Deadline:
    """A wall-clock budget.

    ``Deadline(seconds)`` starts counting at construction.  ``seconds=None``
    or ``math.inf`` means "no budget" and :meth:`expired` is always False.

    Attributes
    ----------
    seconds:
        Budget length in seconds (``None``/``inf`` = unlimited).
    """

    seconds: float | None = None
    _start: float = field(default_factory=time.perf_counter, repr=False)

    def expired(self) -> bool:
        """True once the budget has elapsed."""
        if self.seconds is None or math.isinf(self.seconds):
            return False
        return (time.perf_counter() - self._start) >= self.seconds

    def remaining(self) -> float:
        """Seconds left (``inf`` when unlimited, clamped at 0)."""
        if self.seconds is None or math.isinf(self.seconds):
            return math.inf
        return max(0.0, self.seconds - (time.perf_counter() - self._start))

    def elapsed(self) -> float:
        """Seconds since the deadline was created."""
        return time.perf_counter() - self._start
