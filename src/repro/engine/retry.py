"""Retry policy for portfolio tasks.

A :class:`RetryPolicy` decides, per failed attempt, whether the runner
re-executes the task and how long it backs off first.  Retries are
bit-deterministic: the task object (and therefore its seed, derived once
from the grid coordinates) is resubmitted unchanged, so a retried run
that succeeds produces exactly the partition the first attempt would
have — only the ``attempts`` counter and fault trace differ.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.exceptions import (
    ERROR_KIND_CRASH,
    ERROR_KIND_TIMEOUT,
    ERROR_KIND_TRANSIENT,
    ConfigurationError,
)

__all__ = [
    "RetryPolicy", "DEFAULT_RETRY_KINDS", "BACKOFF_FACTOR", "MAX_BACKOFF",
]

#: Error kinds that are retried: spurious-by-nature failures.  Invalid
#: results and configuration errors are deterministic — retrying the same
#: seed reproduces them — so they are excluded.
DEFAULT_RETRY_KINDS = frozenset(
    {ERROR_KIND_TRANSIENT, ERROR_KIND_CRASH, ERROR_KIND_TIMEOUT}
)

#: Multiplier applied to the backoff per subsequent failure.
BACKOFF_FACTOR = 2.0

#: Ceiling on any single backoff sleep, in seconds.
MAX_BACKOFF = 30.0


@dataclass(frozen=True)
class RetryPolicy:
    """Max attempts and exponential backoff.

    Attributes
    ----------
    max_attempts:
        Total executions per task (1 = no retries, the default).
    backoff:
        Seconds before the second attempt; 0 disables sleeping.  Each
        further failure multiplies it by :data:`BACKOFF_FACTOR`, up to
        :data:`MAX_BACKOFF`.

    Only failures of a kind in :data:`DEFAULT_RETRY_KINDS` are retried;
    anything else fails permanently on first occurrence.
    """

    max_attempts: int = 1
    backoff: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff < 0:
            raise ConfigurationError(f"backoff must be >= 0, got {self.backoff}")

    def should_retry(self, error_kind: str | None, attempt: int) -> bool:
        """True when attempt number ``attempt`` (1-based) failed with
        ``error_kind`` and another attempt is allowed."""
        return (
            attempt < self.max_attempts
            and error_kind in DEFAULT_RETRY_KINDS
        )

    def backoff_seconds(self, attempt: int) -> float:
        """Sleep before the attempt following failed attempt ``attempt``."""
        if self.backoff <= 0:
            return 0.0
        return min(MAX_BACKOFF, self.backoff * BACKOFF_FACTOR ** (attempt - 1))
