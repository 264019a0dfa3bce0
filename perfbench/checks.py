"""Output checks that gate every timing.

Every partition a workload returns is checked on any seed for

* labels in ``[0, k)``,
* exactly ``k`` non-empty parts,
* ``evaluate_partition`` reproducing the objective value the solver
  reported (relative tolerance :data:`OBJECTIVE_RTOL`),

and, when its request is in the frozen table ``digests.json``, for a
bit-identical assignment.  The table holds one digest per request,
computed by a direct, uninterrupted in-process solve
(``python3 perfbench/freeze.py`` rebuilds it), so a service job sliced
through checkpoints is held to the uninterrupted result.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Incremental objectives drift from a fresh evaluation by summation order.
OBJECTIVE_RTOL = 1e-9


def request_key(method: str, instance: str, k: int, seed: int,
                max_iterations: int | None = None) -> str:
    """Stable name of one solve request in the frozen digest table."""
    key = f"{method}|{instance}|k={k}|seed={seed}"
    if max_iterations is not None:
        key += f"|it={max_iterations}"
    return key


def digest(assignment) -> str:
    """blake2b of the int64 assignment bytes (16 hex digits)."""
    data = np.ascontiguousarray(np.asarray(assignment, dtype=np.int64))
    return hashlib.blake2b(data.tobytes(), digest_size=8).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())["digests"]


class OutputChecker:
    """Collects failures; one instance per run."""

    def __init__(self) -> None:
        self.frozen = load_digests()
        self.checked = 0
        self.digest_checked = 0
        self.failures: list[str] = []

    def check(self, label: str, key: str | None, graph, k: int,
              assignment, objective: str, value: float) -> float | None:
        """Check one returned partition; return its mcut, or None on failure."""
        from repro.partition.metrics import evaluate_partition
        from repro.partition.partition import Partition

        self.checked += 1
        assignment = np.asarray(assignment, dtype=np.int64)
        problem = None
        if assignment.shape != (graph.num_vertices,):
            problem = (f"assignment has shape {assignment.shape}, expected "
                       f"({graph.num_vertices},)")
        elif assignment.min() < 0 or assignment.max() >= k:
            problem = (f"labels span [{assignment.min()}, {assignment.max()}]"
                       f", outside [0, {k})")
        elif np.unique(assignment).size != k:
            problem = f"{np.unique(assignment).size} parts, expected {k}"
        if problem is None and key is not None and key in self.frozen:
            self.digest_checked += 1
            if digest(assignment) != self.frozen[key]:
                problem = (f"assignment digest {digest(assignment)} differs "
                           f"from the frozen {self.frozen[key]}")
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
            return None
        report = evaluate_partition(Partition(graph, assignment))
        fresh = float(getattr(report, objective))
        if not math.isclose(fresh, value, rel_tol=OBJECTIVE_RTOL,
                            abs_tol=1e-12):
            self.failures.append(
                f"{label}: evaluate_partition gives {objective}={fresh!r}, "
                f"the solver reported {value!r}"
            )
            return None
        return float(report.mcut)

    def fail(self, label: str, reason: str) -> None:
        self.failures.append(f"{label}: {reason}")
