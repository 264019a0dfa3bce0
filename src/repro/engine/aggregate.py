"""Aggregation layer: collect run records, pick a winner, report.

Workers hand back :class:`RunRecord` objects (assignment array + scores,
never live ``Partition`` objects — cheap to pickle across the pool).
:class:`PortfolioResult` turns a batch of records into the three consumer
views: best-of selection on the problem's raw objective, per-method
statistics, and a JSON-serialisable report (schema
``repro-portfolio/v3``, stamped with the library version so downstream
consumers can detect format drift).

Schema history: ``v3`` added the fault-tolerance fields ``attempts``,
``error_kind`` and ``fault_trace`` to every run record (``v2`` added the
``version`` stamp).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.engine.problem import PartitionProblem
from repro.partition.metrics import PartitionReport
from repro.partition.partition import Partition

__all__ = [
    "RunRecord",
    "MethodStats",
    "PortfolioResult",
    "REPORT_SCHEMA",
]

REPORT_SCHEMA = "repro-portfolio/v3"


@dataclass
class RunRecord:
    """Outcome of one (solver, seed) combination.

    Attributes
    ----------
    label, method:
        Display label and canonical method of the spec that ran.
    spec_index, seed_index:
        Grid coordinates of the run (stable across executors).
    objective:
        Raw objective value on the problem's criterion (``inf`` when the
        run failed or was cancelled).
    seconds:
        Wall-clock time of the solver call (0 when never started).
    iterations:
        Session iterations the solve took (0 when never started) — the
        uniform per-run telemetry the perf harness attributes time with.
    assignment:
        Part id per vertex, or ``None`` on failure.
    report:
        Full :class:`PartitionReport`, or ``None`` on failure.
    error:
        Failure/cancellation description, or ``None`` on success.
    error_kind:
        Stable failure classification (see the taxonomy in
        :mod:`repro.common.exceptions`), or ``None`` on success.
    attempts:
        Executions this record took (0 = never started, 1 = first try,
        >1 = retried; the recorded result is from the last attempt).
    fault_trace:
        Chronological notes from the fault-tolerance layer: injected
        faults, worker deaths, reap events, retries, pool rebuilds.
        Empty for an uneventful run.
    payload_bytes:
        Always ``None``: nothing sets it.  Kept only for callers that
        still read it; it is not in :meth:`as_dict`.
    """

    label: str
    method: str
    spec_index: int
    seed_index: int
    objective: float = math.inf
    seconds: float = 0.0
    iterations: int = 0
    assignment: np.ndarray | None = field(default=None, repr=False)
    report: PartitionReport | None = field(default=None, repr=False)
    error: str | None = None
    error_kind: str | None = None
    attempts: int = 0
    fault_trace: list[str] = field(default_factory=list, repr=False)
    payload_bytes: int | None = None

    @property
    def ok(self) -> bool:
        """True when the run produced a partition."""
        return self.error is None and self.assignment is not None

    def as_dict(self, include_assignment: bool = False) -> dict:
        """Plain-dict view for the JSON report."""
        payload = {
            "label": self.label,
            "method": self.method,
            "spec_index": self.spec_index,
            "seed_index": self.seed_index,
            "objective": self.objective if math.isfinite(self.objective) else None,
            "seconds": self.seconds,
            "iterations": self.iterations,
            "ok": self.ok,
            "error": self.error,
            "error_kind": self.error_kind,
            "attempts": self.attempts,
            "fault_trace": list(self.fault_trace),
            "report": self.report.as_dict() if self.report is not None else None,
        }
        if include_assignment and self.assignment is not None:
            payload["assignment"] = [int(p) for p in self.assignment]
        return payload


@dataclass
class MethodStats:
    """Per-method aggregate over a portfolio's runs."""

    label: str
    method: str
    runs: int
    ok: int
    best: float
    mean: float
    std: float
    mean_seconds: float
    best_seed_index: int | None

    def as_dict(self) -> dict:
        """Plain-dict view for the JSON report."""
        return {
            "label": self.label,
            "method": self.method,
            "runs": self.runs,
            "ok": self.ok,
            "best": self.best if math.isfinite(self.best) else None,
            "mean": self.mean if math.isfinite(self.mean) else None,
            "std": self.std if math.isfinite(self.std) else None,
            "mean_seconds": self.mean_seconds,
            "best_seed_index": self.best_seed_index,
        }


def _method_stats(label: str, method: str, records: list[RunRecord]) -> MethodStats:
    values = [r.objective for r in records if r.ok]
    ok = len(values)
    best_record = None
    for record in records:
        if record.ok and (best_record is None or record.objective < best_record.objective):
            best_record = record
    return MethodStats(
        label=label,
        method=method,
        runs=len(records),
        ok=ok,
        best=min(values) if values else math.inf,
        mean=float(np.mean(values)) if values else math.inf,
        std=float(np.std(values)) if values else math.inf,
        mean_seconds=float(np.mean([r.seconds for r in records if r.ok])) if ok else 0.0,
        best_seed_index=best_record.seed_index if best_record else None,
    )


@dataclass
class PortfolioResult:
    """All records of one portfolio run, with selection and reporting."""

    problem: PartitionProblem
    records: list[RunRecord]

    @property
    def best(self) -> RunRecord | None:
        """Lowest-objective successful record.

        Ties break on ``(spec_index, seed_index)`` so selection is
        deterministic and identical across executors.
        """
        winner = None
        for record in sorted(
            self.records, key=lambda r: (r.spec_index, r.seed_index)
        ):
            if record.ok and (winner is None or record.objective < winner.objective):
                winner = record
        return winner

    def best_partition(self) -> Partition:
        """Rebuild the winning :class:`Partition` against the problem graph."""
        record = self.best
        if record is None:
            raise RuntimeError("portfolio produced no successful run")
        return self.problem.partition_from(record.assignment)

    def method_stats(self) -> list[MethodStats]:
        """One :class:`MethodStats` per spec, in spec order."""
        by_spec: dict[int, list[RunRecord]] = {}
        for record in self.records:
            by_spec.setdefault(record.spec_index, []).append(record)
        stats = []
        for spec_index in sorted(by_spec):
            records = by_spec[spec_index]
            stats.append(_method_stats(records[0].label, records[0].method, records))
        return stats

    def as_dict(
        self,
        include_assignment: bool = False,
        include_best_assignment: bool = True,
    ) -> dict:
        """The full JSON report (schema ``repro-portfolio/v3``).

        The winning record carries its assignment by default;
        ``include_assignment=True`` additionally embeds the per-vertex
        assignment of *every* successful run (size ``n × runs`` — large
        reports on big graphs).
        """
        from repro import __version__

        best = self.best
        return {
            "schema": REPORT_SCHEMA,
            "version": __version__,
            "problem": self.problem.as_dict(),
            "num_runs": len(self.records),
            "num_ok": sum(1 for r in self.records if r.ok),
            "best": best.as_dict(
                include_assignment or include_best_assignment
            ) if best else None,
            "methods": [s.as_dict() for s in self.method_stats()],
            "runs": [r.as_dict(include_assignment) for r in self.records],
        }

    def to_json(
        self,
        include_assignment: bool = False,
        indent: int = 2,
        include_best_assignment: bool = True,
    ) -> str:
        """Serialise :meth:`as_dict` to a JSON string."""
        return json.dumps(
            self.as_dict(include_assignment, include_best_assignment),
            indent=indent,
        )

    def failure_counts(self) -> dict[str, int]:
        """Failed-run tally per error kind (empty when everything ran)."""
        counts: dict[str, int] = {}
        for record in self.records:
            if record.ok:
                continue
            kind = record.error_kind or "error"
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def format_failure_table(self) -> str:
        """Per-error-kind failure summary ('' when every run succeeded)."""
        counts = self.failure_counts()
        if not counts:
            return ""
        examples: dict[str, str] = {}
        for record in self.records:
            if record.ok:
                continue
            kind = record.error_kind or "error"
            examples.setdefault(kind, record.error or "?")
        header = f"{'Failure kind':<12} {'count':>5}  example"
        lines = [header, "-" * len(header)]
        for kind in sorted(counts):
            example = examples[kind]
            if len(example) > 60:
                example = example[:57] + "..."
            lines.append(f"{kind:<12} {counts[kind]:>5}  {example}")
        return "\n".join(lines)

    def format_stats_table(self) -> str:
        """Human-readable per-method statistics table."""
        objective = self.problem.objective
        header = (
            f"{'Method':<28} {'runs':>5} {'ok':>3} "
            f"{'best ' + objective:>12} {'mean':>12} {'std':>10} {'s/run':>8}"
        )
        lines = [header, "-" * len(header)]
        for s in self.method_stats():
            best = f"{s.best:.4g}" if math.isfinite(s.best) else "—"
            mean = f"{s.mean:.4g}" if math.isfinite(s.mean) else "—"
            std = f"{s.std:.3g}" if math.isfinite(s.std) else "—"
            lines.append(
                f"{s.label:<28} {s.runs:>5} {s.ok:>3} {best:>12} "
                f"{mean:>12} {std:>10} {s.mean_seconds:>8.2f}"
            )
        best = self.best
        if best is not None:
            lines.append(
                f"best: {best.label} (seed #{best.seed_index}) "
                f"{objective}={best.objective:.6g}"
            )
        return "\n".join(lines)
