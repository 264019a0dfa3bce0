"""Workload instance values: named problems with frozen quality bands.

A :class:`WorkloadInstance` is a *named, reproducible* partitioning
problem: a deterministic graph builder plus the metadata the evaluation
suite needs (family, tier, default part count) and a set of frozen
:class:`QualityBand` expectations.  Bands turn the bench harness from a
"run and eyeball" tool into a regression gate: every band names a frozen
``(method, seed)`` pair and the window its cut/balance must land in, and
the pytest gate (``tests/test_workloads_bands.py``) re-runs those pairs
on every change.

The registry half (register/alias/resolve) lives in
:mod:`repro.workloads.registry`; the concrete catalog of instances in
:mod:`repro.workloads.catalog`; time-varying instances in
:mod:`repro.workloads.dynamic`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.exceptions import ConfigurationError
from repro.common.rng import SeedLike
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.graph import Graph
from repro.partition.metrics import PartitionReport

__all__ = [
    "TIER_SMALL",
    "TIER_LARGE",
    "QualityBand",
    "BandVerdict",
    "WorkloadInstance",
    "graph_fingerprint",
]

#: Instance tiers.  ``small`` instances run inside the tier-1 band gate on
#: every test invocation; ``large`` ones are marked ``slow`` and gated by
#: the ``workloads-smoke`` CI job.
TIER_SMALL = "small"
TIER_LARGE = "large"
_TIERS = (TIER_SMALL, TIER_LARGE)


# ``graph_fingerprint`` was born here; it now lives in
# :mod:`repro.graph.fingerprint` (one implementation shared with
# checkpoints and the service result cache) and is re-exported for
# every caller that imports it from the workloads package.


@dataclass(frozen=True)
class QualityBand:
    """Frozen quality expectation for one ``(method, seed)`` pair.

    Attributes
    ----------
    method:
        Registry method name (canonical or alias) to run.
    seed:
        The frozen seed — the pair is deterministic, so the observed
        values are exactly reproducible; the band's width is slack for
        *legitimate* future algorithm changes, not for run-to-run noise.
    cut_lo, cut_hi:
        Inclusive window the paper-convention ``Cut`` (cross edges
        counted twice) must land in.  A result above ``cut_hi`` is a
        quality regression; below ``cut_lo`` it is suspicious enough to
        investigate (usually a metric or builder bug, not a miracle).
    max_imbalance:
        Upper bound on ``max part weight / ideal part weight``.
    options:
        Extra solver-constructor options for the run, as a tuple of
        ``(key, value)`` pairs so the dataclass stays hashable/frozen
        (e.g. ``(("max_steps", 1500),)`` to bound a metaheuristic band).
    """

    method: str
    seed: int
    cut_lo: float
    cut_hi: float
    max_imbalance: float
    options: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not (0 <= self.cut_lo <= self.cut_hi):
            raise ConfigurationError(
                f"band needs 0 <= cut_lo <= cut_hi, got "
                f"[{self.cut_lo}, {self.cut_hi}]"
            )
        if self.max_imbalance < 1.0:
            raise ConfigurationError(
                f"max_imbalance must be >= 1.0, got {self.max_imbalance}"
            )

    def check(self, report: PartitionReport) -> "BandVerdict":
        """Score a finished run's metrics against this band."""
        reasons = []
        if not (self.cut_lo <= report.cut <= self.cut_hi):
            reasons.append(
                f"cut {report.cut:g} outside "
                f"[{self.cut_lo:g}, {self.cut_hi:g}]"
            )
        if report.imbalance > self.max_imbalance:
            reasons.append(
                f"imbalance {report.imbalance:.3f} > {self.max_imbalance:g}"
            )
        return BandVerdict(
            method=self.method,
            seed=self.seed,
            cut=report.cut,
            imbalance=report.imbalance,
            cut_lo=self.cut_lo,
            cut_hi=self.cut_hi,
            max_imbalance=self.max_imbalance,
            ok=not reasons,
            reasons=tuple(reasons),
        )


@dataclass(frozen=True)
class BandVerdict:
    """Outcome of checking one band: observed values + pass/fail."""

    method: str
    seed: int
    cut: float
    imbalance: float
    cut_lo: float
    cut_hi: float
    max_imbalance: float
    ok: bool
    reasons: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "seed": self.seed,
            "cut": self.cut,
            "imbalance": self.imbalance,
            "cut_lo": self.cut_lo,
            "cut_hi": self.cut_hi,
            "max_imbalance": self.max_imbalance,
            "verdict": "pass" if self.ok else "fail",
            "reasons": list(self.reasons),
        }


@dataclass(frozen=True)
class WorkloadInstance:
    """One named, reproducible partitioning problem.

    Attributes
    ----------
    name:
        Canonical registry name (kebab-case).
    family:
        Generator family (``grid``, ``torus``, ``geometric``,
        ``power-law``, ``caveman``, ``mesh``, ``atc``).
    tier:
        ``"small"`` (runs in the tier-1 band gate) or ``"large"``
        (``slow``-marked, gated by the ``workloads-smoke`` CI job).
    description:
        One human line — shown by ``repro workloads list``.
    default_k:
        Part count the bands (and ``repro workloads run``) use.
    size_hint:
        Approximate ``n/m`` as text, so listings never have to build the
        graph.
    builder:
        ``seed -> Graph``; must be a pure function of the seed.
    default_seed:
        Seed the bands are frozen on (and the default everywhere else).
    bands:
        Frozen :class:`QualityBand` expectations (may be empty only for
        instances still being calibrated — the metadata test enforces
        non-empty for everything registered).
    tags:
        Free-form labels (``"planar"``, ``"heavy-tailed"``, …).
    """

    name: str
    family: str
    tier: str
    description: str
    default_k: int
    size_hint: str
    builder: Callable[[SeedLike], Graph] = field(compare=False)
    default_seed: int = 0
    bands: tuple[QualityBand, ...] = ()
    tags: tuple[str, ...] = ()

    #: Discriminator against :class:`repro.workloads.dynamic.DynamicInstance`.
    kind = "static"

    def __post_init__(self) -> None:
        if self.tier not in _TIERS:
            raise ConfigurationError(
                f"tier must be one of {_TIERS}, got {self.tier!r}"
            )
        if self.default_k < 2:
            raise ConfigurationError(
                f"default_k must be >= 2, got {self.default_k}"
            )

    def build(self, seed: SeedLike = None) -> Graph:
        """Build the instance graph (``None`` → the frozen default seed)."""
        return self.builder(self.default_seed if seed is None else seed)

    def metadata(self) -> dict:
        """JSON-serialisable instance card (no graph build)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "family": self.family,
            "tier": self.tier,
            "description": self.description,
            "default_k": self.default_k,
            "default_seed": self.default_seed,
            "size_hint": self.size_hint,
            "tags": list(self.tags),
            "num_bands": len(self.bands),
        }
