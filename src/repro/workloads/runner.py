"""Run a workload instance and stamp a ``repro-workloads/v1`` report.

:func:`run_instance` is the one entry point the CLI, the CI smoke job
and the pytest band gate all share, so a band verdict printed by
``repro workloads run`` and one asserted by
``tests/test_workloads_bands.py`` can never disagree: both are
:meth:`QualityBand.check` on the same solve.

Static instances run every frozen ``(method, seed)`` band pair through
:func:`repro.api.solve` and collect verdicts; dynamic instances run the
warm-started epoch chain through
:func:`repro.workloads.dynamic.run_dynamic` and report per-epoch
migration costs.  Either way the report carries the graph fingerprint so
a band failure can be told apart from a builder drift.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.common.rng import SeedLike
from repro.graph.graph import Graph
from repro.workloads.dynamic import DynamicInstance, run_dynamic
from repro.workloads.instance import (
    BandVerdict,
    WorkloadInstance,
    graph_fingerprint,
)
from repro.workloads.registry import get_instance

__all__ = ["REPORT_SCHEMA", "run_instance", "check_bands"]

REPORT_SCHEMA = "repro-workloads/v1"


def check_bands(
    instance: WorkloadInstance, graph: Graph
) -> list[BandVerdict]:
    """Run every frozen band pair of a static instance on ``graph`` (the
    instance built at some graph seed); return verdicts.

    The solver seeds are part of the frozen pairs and never change.
    """
    from repro.api import solve

    verdicts = []
    for band in instance.bands:
        report = solve(
            graph,
            instance.default_k,
            band.method,
            seed=band.seed,
            name=instance.name,
            **dict(band.options),
        )
        verdicts.append(band.check(report.metrics))
    return verdicts


def run_instance(
    name: str,
    seed: SeedLike = None,
    epochs: int | None = None,
    migration_lambda: float | None = None,
    method: str | None = None,
    json_path: str | Path | None = None,
) -> dict:
    """Run one registered instance; return (and optionally write) the report.

    Static instances: run the frozen band pairs, verdicts in
    ``report["bands"]``, ``report["ok"]`` true iff all pass.  Dynamic
    instances: run the (warm-started) epoch chain, per-epoch records in
    ``report["epochs"]``, ``report["ok"]`` true iff every epoch finished
    with the requested part count.  ``epochs``/``migration_lambda``/
    ``method`` only apply to dynamic instances.
    """
    from repro import __version__

    instance = get_instance(name)
    report: dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "instance": instance.metadata(),
        "seed": instance.default_seed if seed is None else seed,
    }
    if isinstance(instance, DynamicInstance):
        result = run_dynamic(
            instance,
            seed=seed,
            epochs=epochs,
            migration_lambda=migration_lambda,
            method=method,
        )
        base = instance.base_graph(seed)
        report["graph"] = {
            "num_vertices": base.num_vertices,
            "num_edges": base.num_edges,
            "fingerprint": graph_fingerprint(base),
        }
        report["dynamic"] = result.as_dict()
        report["ok"] = bool(result.records) and all(
            r.status == "done" and r.num_parts == instance.default_k
            for r in result.records
        )
    else:
        graph = instance.build(seed)
        report["graph"] = {
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "fingerprint": graph_fingerprint(graph),
        }
        verdicts = check_bands(instance, graph)
        report["bands"] = [v.as_dict() for v in verdicts]
        report["ok"] = all(v.ok for v in verdicts)
    if json_path is not None:
        Path(json_path).write_text(json.dumps(report, indent=2) + "\n")
    return report
