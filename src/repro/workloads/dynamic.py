"""Dynamic repartitioning: time-varying edge weights + warm-started solves.

The genuinely new workload this registry opens (ROADMAP item): an ATC
sector graph's traffic is not constant — flows swell and ebb over a day —
so a static partition decays and the operational question becomes *when
and how much to repartition*.  A :class:`DynamicInstance` models this as
a fixed topology whose edge weights are re-sampled per **epoch** by a
seeded diurnal profile (:func:`diurnal_weights`); :func:`run_dynamic`
solves the epochs in sequence, either **cold** (each epoch from scratch)
or **warm** (each epoch resumed from the previous epoch's partition
through the existing checkpoint machinery, see
:func:`warm_start_checkpoint`), and scores every epoch on the combined
objective

    ``combined = quality + migration_lambda * migration_cost``

where :func:`migration_cost` is the vertex weight that changed parts
between consecutive epochs — the price of moving sectors between control
centres.  Warm starts keep part labels stable across epochs, so the
migration term is directly comparable between the two modes.

Determinism: epoch graphs are pure functions of ``(instance, seed)``,
the warm chain threads the session rng state through the checkpoints,
and cold epochs use per-epoch ``SeedSequence`` children — two identical
:func:`run_dynamic` calls produce bit-identical partition sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from repro.common.exceptions import ConfigurationError
from repro.common.rng import SeedLike, ensure_rng
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.graph import Graph
from repro.partition.objectives import get_objective
from repro.partition.partition import Partition
from repro.workloads.instance import _TIERS

__all__ = [
    "DynamicInstance",
    "EpochRecord",
    "DynamicResult",
    "diurnal_weights",
    "migration_cost",
    "warm_start_checkpoint",
    "run_dynamic",
]


def diurnal_weights(
    graph: Graph,
    epoch: int,
    num_epochs: int,
    seed: SeedLike,
    amplitude: float = 0.6,
) -> Graph:
    """Reweight a graph for one epoch of a seeded diurnal traffic cycle.

    Each edge gets a fixed random phase (drawn once from ``seed`` — the
    same phases for every epoch) and its base weight is modulated by
    ``1 + amplitude * sin(2π(epoch/num_epochs + phase))``, rounded to an
    integer ``>= 1``.  Rounding keeps the weights integral so the whole
    epoch sequence stays inside the kernels' exact-arithmetic regime and
    warm-started resumes are bit-deterministic.

    The topology (vertex and edge counts) never changes; only weights
    do, so each epoch's graph has its own content fingerprint.
    """
    if not 0 <= epoch < num_epochs:
        raise ConfigurationError(
            f"epoch must be in [0, {num_epochs}), got {epoch}"
        )
    if not 0 <= amplitude < 1:
        raise ConfigurationError(
            f"amplitude must be in [0, 1), got {amplitude}"
        )
    u, v, w = graph.edge_arrays()
    phase = ensure_rng(seed).random(w.shape[0])
    factor = 1.0 + amplitude * np.sin(
        2.0 * math.pi * (epoch / num_epochs + phase)
    )
    weights = np.maximum(np.round(w * factor), 1.0)
    return Graph.from_arrays(
        graph.num_vertices, u, v, weights,
        vertex_weights=graph.vertex_weights,
    )


def migration_cost(
    previous: np.ndarray,
    current: np.ndarray,
    vertex_weights: np.ndarray | None = None,
) -> float:
    """Total vertex weight that changed parts between two assignments.

    Part ids are compared directly (no label matching): warm starts keep
    labels stable, and for cold starts the raw count is exactly the
    operational cost of re-homing sectors under the new labelling.
    ``vertex_weights=None`` counts each vertex as 1.
    """
    prev = np.asarray(previous, dtype=np.int64)
    curr = np.asarray(current, dtype=np.int64)
    if prev.shape != curr.shape:
        raise ConfigurationError(
            f"assignment shapes differ: {prev.shape} vs {curr.shape}"
        )
    moved = prev != curr
    if vertex_weights is None:
        return float(np.count_nonzero(moved))
    return float(np.asarray(vertex_weights, dtype=np.float64)[moved].sum())


# -- warm start through the checkpoint machinery ---------------------------
#
# A finished epoch-t checkpoint cannot simply be resumed on the epoch-t+1
# graph: its status is "done" and its cached energies were computed
# against the old weights.  `warm_start_checkpoint` rebases it — per
# solver family — into a *fresh-looking* checkpoint whose solver state
# starts from the previous best partition with energies recomputed
# against the new weights, while the rng state is carried forward
# verbatim so the random stream (and hence the whole chain) stays
# deterministic.  `repro.api.resume` then restores it like any paused
# session.

def _rebase_annealing(
    state: dict, graph: Graph, objective: str, options: dict
) -> dict:
    """Rebase an AnnealRun state export onto a reweighted graph.

    The walk restarts from the previous epoch's best assignment at the
    full starting temperature (``tmax``) with fresh step/refusal
    counters — annealing's equivalent of "new day, warm fleet": the
    incumbent carries over, the schedule does not.
    """
    assignment = [int(p) for p in state["best_assignment"]]
    partition = Partition(graph, np.asarray(assignment, dtype=np.int64))
    energy = float(get_objective(objective).value(partition))
    return {
        "assignment": list(assignment),
        "best_assignment": list(assignment),
        "energy": energy,
        "best_energy": energy,
        "t": float(options["tmax"]),
        "refusals": 0,
        "steps": 0,
        "finished": False,
    }


#: method → ``(state, graph, objective, options) -> state`` rebase hooks.
_REBASERS: dict[str, Callable[[dict, Graph, str, dict], dict]] = {
    "simulated-annealing": _rebase_annealing,
}


def warm_start_checkpoint(checkpoint: dict, graph: Graph) -> dict:
    """Derive an epoch ``t+1`` checkpoint from epoch ``t``'s checkpoint.

    ``checkpoint`` is a finished (or paused) session checkpoint taken on
    the previous epoch's graph; ``graph`` is the next epoch's graph
    (same topology, new weights).  The result resumes through
    :func:`repro.api.resume` exactly like a paused session: previous
    best partition as the starting solution, energies recomputed against
    the new weights, rng stream continued verbatim.

    Only methods with a registered rebase hook support warm starts
    (currently ``simulated-annealing`` — the paper's fixed-k
    metaheuristic, whose state is a pure walk); others raise a
    :class:`~repro.common.exceptions.ConfigurationError` naming the
    supported set.
    """
    from repro.api.facade import checkpoint_objective
    from repro.bench.registry import canonical_method

    method = canonical_method(checkpoint.get("method", ""))
    rebaser = _REBASERS.get(method)
    if rebaser is None:
        raise ConfigurationError(
            f"method {method!r} does not support warm-started dynamic "
            f"repartitioning; supported: {', '.join(sorted(_REBASERS))}"
        )
    if int(checkpoint.get("islands", 1) or 1) != 1:
        raise ConfigurationError(
            "warm-started dynamic repartitioning runs sequential sessions "
            "(islands=1); island checkpoints are not rebasable"
        )
    options = dict(checkpoint.get("options") or {})
    warm = dict(checkpoint)
    warm["status"] = "running"
    warm["iteration"] = 0
    warm["elapsed"] = 0.0
    warm["phase"] = "anneal"
    warm["graph"] = {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "fingerprint": graph_fingerprint(graph),
    }
    warm["state"] = rebaser(
        dict(checkpoint["state"]), graph, checkpoint_objective(checkpoint),
        options,
    )
    return warm


@dataclass(frozen=True)
class DynamicInstance:
    """A time-varying repartitioning scenario: one topology, many epochs.

    Attributes mirror :class:`~repro.workloads.instance.WorkloadInstance`
    where they overlap; the dynamic extras are:

    num_epochs:
        Epochs in one full cycle (e.g. 6 four-hour slices of a day).
    amplitude:
        Diurnal modulation depth for :func:`diurnal_weights`.
    migration_lambda:
        Default weight of the migration term in the combined objective.
    base_builder:
        ``seed -> Graph``; built once, reweighted per epoch.
    method, method_options:
        Default solver (must have a warm-start rebase hook) and its
        constructor options for ``repro workloads run``.
    """

    name: str
    family: str
    tier: str
    description: str
    default_k: int
    size_hint: str
    base_builder: Callable[[SeedLike], Graph] = field(compare=False)
    num_epochs: int = 6
    amplitude: float = 0.6
    migration_lambda: float = 1.0
    default_seed: int = 0
    method: str = "simulated-annealing"
    method_options: tuple[tuple[str, Any], ...] = ()
    tags: tuple[str, ...] = ()

    kind = "dynamic"

    def __post_init__(self) -> None:
        if self.tier not in _TIERS:
            raise ConfigurationError(
                f"tier must be one of {_TIERS}, got {self.tier!r}"
            )
        if self.default_k < 2:
            raise ConfigurationError(
                f"default_k must be >= 2, got {self.default_k}"
            )
        if self.num_epochs < 2:
            raise ConfigurationError(
                f"num_epochs must be >= 2, got {self.num_epochs}"
            )

    def base_graph(self, seed: SeedLike = None) -> Graph:
        """The epoch-independent topology (weights = nominal base load)."""
        return self.base_builder(
            self.default_seed if seed is None else seed
        )

    def epoch_graphs(self, seed: SeedLike = None) -> Iterator[Graph]:
        """Yield the per-epoch graphs (base built once, reweighted)."""
        effective = self.default_seed if seed is None else seed
        base = self.base_graph(effective)
        for epoch in range(self.num_epochs):
            yield diurnal_weights(
                base, epoch, self.num_epochs, effective, self.amplitude
            )

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
            "num_epochs": self.num_epochs,
            "amplitude": self.amplitude,
            "migration_lambda": self.migration_lambda,
            "method": self.method,
        }


@dataclass
class EpochRecord:
    """One epoch's outcome in a dynamic run."""

    epoch: int
    warm: bool
    status: str
    cut: float
    objective: str
    objective_value: float
    migration_cost: float
    combined: float
    imbalance: float
    num_parts: int
    iterations: int
    seconds: float
    assignment: np.ndarray = field(repr=False)

    def as_dict(self) -> dict:
        """JSON view (assignment omitted — epochs × n integers is big)."""
        return {
            "epoch": self.epoch,
            "warm": self.warm,
            "status": self.status,
            "cut": self.cut,
            "objective": self.objective,
            "objective_value": self.objective_value,
            "migration_cost": self.migration_cost,
            "combined": self.combined,
            "imbalance": self.imbalance,
            "num_parts": self.num_parts,
            "iterations": self.iterations,
            "seconds": self.seconds,
        }


@dataclass
class DynamicResult:
    """Outcome of one :func:`run_dynamic` call."""

    instance: str
    method: str
    warm: bool
    migration_lambda: float
    records: list[EpochRecord]

    @property
    def total_combined(self) -> float:
        return float(sum(r.combined for r in self.records))

    @property
    def total_migration(self) -> float:
        return float(sum(r.migration_cost for r in self.records))

    def as_dict(self) -> dict:
        return {
            "instance": self.instance,
            "method": self.method,
            "warm": self.warm,
            "migration_lambda": self.migration_lambda,
            "num_epochs": len(self.records),
            "total_combined": self.total_combined,
            "total_migration": self.total_migration,
            "epochs": [r.as_dict() for r in self.records],
        }


def run_dynamic(
    instance: DynamicInstance,
    seed: SeedLike = None,
    epochs: int | None = None,
    migration_lambda: float | None = None,
    warm: bool = True,
    method: str | None = None,
    k: int | None = None,
    **options: Any,
) -> DynamicResult:
    """Solve a dynamic instance epoch by epoch.

    With ``warm=True`` (the default) every epoch after the first resumes
    from the previous epoch's partition via
    :func:`warm_start_checkpoint`; with ``warm=False`` each epoch solves
    cold from its own ``SeedSequence`` child (epoch 0 is identical in
    both modes).  ``epochs`` truncates the cycle (``None`` runs the
    instance's full ``num_epochs``); extra ``options`` go to the solver
    constructor on top of the instance's ``method_options``.
    """
    from repro.api import SolveRequest, get_solver
    from repro.api import resume as resume_session
    from repro.bench.registry import canonical_method

    num_epochs = instance.num_epochs if epochs is None else int(epochs)
    if not 2 <= num_epochs <= instance.num_epochs:
        raise ConfigurationError(
            f"epochs must be in [2, {instance.num_epochs}], got {num_epochs}"
        )
    lam = (
        instance.migration_lambda
        if migration_lambda is None else float(migration_lambda)
    )
    if lam < 0:
        raise ConfigurationError(
            f"migration_lambda must be >= 0, got {lam}"
        )
    method = canonical_method(method or instance.method)
    if warm and method not in _REBASERS:
        raise ConfigurationError(
            f"method {method!r} has no warm-start rebase hook; "
            f"supported: {', '.join(sorted(_REBASERS))} "
            "(or pass warm=False for cold restarts)"
        )
    k = instance.default_k if k is None else int(k)
    # The instance's frozen method_options belong to its default solver;
    # an overridden method gets only the caller's explicit options.
    solver_options = (
        dict(instance.method_options)
        if method == canonical_method(instance.method) else {}
    )
    solver_options.update(options)
    effective_seed = (
        instance.default_seed if seed is None else seed
    )
    # Per-epoch cold seeds: spawned children of the run seed, so cold
    # runs are deterministic and independent of the warm chain's rng
    # usage.  (Instance seeds are ints by convention — a caller-supplied
    # live Generator would be consumed by the epoch builders too.)
    cold_rng = ensure_rng(
        effective_seed
        if isinstance(effective_seed, (int, np.integer))
        else None
    )
    cold_seeds = cold_rng.spawn(num_epochs)

    records: list[EpochRecord] = []
    checkpoint: dict | None = None
    previous: np.ndarray | None = None
    for epoch, graph in enumerate(instance.epoch_graphs(effective_seed)):
        if epoch >= num_epochs:
            break
        name = f"{instance.name}@{epoch}"
        if epoch == 0 or not warm:
            solver = get_solver(method, k, **solver_options)
            request = SolveRequest(
                graph=graph,
                k=k,
                seed=(
                    effective_seed if epoch == 0 else cold_seeds[epoch]
                ),
                name=name,
            )
            session = solver.start(request)
        else:
            session = resume_session(
                graph, warm_start_checkpoint(checkpoint, graph)
            )
        report = session.run()
        checkpoint = session.checkpoint()
        assignment = report.assignment
        if assignment is None:
            raise ConfigurationError(
                f"epoch {epoch} of {instance.name!r} produced no partition"
            )
        moved = (
            0.0 if previous is None
            else migration_cost(previous, assignment, graph.vertex_weights)
        )
        records.append(EpochRecord(
            epoch=epoch,
            warm=warm and epoch > 0,
            status=report.status,
            cut=float(report.metrics.cut),
            objective=report.objective,
            objective_value=float(report.objective_value),
            migration_cost=moved,
            combined=float(report.objective_value) + lam * moved,
            imbalance=float(report.metrics.imbalance),
            num_parts=int(report.metrics.num_parts),
            iterations=int(report.iterations),
            seconds=float(report.seconds),
            assignment=np.asarray(assignment, dtype=np.int64).copy(),
        ))
        previous = records[-1].assignment
    return DynamicResult(
        instance=instance.name,
        method=method,
        warm=warm,
        migration_lambda=lam,
        records=records,
    )
