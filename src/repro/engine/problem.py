"""The problem half of the engine API: *what* to partition.

A :class:`PartitionProblem` bundles a graph with the target part count and
the raw objective used to compare solutions.  It is the single value every
engine component agrees on: solver adapters build partitioners for its
``k``, workers score candidate assignments with its ``objective``, and the
aggregation layer rebuilds :class:`~repro.partition.Partition` objects
against its ``graph``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.exceptions import ConfigurationError
from repro.common.rng import SeedLike
from repro.graph.graph import Graph
from repro.partition.objectives import get_objective
from repro.partition.partition import Partition

__all__ = ["PartitionProblem"]


@dataclass
class PartitionProblem:
    """A graph-partitioning instance.

    Attributes
    ----------
    graph:
        The CSR graph to partition.
    k:
        Target number of parts.
    objective:
        Raw criterion used to rank solutions (``"cut"``, ``"ncut"`` or
        ``"mcut"``; the paper's ATC study uses ``"mcut"``).
    name:
        Free-form instance label carried into reports.
    """

    graph: Graph
    k: int
    objective: str = "mcut"
    name: str = "graph"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if self.k > self.graph.num_vertices:
            raise ConfigurationError(
                f"k={self.k} exceeds the vertex count "
                f"({self.graph.num_vertices})"
            )
        # Normalise before anyone does getattr(report, objective): the
        # objective registry is case-insensitive, report fields are not.
        self.objective = str(self.objective).strip().lower()
        get_objective(self.objective)

    @classmethod
    def from_instance(
        cls,
        name: str,
        seed: SeedLike = None,
        k: int | None = None,
        objective: str = "mcut",
    ) -> "PartitionProblem":
        """Build a problem from a registered workload instance.

        ``name`` resolves through :mod:`repro.workloads` (aliases and
        did-you-mean included); ``k=None`` uses the instance's frozen
        ``default_k``.  Dynamic instances are rejected there — they run
        through :func:`repro.workloads.run_dynamic`, not a one-shot
        problem.
        """
        from repro.workloads import build_instance, get_instance

        instance = get_instance(name)
        graph = build_instance(name, seed)
        return cls(
            graph,
            k=instance.default_k if k is None else int(k),
            objective=objective,
            name=instance.name,
        )

    def partition_from(self, assignment: np.ndarray) -> Partition:
        """Rebuild a :class:`Partition` from a worker's assignment array."""
        return Partition(self.graph, np.asarray(assignment, dtype=np.int64))

    def as_dict(self) -> dict:
        """Instance metadata for JSON reports (no graph payload)."""
        return {
            "name": self.name,
            "num_vertices": self.graph.num_vertices,
            "num_edges": self.graph.num_edges,
            "k": self.k,
            "objective": self.objective,
        }
