"""High-level spectral and linear partitioner classes.

These wrap the recursive machinery behind the same ``partition(graph)``
interface every method in the repository exposes, and implement the exact
method matrix of Table 1:

* ``LinearPartitioner`` — the "Linear" rows: split vertices by **index
  order** (the do-nothing baseline Chaco calls linear), recursively, with
  optional KL refinement.
* ``SpectralPartitioner`` — the "Spectral" rows: Lanczos or RQI
  eigensolver × bisection or octasection recursion × optional KL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.exceptions import ConfigurationError
from repro.common.rng import SeedLike
from repro.graph.graph import Graph
from repro.partition.partition import Partition
from repro.refine.kl import kl_refine
from repro.spectral.bisection import recursive_spectral_partition
from repro.api.request import SolveRequest
from repro.api.session import OneShotStepper, SolveSession

__all__ = ["SpectralPartitioner", "LinearPartitioner"]


def _check_power_of_two(k: int) -> int:
    if k < 1 or (k & (k - 1)) != 0:
        raise ConfigurationError(
            f"spectral/linear partitioners need k = 2^n, got {k}"
        )
    return k


@dataclass
class LinearPartitioner:
    """Index-order ("linear") recursive partitioner — Table 1's baseline.

    Splits ``0..n-1`` into ``k`` contiguous, size-balanced ranges.  With
    ``refine=True`` each result is polished with k-way Kernighan–Lin,
    reproducing the "Linear (Bi, KL)" and "Linear (Oct, KL)" rows.

    Attributes
    ----------
    k:
        Number of parts (power of two).
    refine:
        Apply KL refinement after the split.
    arity:
        Cosmetic here (contiguous ranges are identical regardless of
        recursion order) but kept for symmetry with the spectral rows; it
        changes the KL sweep granularity when ``refine`` is set.
    """

    k: int
    refine: bool = False
    arity: int = 2
    kl_passes: int = 4

    name = "linear"
    #: Direct construction: the session runs :meth:`partition` once.
    stepper = OneShotStepper

    def start(
        self, request: SolveRequest, checkpoint: dict | None = None
    ) -> SolveSession:
        """Open a run session (the :class:`repro.api.Solver` protocol)."""
        return SolveSession(self, request, checkpoint)

    def partition(self, graph: Graph, seed: SeedLike = None) -> Partition:
        """Partition ``graph``; ``seed`` is unused (deterministic method)."""
        k = _check_power_of_two(self.k)
        n = graph.num_vertices
        if k > n:
            raise ConfigurationError(f"k={k} exceeds vertex count {n}")
        # Contiguous balanced ranges: part sizes differ by at most 1.
        bounds = np.linspace(0, n, k + 1).astype(np.int64)
        assignment = np.zeros(n, dtype=np.int64)
        for part in range(k):
            assignment[bounds[part]:bounds[part + 1]] = part
        partition = Partition(graph, assignment)
        if self.refine:
            kl_refine(partition, max_passes=self.kl_passes)
        return partition


@dataclass
class SpectralPartitioner:
    """Spectral recursive partitioner (paper §2.1, Table 1 "Spectral" rows).

    Attributes
    ----------
    k:
        Number of parts (power of two).
    solver:
        ``"lanczos"`` or ``"rqi"``.
    arity:
        2 for recursive bisection ("Bi"), 8 for octasection ("Oct").
    refine:
        Apply k-way KL refinement after the spectral split ("KL" rows;
        Chaco's REFINE_PARTITION).
    criterion:
        Which relaxation the eigensolver targets: "cut", "ncut", "mcut".
    """

    k: int
    solver: str = "lanczos"
    arity: int = 2
    refine: bool = False
    criterion: str = "cut"
    kl_passes: int = 4

    name = "spectral"
    #: Direct construction: the session runs :meth:`partition` once.
    stepper = OneShotStepper

    def start(
        self, request: SolveRequest, checkpoint: dict | None = None
    ) -> SolveSession:
        """Open a run session (the :class:`repro.api.Solver` protocol)."""
        return SolveSession(self, request, checkpoint)

    def partition(self, graph: Graph, seed: SeedLike = None) -> Partition:
        """Partition ``graph`` into ``self.k`` parts."""
        k = _check_power_of_two(self.k)
        partition = recursive_spectral_partition(
            graph,
            k,
            arity=self.arity,
            solver=self.solver,
            criterion=self.criterion,
            seed=seed,
        )
        if self.refine:
            kl_refine(partition, max_passes=self.kl_passes)
        return partition
