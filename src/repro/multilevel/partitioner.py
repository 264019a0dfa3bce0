"""The multilevel partitioner: coarsen → initial partition → refine upward.

``MultilevelPartitioner(k=32, arity=8)`` reproduces Table 1's
"Multilevel (Oct)" row; arity here only affects the *initial* partitioning
recursion (the coarsening and refinement phases are arity-agnostic).
Refinement during uncoarsening uses FM passes (the linear-time
Kernighan–Lin generalisation of paper §2.3) and is on by default — the
paper's Chaco runs all use REFINE_PARTITION.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.exceptions import ConfigurationError
from repro.common.rng import SeedLike, spawn_rngs
from repro.graph.graph import Graph
from repro.multilevel.coarsening import build_hierarchy
from repro.multilevel.initial import initial_partition
from repro.multilevel.matching import heavy_edge_matching
from repro.partition.partition import Partition
from repro.refine.fm import fm_refine
from repro.refine.kl import kl_refine
from repro.api.session import Solver

__all__ = ["MultilevelPartitioner"]


@dataclass
class MultilevelPartitioner(Solver):
    """Three-phase multilevel k-way partitioner (paper §2.2).

    Attributes
    ----------
    k:
        Number of parts.  Power of two enables the spectral initial
        partition (matching the paper's 2^n restriction); other values
        fall back to greedy growing at the coarsest level.
    arity:
        Recursion arity of the initial spectral partition (2 = "Bi",
        8 = "Oct" in Table 1 naming).
    refine:
        Run FM refinement at every uncoarsening level (default True).
    final_kl:
        Additionally polish the finest level with pairwise KL sweeps.
    min_coarse_vertices:
        Stop coarsening below this size (>= ``4 * k`` is enforced so the
        coarsest graph can host k non-trivial parts).
    initial_method:
        "spectral" (default) or "greedy" for the coarsest-level partition.
    matcher:
        Matching function for coarsening (heavy-edge by default).
    """

    k: int
    arity: int = 2
    refine: bool = True
    final_kl: bool = False
    min_coarse_vertices: int = 64
    initial_method: str = "spectral"
    matcher = staticmethod(heavy_edge_matching)
    balance_tolerance: float = 0.10
    fm_passes: int = 6

    name = "multilevel"

    def partition(self, graph: Graph, seed: SeedLike = None) -> Partition:
        """Partition ``graph`` into ``self.k`` parts."""
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if self.k > graph.num_vertices:
            raise ConfigurationError(
                f"k={self.k} exceeds vertex count {graph.num_vertices}"
            )
        rng_hier, rng_init = spawn_rngs(seed, 2)
        min_coarse = max(self.min_coarse_vertices, 4 * self.k)
        levels = build_hierarchy(
            graph,
            min_vertices=min_coarse,
            seed=rng_hier,
            matcher=self.matcher,
        )
        coarsest = levels[-1].graph
        coarse_part = initial_partition(
            coarsest, self.k, method=self.initial_method, seed=rng_init
        )
        # Uncoarsen: project through each level's map, refining per level.
        assignment = coarse_part.assignment
        for idx in range(len(levels) - 1, 0, -1):
            fine_graph = levels[idx - 1].graph
            fine_assignment = assignment[levels[idx].fine_to_coarse]
            partition = Partition(fine_graph, fine_assignment)
            if self.refine:
                fm_refine(
                    partition,
                    max_passes=self.fm_passes,
                    balance_tolerance=self.balance_tolerance,
                )
            assignment = partition.assignment
        result = Partition(levels[0].graph, assignment)
        if self.refine and len(levels) == 1:
            fm_refine(
                result,
                max_passes=self.fm_passes,
                balance_tolerance=self.balance_tolerance,
            )
        if self.final_kl:
            kl_refine(result)
        return result
