"""Public fusion–fission partitioner.

:class:`FusionFissionPartitioner` exposes the paper's five parameters
(``tmax``, ``tmin``, ``nbt``, and the ``k``/``r`` constants of α(t), here
``alpha_slope``/``alpha_offset``) plus engineering knobs (step/time budget,
objective, law learning rate).  Ablation switches — turning off the
binding-energy scaling, law learning, restarts, or percolation-based
fission — are provided for the design-choice benchmarks listed in
DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fusionfission.core import FusionFissionRun, initialize_molecule
from repro.fusionfission.energy import ScaledEnergy
from repro.fusionfission.laws import LawTable
from repro.fusionfission.temperature import TemperatureSchedule
from repro.graph.graph import Graph
from repro.partition.partition import Partition
from repro.api.request import SolveRequest
from repro.api.session import SolveSession

__all__ = ["FusionFissionPartitioner"]


@dataclass
class FusionFissionPartitioner:
    """Table 1's "Fusion Fission" row — the paper's contribution.

    Attributes
    ----------
    k:
        Target number of atoms; the returned partition has exactly ``k``
        parts (the session stepper's :meth:`FusionFissionRun.finalize`
        holds the full multi-k result).
    objective:
        Raw criterion being optimised (the ATC study uses ``"mcut"``).
    tmax, tmin, nbt, alpha_slope, alpha_offset:
        The five paper parameters (§6: "the fusion fission algorithm has
        five parameters, tmax, tmin and nbt for the temperature, k and r
        in α(t) for the choice function").
    law_learning_rate:
        The reinforcement "input value" of §4.1.
    max_steps, time_budget:
        Stopping criteria.
    scale_energy:
        Ablation: set False to optimise the raw objective without the
        binding-energy curve (the search then collapses toward few parts).
    learn_laws:
        Ablation: set False to keep ejection laws uniform.
    max_parts_factor:
        Ceiling on part count as a multiple of ``k``.
    init_cascade:
        Algorithm-2 strategy: ``"law"`` (exact historical cascade),
        ``"matched"`` (vectorized heavy-edge prelude) or ``"auto"``
        (matched on graphs of ≥ 4096 vertices, exact loop below — small
        seeded runs stay bit-identical to the historical behaviour).
    """

    k: int
    objective: str = "mcut"
    tmax: float = 1.0
    tmin: float = 0.0
    nbt: int = 300
    alpha_slope: float = 1.0
    alpha_offset: float = 0.5
    law_learning_rate: float = 0.05
    max_steps: int = 4000
    time_budget: float | None = None
    scale_energy: bool = True
    learn_laws: bool = True
    max_parts_factor: float = 1.4
    init_cascade: str = "auto"

    name = "fusion-fission"
    #: Iterative family: sessions may run island-model (`islands > 1`).
    supports_islands = True

    def _energy(
        self,
        graph: Graph,
        k: int | None = None,
        objective: str | None = None,
    ) -> ScaledEnergy:
        energy = ScaledEnergy(
            graph.num_vertices,
            self.k if k is None else k,
            objective=objective or self.objective,
        )
        if not self.scale_energy:
            # Ablation: identity scaling (raw per-molecule objective).
            energy.scale.binding_for_parts = lambda k: 1.0  # type: ignore[method-assign]
        return energy

    def _laws(self, graph: Graph) -> LawTable:
        laws = LawTable(graph.num_vertices, learning_rate=self.law_learning_rate)
        if not self.learn_laws:
            laws.update = lambda *args, **kwargs: None  # type: ignore[method-assign]
        return laws

    def _schedule(self) -> TemperatureSchedule:
        return TemperatureSchedule(
            tmax=self.tmax,
            tmin=self.tmin,
            nbt=self.nbt,
            alpha_slope=self.alpha_slope,
            alpha_offset=self.alpha_offset,
        )

    def start(
        self, request: SolveRequest, checkpoint: dict | None = None
    ) -> SolveSession:
        """Open a run session (the :class:`repro.api.Solver` protocol)."""
        return SolveSession(self, request, checkpoint)

    def stepper(
        self, session: SolveSession, state: dict | None = None
    ) -> FusionFissionRun:
        """A fresh :class:`FusionFissionRun` from Algorithm 2's molecule
        on ``session.rng``, or one restored from a checkpoint ``state``.

        Phases: ``initialize`` (Algorithm 2), ``search`` (Algorithm 1),
        ``finalize`` (coercion to the target k when needed).
        """
        graph, k = session.request.graph, session.request.k
        energy = self._energy(
            graph, k=k, objective=session.request.objective or self.objective
        )
        laws = self._laws(graph)
        if state is None:
            session._set_phase("initialize")
            initial = initialize_molecule(
                graph, k, laws, energy, seed=session.rng,
                cascade=self.init_cascade,
            )
        else:
            # The placeholder skips Algorithm 2 so the restored rng stream
            # is untouched; restore_state then overwrites every field.
            # (The constructor still records the placeholder, which can
            # count one incumbent event before any observer subscribes.)
            initial = Partition(
                graph, np.asarray(state["current_assignment"], dtype=np.int64)
            )
        run = FusionFissionRun(
            graph,
            k,
            energy,
            schedule=self._schedule(),
            laws=laws,
            max_steps=self.max_steps,
            time_budget=self.time_budget,
            max_parts_factor=self.max_parts_factor,
            seed=session.rng,
            initial=initial,
            on_improvement=session._incumbent_improved,
            on_phase=session._set_phase,
        )
        if state is None:
            session._set_phase("search")
        else:
            run.restore_state(state)
        return run
