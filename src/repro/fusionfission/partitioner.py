"""Public fusion–fission partitioner.

:class:`FusionFissionPartitioner` exposes the paper's five parameters
(``tmax``, ``tmin``, ``nbt``, and the ``k``/``r`` constants of α(t), here
``alpha_slope``/``alpha_offset``) plus engineering knobs (step cap,
part-count ceiling, law learning rate) and two ablation switches that
turn off the binding-energy scaling (``scale_energy``) and the law
learning (``learn_laws``).  The criterion is the request's
``objective``.  ``docs/paper_mapping.md`` maps each part to the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fusionfission.core import FusionFissionRun
from repro.api.session import Solver

__all__ = ["FusionFissionPartitioner"]


@dataclass
class FusionFissionPartitioner(Solver):
    """Table 1's "Fusion Fission" row — the paper's contribution.

    Attributes
    ----------
    k:
        Target number of atoms; the returned partition has exactly ``k``
        parts (the session stepper's :meth:`FusionFissionRun.finalize`
        holds the full multi-k result).
    tmax, tmin, nbt, alpha_slope, alpha_offset:
        The five paper parameters (§6: "the fusion fission algorithm has
        five parameters, tmax, tmin and nbt for the temperature, k and r
        in α(t) for the choice function").
    law_learning_rate:
        The reinforcement "input value" of §4.1.
    max_steps:
        Step cap, lifted while the session has a wall-clock budget.
    scale_energy:
        Ablation: set False to optimise the raw objective without the
        binding-energy curve (the search then collapses toward few parts).
    learn_laws:
        Ablation: set False to keep ejection laws uniform.
    max_parts_factor:
        Ceiling on part count as a multiple of ``k``.
    """

    k: int
    tmax: float = 1.0
    tmin: float = 0.0
    nbt: int = 300
    alpha_slope: float = 1.0
    alpha_offset: float = 0.5
    law_learning_rate: float = 0.05
    max_steps: int = 4000
    scale_energy: bool = True
    learn_laws: bool = True
    max_parts_factor: float = 1.4

    name = "fusion-fission"
    #: Iterative family: sessions may run island-model (`islands > 1`).
    supports_islands = True
    stepper = FusionFissionRun
