"""Partition state and objective functions.

:class:`Partition` maintains a k-way assignment together with the per-part
quantities every objective in the paper needs —

* ``cut(A, V-A)`` — weight of edges leaving part ``A``,
* ``W(A)`` — weight of edges internal to ``A``,
* ``assoc(A, V) = cut(A, V-A) + W(A)``,

updated **incrementally**: a vertex move costs O(deg(v)), a part merge costs
O(boundary), never a full recompute.  The three objectives of paper §1
(:class:`CutObjective`, :class:`NcutObjective`, :class:`McutObjective`) are
evaluated from those quantities and expose exact ``delta_move`` for
metaheuristic inner loops.
"""

from repro.partition.partition import Partition
from repro.partition.gains import GainTable
from repro.partition.objectives import (
    Objective,
    CutObjective,
    NcutObjective,
    McutObjective,
    get_objective,
)
from repro.partition.balance import (
    imbalance,
    max_part_weight,
    part_weight_bounds,
    is_balanced,
)
from repro.partition.metrics import PartitionReport, evaluate_partition

__all__ = [
    "Partition",
    "GainTable",
    "Objective",
    "CutObjective",
    "NcutObjective",
    "McutObjective",
    "get_objective",
    "imbalance",
    "max_part_weight",
    "part_weight_bounds",
    "is_balanced",
    "PartitionReport",
    "evaluate_partition",
]
