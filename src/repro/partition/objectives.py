"""The three objective functions of paper §1, with exact move deltas.

* :class:`CutObjective`  — ``Cut(P) = Σ_A cut(A, V-A)``.  Note the paper's
  definition counts every cross edge twice (once from each side); the more
  common "edge cut counted once" is available as
  :meth:`~repro.partition.Partition.edge_cut` and equals ``Cut/2``.
* :class:`NcutObjective` — ``Ncut(P) = Σ_A cut(A)/assoc(A, V)`` with
  ``assoc(A, V) = cut(A) + W(A)`` (Shi & Malik's normalised cut).
* :class:`McutObjective` — ``Mcut(P) = Σ_A cut(A)/W(A)`` (Ding et al.'s
  min-max cut) — the criterion the ATC application optimises (§5).

Degenerate denominators: a part with no incident edges contributes 0 to
Ncut; a part with no *internal* edges but a positive cut contributes ``inf``
to Mcut (moving away from such parts is therefore always favourable, which
matches the physical analogy: a lone nucleon is maximally unstable).  A
cut is never negative; a negative ``cut`` can only be a rounding residue of
the incremental bookkeeping (``1 + 4.6e-110 - 1`` leaves 0, and the next
move subtracts the tiny weight again), so the ratio terms count it as 0 —
else a residue of ``-w`` over ``W(A) = w`` would add ``-1`` to Mcut.

Every objective implements ``delta_move(partition, v, target)`` — the exact
change in objective value if ``v`` moved to ``target`` — used by the
simulated-annealing step and the ant-colony daemon.  Only the source and
target part terms change under a single-vertex move; all other parts keep
both their ``cut`` and ``W`` values, so the delta needs O(deg(v)) work.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.common.exceptions import ConfigurationError
from repro.partition.partition import Partition

__all__ = [
    "Objective",
    "CutObjective",
    "NcutObjective",
    "McutObjective",
    "get_objective",
]


def _safe_ratio(cut: np.ndarray | float, denom: np.ndarray | float):
    """``cut/denom`` with the 0/0 -> 0 and x/0 -> inf conventions.

    A negative ``cut`` (a bookkeeping residue) counts as 0.
    """
    cut = np.maximum(np.asarray(cut, dtype=np.float64), 0.0)
    denom = np.asarray(denom, dtype=np.float64)
    with np.errstate(over="ignore"):
        # Overflow to inf on a denormal-tiny denominator is the same
        # "unboundedly bad part" outcome as the x/0 -> inf convention.
        out = np.where(
            denom > 0.0,
            np.divide(cut, np.where(denom > 0.0, denom, 1.0)),
            np.where(cut > 0.0, np.inf, 0.0),
        )
    return out


class Objective(ABC):
    """Interface shared by all partition objectives (lower is better)."""

    #: short name used by the bench harness and `get_objective`
    name: str = "abstract"

    @abstractmethod
    def value(self, partition: Partition) -> float:
        """Objective value of ``partition``."""

    @abstractmethod
    def part_terms(self, partition: Partition) -> np.ndarray:
        """``(k,)`` array of per-part contributions (summing to ``value``)."""

    def delta_move(
        self,
        partition: Partition,
        v: int,
        target: int,
        w_parts: np.ndarray | None = None,
    ) -> float:
        """Exact objective change if vertex ``v`` moved to part ``target``.

        Positive means the move would worsen (increase) the objective.
        The default implementation recomputes the source/target part terms
        from the O(deg(v)) neighbour aggregation; subclasses may override
        with something cheaper.  Callers that already hold
        ``partition.neighbor_part_weights(v)`` pass it as ``w_parts``
        (never mutated) to skip the aggregation.
        """
        source = partition.part_of(v)
        if source == target:
            return 0.0
        if not (0 <= target < partition.num_parts):
            raise ConfigurationError(
                f"target part {target} out of range (k={partition.num_parts})"
            )
        if w_parts is None:
            w_parts = partition.neighbor_part_weights(v)
        deg = float(partition.graph.degree(v))
        w_s = float(w_parts[source])
        w_t = float(w_parts[target])
        cut_s = float(partition.cut[source])
        cut_t = float(partition.cut[target])
        int_s = float(partition.internal[source])
        int_t = float(partition.internal[target])
        # Parenthesized exactly like Partition.move's in-place updates, so
        # the predicted terms equal the post-move bookkeeping bit for bit
        # (left-to-right association differs under cancellation, and Mcut
        # amplifies a 1e-20 residue in a near-zero cut to an O(1) error).
        new_cut_s = cut_s + (w_s - (deg - w_s))
        new_cut_t = cut_t + ((deg - w_t) - w_t)
        new_int_s = int_s - w_s
        new_int_t = int_t + w_t
        before = self._term(cut_s, int_s) + self._term(cut_t, int_t)
        after = self._term(new_cut_s, new_int_s) + self._term(new_cut_t, new_int_t)
        return after - before

    @abstractmethod
    def _term(self, cut: float, internal: float) -> float:
        """Per-part contribution from its (cut, W) pair."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class CutObjective(Objective):
    """``Cut(P) = Σ_A cut(A, V-A)`` — twice the classic edge cut."""

    name = "cut"

    def value(self, partition: Partition) -> float:
        return float(partition.cut.sum())

    def part_terms(self, partition: Partition) -> np.ndarray:
        return partition.cut.copy()

    def _term(self, cut: float, internal: float) -> float:
        return cut

    def delta_move(
        self,
        partition: Partition,
        v: int,
        target: int,
        w_parts: np.ndarray | None = None,
    ) -> float:
        # Cheaper closed form: only edges incident to v change status.
        source = partition.part_of(v)
        if source == target:
            return 0.0
        if not (0 <= target < partition.num_parts):
            raise ConfigurationError(
                f"target part {target} out of range (k={partition.num_parts})"
            )
        if w_parts is None:
            w_parts = partition.neighbor_part_weights(v)
        # Each newly-cut edge adds 2 (counted from both sides), each healed
        # edge removes 2.
        return 2.0 * (float(w_parts[source]) - float(w_parts[target]))


class NcutObjective(Objective):
    """``Ncut(P) = Σ_A cut(A) / (cut(A) + W(A))``."""

    name = "ncut"

    def value(self, partition: Partition) -> float:
        return float(
            _safe_ratio(partition.cut, partition.cut + partition.internal).sum()
        )

    def part_terms(self, partition: Partition) -> np.ndarray:
        return _safe_ratio(partition.cut, partition.cut + partition.internal)

    def _term(self, cut: float, internal: float) -> float:
        if cut <= 0.0:
            return 0.0
        denom = cut + internal
        if denom <= 0.0:
            return float("inf")
        return cut / denom


class McutObjective(Objective):
    """``Mcut(P) = Σ_A cut(A) / W(A)`` — the ATC criterion (paper §5)."""

    name = "mcut"

    def value(self, partition: Partition) -> float:
        return float(_safe_ratio(partition.cut, partition.internal).sum())

    def part_terms(self, partition: Partition) -> np.ndarray:
        return _safe_ratio(partition.cut, partition.internal)

    def _term(self, cut: float, internal: float) -> float:
        if cut <= 0.0:
            return 0.0
        if internal <= 0.0:
            return float("inf")
        return cut / internal


_REGISTRY: dict[str, type[Objective]] = {
    cls.name: cls for cls in (CutObjective, NcutObjective, McutObjective)
}


def get_objective(name: str | Objective) -> Objective:
    """Resolve an objective by name (``"cut"``, ``"ncut"``, ``"mcut"``).

    Passing an :class:`Objective` instance returns it unchanged.
    """
    if isinstance(name, Objective):
        return name
    key = str(name).lower()
    if key not in _REGISTRY:
        raise ConfigurationError(
            f"unknown objective {name!r}; choose from {sorted(_REGISTRY)}"
        )
    return _REGISTRY[key]()
