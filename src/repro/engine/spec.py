"""The solver half of the engine API: *how* to partition.

A :class:`SolverSpec` is a declarative recipe for one portfolio entrant:
a registry method name, constructor options, a display label and an
optional wall-clock budget per run.  Specs are plain dataclasses of
primitives, so they pickle cheaply across process boundaries; the
engine builds a fresh solver from the spec for every run
(:meth:`SolverSpec.build_solver`) and drives it through a session,
``solver.start(request).run()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.bench.registry import METAHEURISTICS, canonical_method

__all__ = ["SolverSpec"]


@dataclass
class SolverSpec:
    """One entrant of a solver portfolio.

    Attributes
    ----------
    method:
        Registry name (aliases like ``annealing``/``ff`` accepted).
    options:
        Extra keyword arguments for the solver factory.
    label:
        Display name; defaults to the canonical method name.
    time_budget:
        Wall-clock seconds per run; the engine puts it in each run's
        :class:`~repro.api.Budget` (``None``: run to completion).
    """

    method: str
    options: dict[str, Any] = field(default_factory=dict)
    label: str | None = None
    time_budget: float | None = None

    def __post_init__(self) -> None:
        self.method = canonical_method(self.method)
        if self.label is None:
            self.label = self.method

    @classmethod
    def for_method(
        cls,
        method: str,
        time_budget: float | None = None,
        **options: Any,
    ) -> "SolverSpec":
        """Build a spec with the standard budget plumbing.

        ``time_budget`` is kept only for the metaheuristics, whose runs a
        budget stops (``repro portfolio --budget``).  The objective is
        the problem's (:class:`~repro.engine.problem.PartitionProblem`).
        """
        key = canonical_method(method)
        if key not in METAHEURISTICS:
            return cls(method=key, options=options)
        return cls(method=key, options=options, time_budget=time_budget)

    def build_solver(self, k: int):
        """A fresh :class:`repro.api.Solver` for ``k`` parts."""
        from repro.api import get_solver

        return get_solver(self.method, k, **self.options)

    def as_dict(self) -> dict:
        """Spec metadata for JSON reports."""
        return {
            "method": self.method,
            "label": self.label,
            "options": {
                key: value
                for key, value in self.options.items()
                if isinstance(value, (int, float, str, bool, type(None)))
            },
        }
