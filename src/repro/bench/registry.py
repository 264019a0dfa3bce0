"""Method registry: canonical names → solver factories.

Every solver in the library subclasses :class:`repro.api.Solver`
(``start(request) -> SolveSession``); the registry lets
:func:`repro.api.get_solver`, the portfolio engine, the FABOP API and
the benches instantiate them uniformly by name.
:func:`canonical_method` resolves user-facing aliases (``annealing``,
``ff``, …) and :func:`table1_methods` returns the exact method matrix of
the paper's Table 1 (17 labelled :class:`~repro.engine.SolverSpec` rows).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.common.exceptions import ConfigurationError

__all__ = [
    "METHOD_FACTORIES",
    "METHOD_ALIASES",
    "METHOD_SUMMARIES",
    "METAHEURISTICS",
    "canonical_method",
    "list_methods",
    "table1_methods",
]


def _linear(k: int, **opts: Any):
    from repro.spectral.partitioner import LinearPartitioner

    return LinearPartitioner(k=k, **opts)


def _spectral(k: int, **opts: Any):
    from repro.spectral.partitioner import SpectralPartitioner

    return SpectralPartitioner(k=k, **opts)


def _multilevel(k: int, **opts: Any):
    from repro.multilevel.partitioner import MultilevelPartitioner

    return MultilevelPartitioner(k=k, **opts)


def _percolation(k: int, **opts: Any):
    from repro.percolation.percolation import PercolationPartitioner

    return PercolationPartitioner(k=k, **opts)


def _annealing(k: int, **opts: Any):
    from repro.annealing.sa import SimulatedAnnealingPartitioner

    return SimulatedAnnealingPartitioner(k=k, **opts)


def _antcolony(k: int, **opts: Any):
    from repro.antcolony.colony import AntColonyPartitioner

    return AntColonyPartitioner(k=k, **opts)


def _fusionfission(k: int, **opts: Any):
    from repro.fusionfission.partitioner import FusionFissionPartitioner

    return FusionFissionPartitioner(k=k, **opts)


METHOD_FACTORIES: dict[str, Callable[..., Any]] = {
    "linear": _linear,
    "spectral": _spectral,
    "multilevel": _multilevel,
    "percolation": _percolation,
    "simulated-annealing": _annealing,
    "ant-colony": _antcolony,
    "fusion-fission": _fusionfission,
}

#: User-facing shorthands accepted wherever a method name is expected.
METHOD_ALIASES: dict[str, str] = {
    "annealing": "simulated-annealing",
    "sa": "simulated-annealing",
    "antcolony": "ant-colony",
    "ants": "ant-colony",
    "aco": "ant-colony",
    "ff": "fusion-fission",
    "fusionfission": "fusion-fission",
    "ml": "multilevel",
}

#: One-line description per canonical method (``repro portfolio
#: --list-methods`` and the README table are generated from this).
METHOD_SUMMARIES: dict[str, str] = {
    "linear": "index-order recursive split; the do-nothing baseline",
    "spectral": "Lanczos/RQI Fiedler-vector recursion, optional KL",
    "multilevel": "coarsen → initial partition → FM-refined uncoarsening",
    "percolation": "the paper's §4.4 flooding heuristic from k centres",
    "simulated-annealing": "Metropolis vertex moves at fixed k (paper §3.1)",
    "ant-colony": "k competing colonies claiming territory (paper §3.2)",
    "fusion-fission": "the paper's contribution: variable-k atom dynamics (§4)",
}

#: Methods that honour an ``objective`` option and run for a whole
#: session wall-clock budget.
METAHEURISTICS = frozenset(
    {"simulated-annealing", "ant-colony", "fusion-fission"}
)


def _known_methods_text() -> str:
    """``canonical (aliases: …)`` lines for unknown-method errors."""
    rows = []
    for name in sorted(METHOD_FACTORIES):
        aliases = sorted(a for a, c in METHOD_ALIASES.items() if c == name)
        rows.append(
            f"{name} (aliases: {', '.join(aliases)})" if aliases else name
        )
    return "; ".join(rows)


def canonical_method(method: str) -> str:
    """Resolve a method name or alias to its canonical registry key.

    Unknown names raise a :class:`ConfigurationError` that lists every
    canonical method with its aliases (and a close-match suggestion when
    one exists) — never a bare ``KeyError``.
    """
    key = str(method).strip().lower()
    key = METHOD_ALIASES.get(key, key)
    if key not in METHOD_FACTORIES:
        import difflib

        candidates = list(METHOD_FACTORIES) + list(METHOD_ALIASES)
        close = difflib.get_close_matches(key, candidates, n=1, cutoff=0.6)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        raise ConfigurationError(
            f"unknown method {method!r}{hint}; known methods: "
            f"{_known_methods_text()}"
        )
    return key


def list_methods() -> list[tuple[str, list[str], str]]:
    """``(canonical name, aliases, summary)`` rows for every method."""
    rows = []
    for name in sorted(METHOD_FACTORIES):
        aliases = sorted(a for a, c in METHOD_ALIASES.items() if c == name)
        rows.append((name, aliases, METHOD_SUMMARIES.get(name, "")))
    return rows


def table1_methods(
    k: int = 32,
    metaheuristic_budget: float | None = None,
) -> list:
    """The 17 labelled :class:`~repro.engine.SolverSpec` rows of Table 1.

    Parameters
    ----------
    k:
        Part count (paper: 32).  Only the rows' budget plumbing depends
        on it; :func:`repro.bench.run_suite` takes ``k`` explicitly.
    metaheuristic_budget:
        Optional per-run wall-clock budget (seconds) for SA, ant colony
        and fusion–fission; ``None`` uses their step-count defaults.  A
        budget is authoritative: :meth:`SolverSpec.for_method` stores it
        on the spec, and every metaheuristic runs until it expires.
    """
    from repro.engine.spec import SolverSpec

    def row(label: str, method: str, **options: Any) -> SolverSpec:
        spec = SolverSpec.for_method(
            method, time_budget=metaheuristic_budget, **options
        )
        spec.label = label
        return spec

    return [
        row("Linear (Bi)", "linear"),
        row("Linear (Bi, KL)", "linear", refine=True),
        row("Linear (Oct, KL)", "linear", refine=True, arity=8),
        row("Spectral (Lanc, Bi)", "spectral", solver="lanczos", arity=2),
        row("Spectral (Lanc, Bi, KL)", "spectral", solver="lanczos", arity=2, refine=True),
        row("Spectral (Lanc, Oct)", "spectral", solver="lanczos", arity=8),
        row("Spectral (Lanc, Oct, KL)", "spectral", solver="lanczos", arity=8, refine=True),
        row("Spectral (RQI, Bi)", "spectral", solver="rqi", arity=2),
        row("Spectral (RQI, Bi, KL)", "spectral", solver="rqi", arity=2, refine=True),
        row("Spectral (RQI, Oct)", "spectral", solver="rqi", arity=8),
        row("Spectral (RQI, Oct, KL)", "spectral", solver="rqi", arity=8, refine=True),
        row("Multilevel (Bi)", "multilevel", arity=2),
        row("Multilevel (Oct)", "multilevel", arity=8),
        row("Percolation", "percolation"),
        row("Simulated annealing", "simulated-annealing"),
        row("Ant colony", "ant-colony"),
        row("Fusion Fission", "fusion-fission"),
    ]
