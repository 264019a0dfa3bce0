"""Parallel portfolio solver engine.

The engine is the layer above the individual solver families: it takes
one :class:`PartitionProblem`, fans it out across a portfolio of
:class:`SolverSpec` entrants × random seeds on a process pool, and
aggregates the outcomes (best-of selection on the raw objective,
per-method statistics, JSON report).  The paper's evaluation — five
solver families racing on the same ATC instance — *is* a portfolio run;
this package makes that the first-class execution primitive:

* :mod:`repro.engine.problem` — :class:`PartitionProblem`, the instance
  (graph, k, objective) every component agrees on;
* :mod:`repro.engine.spec` — :class:`SolverSpec`, declarative solver
  adapters over the :mod:`repro.bench.registry` factories;
* :mod:`repro.engine.runner` — :class:`PortfolioRunner`, the
  (spec × seed) grid executor: one scheduling loop over a process pool
  (``jobs>1``) or an inline pool in the caller's process
  (``jobs=1``), with deterministic seeding and deadline cancellation;
* :mod:`repro.engine.aggregate` — :class:`RunRecord`,
  :class:`MethodStats` and :class:`PortfolioResult` reporting;
* :mod:`repro.engine.retry` / :mod:`repro.engine.faults` — the fault
  tolerance layer: :class:`RetryPolicy` (deterministic same-seed
  retries with backoff), pool self-healing and straggler reaping in
  the runner, and :class:`FaultInjector` chaos testing (see
  ``docs/robustness.md``).

Quickstart
----------
>>> from repro.engine import PartitionProblem, PortfolioRunner, SolverSpec
>>> from repro.graph import weighted_caveman_graph
>>> problem = PartitionProblem(weighted_caveman_graph(4, 6), k=4)
>>> runner = PortfolioRunner(
...     [SolverSpec("multilevel"), SolverSpec("spectral")],
...     num_seeds=2, jobs=1, seed=0,
... )
>>> result = runner.run(problem)
>>> result.best is not None
True
"""

from repro.engine.aggregate import (
    REPORT_SCHEMA,
    MethodStats,
    PortfolioResult,
    RunRecord,
)
from repro.engine.faults import FaultInjector, FaultSpec
from repro.engine.problem import PartitionProblem
from repro.engine.retry import RetryPolicy
from repro.engine.runner import (
    PortfolioRunner,
    RunTask,
    execute_task,
    validate_assignment,
)
from repro.engine.spec import SolverSpec

__all__ = [
    "PartitionProblem",
    "SolverSpec",
    "PortfolioRunner",
    "PortfolioResult",
    "RunRecord",
    "RunTask",
    "MethodStats",
    "REPORT_SCHEMA",
    "RetryPolicy",
    "FaultInjector",
    "FaultSpec",
    "execute_task",
    "validate_assignment",
]
