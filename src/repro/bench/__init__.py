"""Benchmark harness reproducing the paper's evaluation (§6).

* :mod:`repro.bench.registry` — name → solver factory (with user
  aliases), plus the exact 17-method matrix of Table 1,
* :mod:`repro.bench.harness` — run a method suite on a graph through the
  portfolio engine and collect Cut/Ncut/Mcut rows (``jobs > 1`` uses a
  process pool),
* :mod:`repro.bench.table1` — regenerate Table 1 (``python -m
  repro.bench.table1 [--jobs N]``),
* :mod:`repro.bench.figure1` — regenerate Figure 1's quality-vs-time
  series (``python -m repro.bench.figure1``),
* :mod:`repro.bench.ksweep` — the §6 claim that fusion–fission returns
  good partitions for a *range* of k around the target.
"""

from repro.bench.registry import (
    METHOD_ALIASES,
    METHOD_FACTORIES,
    METHOD_SUMMARIES,
    canonical_method,
    list_methods,
    table1_methods,
)
from repro.bench.harness import run_suite, format_table

__all__ = [
    "canonical_method",
    "list_methods",
    "table1_methods",
    "METHOD_FACTORIES",
    "METHOD_ALIASES",
    "METHOD_SUMMARIES",
    "run_suite",
    "format_table",
]
