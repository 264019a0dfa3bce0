"""Local refinement methods (paper §2.3).

Spectral and multilevel partitions are not locally optimal; the paper (and
Chaco's ``REFINE_PARTITION`` switch it benchmarks with) polishes them with
generalisations of the Kernighan–Lin bisection heuristic and the linear-time
Fiduccia–Mattheyses variant:

* :func:`kernighan_lin_pass` / :func:`kl_refine` — pairwise swap refinement
  between two parts, extended to k-way by sweeping adjacent part pairs,
* :func:`fm_refine` — k-way single-move Fiduccia–Mattheyses passes with
  gain ordering, per-pass vertex locking, a stop 200 moves after the
  last new best (as in METIS) and rollback to the best prefix,
* :func:`greedy_balance` — weight-balance repair used after operations
  that can skew part sizes.
"""

from repro.refine.kl import kernighan_lin_pass, kl_refine
from repro.refine.fm import fm_refine
from repro.refine.greedy import greedy_balance

__all__ = ["kernighan_lin_pass", "kl_refine", "fm_refine", "greedy_balance"]
