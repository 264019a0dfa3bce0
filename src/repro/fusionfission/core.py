"""Algorithm 1 (main loop) and Algorithm 2 (initialisation) of the paper.

The main loop, step by step (paper §4.2):

1. ``choose_atom`` — pick a uniformly random atom of the current molecule;
2. ``random(atom, cpart)`` — fission with probability ``choice(x)``
   (§4.3), fusion otherwise;
3. apply the operator; route every ejected nucleon through ``nfusion``
   (always, after fusion) or through ``nfission``/``nfusion`` depending on
   ``high_energy(n, t)`` (after fission);
4. update the law used (reinforce if the new molecule has lower energy);
5. ``decrease(t)``; if the temperature is *too low*, restart from the best
   molecule at full temperature, otherwise continue from the new molecule
   **even if its energy is higher** — that, plus the changing part count,
   is what lets fusion–fission escape the local minima fixed-k methods
   stall in.

The initialisation (Algorithm 2) is "a simplification of the core
algorithm": it starts from the molecule where *every nucleon is its own
atom* ("the number of partitions and the number of vertices are the same —
the energy of such a graph is maximal"), removes temperature and
nucleon-induced fission, and drives the atom count down to the target with
law-guided fusions.

That cascade is Θ(n) steps of Θ(n) work — the O(n²) hot spot PR 4 left
behind.  :func:`initialize_molecule` therefore supports a ``cascade``
mode: ``"law"`` is the exact historical loop; ``"matched"`` collapses the
far-from-target regime (n → ~4·k atoms) with vectorized rounds of mutual
heavy-edge matching over the atom graph — O((n + m) log n) total — and
only runs the law-guided loop for the final approach, where the paper's
law machinery actually shapes the molecule.  ``"auto"`` (the partitioner
default) picks ``matched`` on big graphs and the exact loop on small
ones, so seeded small-graph runs are bit-identical to the historical
behaviour.

The main loop itself lives in :class:`FusionFissionRun`, a resumable
stepper (one :meth:`FusionFissionRun.step` = one Algorithm-1 step)
whose full state — molecule, incumbents, law table, temperature —
serialises for the :mod:`repro.api` checkpoint machinery.  A session
drives it through :meth:`FusionFissionRun.advance`; tests and
benchmarks may step a session's stepper directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.common.exceptions import ConfigurationError
from repro.common.rng import SeedLike, ensure_rng
from repro.fusionfission.energy import ScaledEnergy
from repro.fusionfission.laws import FISSION, FUSION, LawTable
from repro.fusionfission.operators import (
    fission_step,
    fusion_step,
    nucleon_fission,
    nucleon_fusion,
)
from repro.fusionfission.temperature import TemperatureSchedule
from repro.graph.graph import Graph
from repro.partition.partition import Partition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import SolveSession

__all__ = [
    "FusionFissionResult",
    "FusionFissionRun",
    "initialize_molecule",
]

#: ``cascade="auto"`` switches to the matched prelude at this vertex count.
MATCHED_CASCADE_MIN_VERTICES = 4096

#: The matched prelude stops at ``min(this × k_target, n)`` atoms and lets
#: the exact law-guided loop walk the rest of the way to ``k_target``.
_MATCHED_HANDOFF_FACTOR = 4


@dataclass
class FusionFissionResult:
    """Outcome of a fusion–fission run.

    Attributes
    ----------
    best:
        Lowest *scaled-energy* molecule seen (its part count may differ
        from the target — the paper reports useful results from 27 to 38
        parts around a 32 target).
    best_energy:
        Scaled energy of ``best``.
    best_at_target:
        Best molecule with *exactly* ``k_target`` parts (None if never
        visited — cannot happen when initialisation reaches the target).
    best_raw_at_target:
        Raw objective of ``best_at_target``.
    best_by_k:
        ``{k: raw objective}`` of the best molecule seen at each part
        count — the data behind the paper's 27–38 claim.
    steps:
        Main-loop steps executed.
    restarts:
        Temperature restarts taken.
    """

    best: Partition
    best_energy: float
    best_at_target: Partition | None
    best_raw_at_target: float
    best_by_k: dict[int, float] = field(default_factory=dict)
    steps: int = 0
    restarts: int = 0


def matched_cascade_assignment(
    graph: Graph, k_stop: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized agglomeration: singleton atoms → at most ``k_stop``.

    Each round computes the atom-graph connection weights in one
    ``unique``/``bincount`` pass, then greedily matches atom pairs in
    descending weight order (seeded jitter breaks ties reproducibly) —
    heavy-edge matching on the atom graph.  A greedy matching is
    maximal, so on connected graphs the atom count shrinks
    geometrically: the whole cascade is O((n + m) log n) work instead
    of the law loop's O(n²).
    """
    n = graph.num_vertices
    assignment = np.arange(n, dtype=np.int64)
    owner = graph.arc_owners()
    indices = graph.indices
    weights = graph.weights
    k = n
    while k > k_stop:
        pu = assignment[owner]
        pv = assignment[indices]
        cross = pu < pv  # each atom pair once (the arc list is symmetric)
        if not cross.any():
            break  # disconnected islands only; the law loop finishes up
        keys = pu[cross] * np.int64(k) + pv[cross]
        uniq, inv = np.unique(keys, return_inverse=True)
        pair_w = np.bincount(inv, weights=weights[cross])
        # Greedy heavy-edge matching: heaviest pairs first, jitter
        # (< one part in 10^6) only breaks exact ties.
        score = pair_w * (1.0 + 1e-6 * rng.random(pair_w.shape[0]))
        order = np.argsort(-score, kind="stable")
        src = (uniq[order] // k).tolist()
        dst = (uniq[order] % k).tolist()
        matched = np.full(k, -1, dtype=np.int64)
        cap = k - k_stop
        merges = 0
        for u, v in zip(src, dst):
            if merges >= cap:
                break
            if matched[u] < 0 and matched[v] < 0:
                matched[u] = v
                matched[v] = u
                merges += 1
        if merges == 0:
            break  # cannot happen while cross pairs exist; belt and braces
        mine = np.arange(k, dtype=np.int64)
        root = np.where((matched >= 0) & (matched < mine), matched, mine)
        new_ids = np.cumsum(root == mine) - 1
        assignment = new_ids[root[assignment]]
        k = int(new_ids[-1]) + 1
    return assignment


def initialize_molecule(
    graph: Graph,
    k_target: int,
    laws: LawTable,
    energy: ScaledEnergy,
    seed: SeedLike = None,
    max_steps: int | None = None,
    cascade: str = "law",
) -> Partition:
    """Algorithm 2: group singleton atoms into a near-k molecule.

    Fusions are guided by the same partner-selection and law machinery as
    the core loop (with a fixed mid-range temperature and no
    nucleon-induced fission).  The loop ends when the molecule reaches
    ``k_target`` atoms.

    Parameters
    ----------
    cascade:
        ``"law"`` (exact historical loop from all singletons),
        ``"matched"`` (vectorized heavy-edge prelude down to
        ``~4·k_target`` atoms, then the law loop), or ``"auto"``
        (``matched`` from ``MATCHED_CASCADE_MIN_VERTICES`` vertices up,
        ``law`` below — seeded small-graph runs stay bit-identical).
    """
    n = graph.num_vertices
    if not (1 <= k_target <= n):
        raise ConfigurationError(f"k_target must be in [1, {n}], got {k_target}")
    if cascade not in ("law", "matched", "auto"):
        raise ConfigurationError(
            f"cascade must be 'law', 'matched' or 'auto', got {cascade!r}"
        )
    rng = ensure_rng(seed)
    if cascade == "auto":
        cascade = "matched" if n >= MATCHED_CASCADE_MIN_VERTICES else "law"
    if cascade == "matched":
        k_stop = min(max(k_target, _MATCHED_HANDOFF_FACTOR * k_target), n)
        partition = Partition(
            graph, matched_cascade_assignment(graph, k_stop, rng)
        )
    else:
        partition = Partition(graph, np.arange(n, dtype=np.int64))
    ideal_size = n / k_target
    if max_steps is None:
        max_steps = 8 * n
    previous_energy = energy.value(partition)
    for _ in range(max_steps):
        k = partition.num_parts
        if k <= k_target:
            break
        atom = int(rng.integers(k))
        ejected, law_key = fusion_step(
            partition,
            atom,
            laws,
            temperature_fraction=0.5,
            ideal_size=ideal_size,
            rng=rng,
        )
        for nucleon in ejected:
            nucleon_fusion(partition, int(nucleon))
        if law_key is not None:
            new_energy = energy.value(partition)
            laws.update(*law_key[:3], improved=new_energy < previous_energy)
            previous_energy = new_energy
    return partition


class FusionFissionRun:
    """Algorithm 1, the fusion–fission main loop, as a resumable stepper.

    The stepper of
    :class:`~repro.fusionfission.partitioner.FusionFissionPartitioner`:
    it reads the paper's parameters, the step cap, the part-count
    ceiling and the two ablation switches from ``session.solver``, and
    the graph, the target ``k`` and the objective from
    ``session.request``.  The molecule is steered around the target
    ``k`` but may drift (that drift is the method's point); the atom
    count never exceeds ``max(k + 1, round(max_parts_factor · k))``,
    which keeps hot phases from shattering it.

    A fresh run builds the molecule with :func:`initialize_molecule`
    (``cascade="auto"``) on ``session.rng`` and records it; ``state`` (a
    checkpoint's ``state`` block) restores one instead.  One
    :meth:`step` is one main-loop step.  New bests at the target k go to
    ``session._incumbent_improved``; the ``initialize``, ``search`` and
    ``finalize`` phases to ``session._set_phase``.  After the loop
    stops, :meth:`finalize` assembles the :class:`FusionFissionResult`.
    While the session has a wall-clock budget the step cap is lifted.
    """

    #: Main-loop steps per session iteration.
    chunk = 32

    def __init__(
        self, session: SolveSession, state: dict | None = None
    ) -> None:
        solver, request = session.solver, session.request
        graph, k_target = request.graph, request.k
        n = graph.num_vertices
        if not (2 <= k_target <= n):
            raise ConfigurationError(
                f"k_target must be in [2, {n}], got {k_target}"
            )
        self.graph = graph
        self.k_target = k_target
        self.energy = ScaledEnergy(n, k_target, objective=request.objective)
        if not solver.scale_energy:
            # Ablation: identity scaling (raw per-molecule objective).
            self.energy.scale.binding_for_parts = lambda k: 1.0  # type: ignore[method-assign]
        self.laws = LawTable(n, learning_rate=solver.law_learning_rate)
        if not solver.learn_laws:
            # Ablation: ejection laws stay uniform.
            self.laws.update = lambda *args, **kwargs: None  # type: ignore[method-assign]
        self.schedule = TemperatureSchedule(
            tmax=solver.tmax,
            tmin=solver.tmin,
            nbt=solver.nbt,
            alpha_slope=solver.alpha_slope,
            alpha_offset=solver.alpha_offset,
        )
        self.rng = session.rng
        self.max_steps = None if session.open_ended else solver.max_steps
        self.max_parts = max(
            k_target + 1, int(round(solver.max_parts_factor * k_target))
        )
        self.ideal_size = n / k_target
        self.on_improvement = session._incumbent_improved
        self.on_phase = session._set_phase
        if state is not None:
            self.restore_state(state)
            return

        session._set_phase("initialize")
        self.current = initialize_molecule(
            graph, k_target, self.laws, self.energy, seed=self.rng,
            cascade="auto",
        )
        current_raw = self.energy.raw(self.current)
        self.current_energy = self.energy.scale_raw(
            current_raw, self.current.num_parts
        )
        self.best = self.current.copy()
        self.best_energy = self.current_energy
        self.best_at_target: Partition | None = None
        self.best_raw_at_target = float("inf")
        self.best_by_k: dict[int, float] = {}
        self.steps = 0
        self.restarts = 0
        self.t = self.schedule.initial()
        self._record(self.current, self.current_energy, current_raw)
        session._set_phase("search")

    def _record(self, partition: Partition, scaled: float, raw: float) -> None:
        k = partition.num_parts
        if raw < self.best_by_k.get(k, float("inf")):
            self.best_by_k[k] = raw
        if scaled < self.best_energy - 1e-12:
            self.best = partition.copy()
            self.best_energy = scaled
        if k == self.k_target and raw < self.best_raw_at_target - 1e-12:
            self.best_at_target = partition.copy()
            self.best_raw_at_target = raw
            self.on_improvement(raw, self.best_at_target)

    def step(self) -> bool:
        """One Algorithm-1 step; False once the step cap is hit."""
        if self.max_steps is not None and self.steps >= self.max_steps:
            return False
        self.steps += 1
        current, rng, energy = self.current, self.rng, self.energy
        schedule, laws = self.schedule, self.laws
        atom = int(rng.integers(current.num_parts))
        atom_size = int(current.size[atom])
        p_fission = schedule.fission_probability(
            atom_size, self.ideal_size, self.t
        )
        t_frac = schedule.normalized(self.t)
        if rng.random() < p_fission:
            ejected, law_key = fission_step(
                current, atom, laws, max_parts=self.max_parts, rng=rng
            )
            for nucleon in ejected:
                # high_energy(n, t): a hot nucleon can strike a further
                # fission; a cold one is simply reabsorbed.
                if rng.random() < t_frac:
                    nucleon_fission(current, int(nucleon), self.max_parts, rng=rng)
                else:
                    nucleon_fusion(current, int(nucleon))
        else:
            ejected, law_key = fusion_step(
                current,
                atom,
                laws,
                temperature_fraction=t_frac,
                ideal_size=self.ideal_size,
                rng=rng,
            )
            for nucleon in ejected:
                nucleon_fusion(current, int(nucleon))

        # One raw-objective evaluation per step; the scaled energy and the
        # best-by-k bookkeeping both derive from it (identical floats to
        # calling energy.value + energy.raw separately).
        new_raw = energy.raw(current)
        new_energy = energy.scale_raw(new_raw, current.num_parts)
        if law_key is not None:
            laws.update(*law_key, improved=new_energy < self.current_energy)
        self.current_energy = new_energy
        self._record(current, self.current_energy, new_raw)

        self.t = schedule.decrease(self.t)
        if schedule.too_low(self.t):
            # Restart from the best molecule at full temperature.
            self.current = self.best.copy()
            self.current_energy = self.best_energy
            self.t = self.schedule.initial()
            self.restarts += 1
        return True

    # -- the session's stepper interface (see repro.api.session) -----------
    def advance(self) -> bool:
        """One session iteration: up to :attr:`chunk` steps; once the
        loop stops, :meth:`finalize` runs and this returns False."""
        for _ in range(self.chunk):
            if not self.step():
                self.on_phase("finalize")
                self.finalize()
                return False
        return True

    def best_partition(self) -> Partition:
        """Best molecule at the target k (the best at any k before one
        exists; :meth:`finalize` coerces one)."""
        if self.best_at_target is not None:
            return self.best_at_target
        return self.best

    def best_objective(self) -> float | None:
        if self.best_at_target is None:
            return None
        return self.best_raw_at_target

    def progress_payload(self) -> dict:
        return {
            "ff_steps": self.steps,
            "num_parts": self.current.num_parts,
            "temperature": self.t,
            "restarts": self.restarts,
        }

    def close(self) -> None:
        """Nothing to release."""

    def adopt_incumbent(self, partition: Partition, raw: float) -> None:
        """Adopt a migrated incumbent (island model): the donated
        molecule becomes the current state, recorded through the normal
        best-tracking path.

        ``raw`` is the donor's raw objective at its part count (islands
        migrate target-k incumbents, so this is ``best_raw_at_target``
        territory); the scaled energy is recomputed here because binding
        energy depends on the part count.  Deterministic — no random
        draws; temperature and law table are untouched.
        """
        raw = float(raw)
        scaled = self.energy.scale_raw(raw, partition.num_parts)
        self.current = partition.copy()
        self.current_energy = scaled
        self._record(self.current, scaled, raw)

    def finalize(self) -> FusionFissionResult:
        """Assemble the result (coerce to the target k if never visited)."""
        if self.best_at_target is None:
            # The search never visited the exact target k: Algorithm 2
            # stopped at its 8·n step cap above it (e.g. on a graph with
            # more connected components than k) and no step reached it
            # since.  Coerce the best molecule to k_target by greedy
            # merges/percolation splits.
            self.best_at_target = _coerce_to_k(
                self.best.copy(), self.k_target, self.rng
            )
            self.best_raw_at_target = self.energy.raw(self.best_at_target)
        return FusionFissionResult(
            best=self.best,
            best_energy=self.best_energy,
            best_at_target=self.best_at_target,
            best_raw_at_target=self.best_raw_at_target,
            best_by_k=self.best_by_k,
            steps=self.steps,
            restarts=self.restarts,
        )

    # -- checkpoint plumbing (see repro.api.session) -----------------------
    def export_state(self) -> dict:
        """JSON-serialisable loop state (rng handled by the session)."""
        return {
            "steps": self.steps,
            "restarts": self.restarts,
            "t": self.t,
            "current_assignment": [int(p) for p in self.current.assignment],
            "current_energy": self.current_energy,
            "best_assignment": [int(p) for p in self.best.assignment],
            "best_energy": self.best_energy,
            "best_at_target_assignment": (
                [int(p) for p in self.best_at_target.assignment]
                if self.best_at_target is not None else None
            ),
            "best_raw_at_target": self.best_raw_at_target,
            "best_by_k": {str(k): v for k, v in self.best_by_k.items()},
            "laws": self.laws.probabilities.tolist(),
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state` (rebuilds every partition)."""
        graph = self.graph
        self.steps = int(state["steps"])
        self.restarts = int(state["restarts"])
        self.t = float(state["t"])
        self.current = Partition(
            graph, np.asarray(state["current_assignment"], dtype=np.int64)
        )
        self.current_energy = float(state["current_energy"])
        self.best = Partition(
            graph, np.asarray(state["best_assignment"], dtype=np.int64)
        )
        self.best_energy = float(state["best_energy"])
        at_target = state["best_at_target_assignment"]
        self.best_at_target = (
            Partition(graph, np.asarray(at_target, dtype=np.int64))
            if at_target is not None else None
        )
        self.best_raw_at_target = float(state["best_raw_at_target"])
        self.best_by_k = {
            int(k): float(v) for k, v in state["best_by_k"].items()
        }
        probabilities = np.asarray(state["laws"], dtype=np.float64)
        if probabilities.shape != self.laws.probabilities.shape:
            raise ConfigurationError(
                f"law table shape {probabilities.shape} does not match "
                f"the graph ({self.laws.probabilities.shape})"
            )
        self.laws.probabilities = probabilities


def _coerce_to_k(partition: Partition, k_target: int, rng) -> Partition:
    """Force ``partition`` to exactly ``k_target`` parts.

    Merges the most-connected pair while too many parts; percolation-splits
    the largest part while too few.
    """
    from repro.percolation.percolation import percolation_bisect

    from repro.fusionfission.operators import _part_connection_weights

    while partition.num_parts > k_target:
        # Merge the pair with the strongest connection among pairs touching
        # the smallest atom (cheap heuristic, preserves quality).  The
        # connection profile comes from one batched CSR gather.
        small = int(np.argmin(partition.size))
        weights = _part_connection_weights(partition, small)
        weights[small] = -1.0
        partner = int(np.argmax(weights))
        if weights[partner] <= 0.0:
            others = [p for p in range(partition.num_parts) if p != small]
            partner = int(rng.choice(others))
        partition.merge_parts(small, partner)
    while partition.num_parts < k_target:
        big = int(np.argmax(partition.size))
        members = partition.members(big)
        if members.shape[0] < 2:
            break
        _, side_b = percolation_bisect(partition.graph, members, seed=rng)
        partition.split_part(big, side_b)
    return partition
