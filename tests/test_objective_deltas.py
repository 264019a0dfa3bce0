"""Incremental-objective consistency and kernel-vs-reference equivalence.

Every optimized kernel must give the results of the sequential
implementation it replaced.  This module pins

* ``delta_move`` equal to the change of the two part terms a move
  touches, within 1e-9, across Cut/Ncut/Mcut and random move sequences
  (property-based);
* the gain-table FM pass against the frozen per-vertex reference on
  seeded graphs (same assignment, same improvement), unit and float
  weights, uniform and coarsened vertex weights, at the default stall
  limit and at one low enough to cut every pass short;
* the batched ``Partition.weight_between`` against its per-vertex loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atc.europe import core_area_graph
from repro.graph import Graph, grid_graph, random_geometric_graph
from repro.graph.coarsen import contract_graph
from repro.partition import Partition, get_objective
from repro.partition.reference import weight_between_reference
from repro.refine import fm
from repro.refine.fm import fm_refine
from repro.refine.reference import fm_refine_reference

OBJECTIVES = ["cut", "ncut", "mcut"]

#: (graph, k) per weight regime: unit, float edge weights, the ATC
#: instance, non-uniform (coarsened) vertex weights.
STALL_CASES = {
    "grid-unit": lambda: (grid_graph(16, 16), 8),
    "geometric-float": lambda: (
        random_geometric_graph(220, 0.12, seed=0)[0], 5
    ),
    "atc": lambda: (core_area_graph(seed=2006), 8),
    "coarsened": lambda: (
        contract_graph(grid_graph(20, 20), np.arange(400) // 2)[0], 4
    ),
}


@st.composite
def partitioned_graphs(draw, max_vertices: int = 14):
    """Random simple weighted graph + compact assignment (k >= 2)."""
    n = draw(st.integers(min_value=3, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(
            st.sampled_from(possible), unique=True, min_size=1,
            max_size=len(possible),
        )
    )
    weight = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
    weights = draw(
        st.lists(weight, min_size=len(chosen), max_size=len(chosen))
    )
    graph = Graph.from_edges(
        n, [(u, v, w) for (u, v), w in zip(chosen, weights)]
    )
    k = draw(st.integers(min_value=2, max_value=n))
    assignment = [
        draw(st.integers(min_value=0, max_value=k - 1)) for _ in range(n)
    ]
    for part in range(k):
        assignment[part] = part
    return graph, np.asarray(assignment, dtype=np.int64)


class TestDeltaMoveConsistency:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), case=partitioned_graphs())
    def test_value_plus_delta_matches_recompute(self, data, case):
        """``delta_move`` equals the actual change of the source/target
        part terms, for a random move sequence across all objectives.

        Term-wise comparison (not ``value(after) - value(before)``): a
        single-vertex move only touches two part terms, and with
        adversarial float weights an untouched degenerate term (a ~1e30
        Mcut ratio from a near-zero denominator) makes the whole-sum
        difference lose every bit of the small delta below its ulp.  The
        changed terms themselves are predicted bit-compatibly by
        ``delta_move``'s move-matching parenthesization, so comparing
        them is both well-conditioned and strictly stronger.
        """
        graph, assignment = case
        partition = Partition(graph, assignment)
        objectives = [get_objective(name) for name in OBJECTIVES]
        for _ in range(6):
            v = data.draw(
                st.integers(0, graph.num_vertices - 1), label="vertex"
            )
            target = data.draw(
                st.integers(0, partition.num_parts - 1), label="target"
            )
            source = partition.part_of(v)
            if target == source:
                # A no-op move; the term-wise sum below would add the
                # part's (possibly ~1e308) term to itself and overflow.
                assert all(
                    obj.delta_move(partition, v, target) == 0.0
                    for obj in objectives
                )
                continue
            if partition.size[source] <= 1:
                continue
            terms_before = [
                obj.part_terms(partition).copy() for obj in objectives
            ]
            deltas = [
                obj.delta_move(partition, v, target) for obj in objectives
            ]
            partition.move(v, target, allow_empty_source=False)
            # size > 1 was enforced, so no part vanished: ids are stable.
            for obj, before, delta in zip(objectives, terms_before, deltas):
                after = obj.part_terms(partition)
                touched = [
                    before[source], before[target],
                    after[source], after[target],
                ]
                if np.all(np.isfinite(touched)):
                    changed = (after[source] + after[target]) - (
                        before[source] + before[target]
                    )
                    assert changed == pytest.approx(
                        delta, abs=1e-9, rel=1e-9
                    ), obj.name


class TestFMEquivalence:
    """Gain-table FM replays the reference's exact move sequence."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [3, 8])
    def test_grid_unit_weights(self, seed, k):
        graph = grid_graph(16, 16)
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, k, graph.num_vertices)
        assignment[:k] = np.arange(k)
        self._assert_equivalent(graph, assignment)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_geometric_float_weights(self, seed):
        graph, _ = random_geometric_graph(220, 0.12, seed=seed)
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, 5, graph.num_vertices)
        assignment[:5] = np.arange(5)
        self._assert_equivalent(graph, assignment)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_atc_instance(self, seed):
        graph = core_area_graph(seed=2006)
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, 8, graph.num_vertices)
        assignment[:8] = np.arange(8)
        self._assert_equivalent(graph, assignment)

    def test_coarsened_nonuniform_vertex_weights(self):
        fine = grid_graph(20, 20)
        coarse, _ = contract_graph(fine, np.arange(400) // 2)
        rng = np.random.default_rng(7)
        assignment = rng.integers(0, 4, coarse.num_vertices)
        assignment[:4] = np.arange(4)
        self._assert_equivalent(coarse, assignment)

    @pytest.mark.parametrize("case", sorted(STALL_CASES))
    def test_stall_rule_fires_in_both(self, case, monkeypatch):
        """With the shared stall limit lowered to 5 moves, both
        implementations stop each pass at the same move."""
        graph, k = STALL_CASES[case]()
        rng = np.random.default_rng(0)
        assignment = rng.integers(0, k, graph.num_vertices)
        assignment[:k] = np.arange(k)
        default = Partition(graph, assignment.copy())
        fm_refine(default, max_passes=4)
        monkeypatch.setattr(fm, "STALL_MOVES", 5)
        cut_short = self._assert_equivalent(graph, assignment)
        # The rule fired: it changed the result of the default limit.
        assert not np.array_equal(cut_short.assignment, default.assignment)

    @staticmethod
    def _assert_equivalent(graph, assignment):
        p_new = Partition(graph, assignment.copy())
        p_old = Partition(graph, assignment.copy())
        gain_new = fm_refine(p_new, max_passes=4)
        gain_old = fm_refine_reference(p_old, max_passes=4)
        assert np.array_equal(p_new.assignment, p_old.assignment)
        assert gain_new == pytest.approx(gain_old, abs=1e-9)
        p_new.check()
        return p_new


class TestWeightBetweenEquivalence:
    def test_weight_between_matches_reference(self):
        graphs = [random_geometric_graph(150, 0.15, seed=s)[0] for s in (0, 1)]
        # Integral weights take the batched gather, floats the loop.
        graphs.append(grid_graph(12, 12))
        for seed, graph in enumerate(graphs):
            rng = np.random.default_rng(seed)
            assignment = rng.integers(0, 4, graph.num_vertices)
            assignment[:4] = np.arange(4)
            partition = Partition(graph, assignment)
            for a in range(4):
                for b in range(a + 1, 4):
                    assert partition.weight_between(a, b) == pytest.approx(
                        weight_between_reference(partition, a, b), abs=1e-9
                    )
