"""Property-based tests (hypothesis) on the core data structures.

These pin the invariants every algorithm relies on:

* CSR construction round-trips arbitrary edge lists;
* Partition bookkeeping (size / vertex_weight / internal / cut) survives
  arbitrary sequences of moves, merges and splits;
* conservation: internal + edge_cut == total weight, always;
* objective deltas equal the recomputed change of the part terms for
  arbitrary moves;
* law tables remain distributions under arbitrary update sequences;
* the percolation fixed point holds on arbitrary connected graphs, and
  a masked flood returns the whole-graph loop's bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fusionfission.laws import FISSION, FUSION, LawTable
from repro.graph import Graph
from repro.partition import (
    CutObjective,
    McutObjective,
    NcutObjective,
    Partition,
)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@st.composite
def edge_lists(draw, max_vertices: int = 12):
    """A random simple weighted graph as (n, [(u, v, w), ...])."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return n, [(u, v, w) for (u, v), w in zip(chosen, weights)]


@st.composite
def partitioned_graphs(draw, max_vertices: int = 12):
    """A connected-ish random graph with a valid compact assignment."""
    n, edges = draw(edge_lists(max_vertices))
    graph = Graph.from_edges(n, edges)
    k = draw(st.integers(min_value=1, max_value=n))
    # Guarantee compactness: first k vertices get distinct parts.
    assignment = [draw(st.integers(min_value=0, max_value=k - 1)) for _ in range(n)]
    for part in range(k):
        assignment[part] = part
    return graph, np.asarray(assignment, dtype=np.int64)


# ---------------------------------------------------------------------------
# Graph invariants
# ---------------------------------------------------------------------------
class TestGraphProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_construction_roundtrip(self, data):
        n, edges = data
        g = Graph.from_edges(n, edges)
        assert g.num_vertices == n
        assert g.num_edges == len(edges)
        for u, v, w in edges:
            assert g.edge_weight(u, v) == pytest.approx(w)
            assert g.edge_weight(v, u) == pytest.approx(w)

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_degree_sums_to_twice_total(self, data):
        n, edges = data
        g = Graph.from_edges(n, edges)
        assert g.degree().sum() == pytest.approx(2.0 * g.total_edge_weight)

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_edge_arrays_consistent(self, data):
        n, edges = data
        g = Graph.from_edges(n, edges)
        u, v, w = g.edge_arrays()
        assert (u < v).all()
        assert w.sum() == pytest.approx(g.total_edge_weight)


# ---------------------------------------------------------------------------
# Partition invariants under random operation sequences
# ---------------------------------------------------------------------------
class TestPartitionProperties:
    @given(partitioned_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_random_moves_preserve_invariants(self, data, pyrandom):
        graph, assignment = data
        p = Partition(graph, assignment)
        n = graph.num_vertices
        for _ in range(30):
            v = pyrandom.randrange(n)
            t = pyrandom.randrange(p.num_parts)
            if p.size[p.part_of(v)] > 1:
                p.move(v, t, allow_empty_source=False)
        p.check()
        total = graph.total_edge_weight
        assert p.internal.sum() + p.edge_cut() == pytest.approx(total)

    @given(partitioned_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_merge_split_preserve_invariants(self, data, pyrandom):
        graph, assignment = data
        p = Partition(graph, assignment)
        for _ in range(10):
            op = pyrandom.random()
            if op < 0.5 and p.num_parts >= 2:
                a = pyrandom.randrange(p.num_parts)
                b = pyrandom.randrange(p.num_parts)
                if a != b:
                    p.merge_parts(a, b)
            else:
                part = pyrandom.randrange(p.num_parts)
                members = p.members(part)
                if members.shape[0] >= 2:
                    cutpoint = pyrandom.randrange(1, members.shape[0])
                    p.split_part(part, members[:cutpoint])
        p.check()

    @given(partitioned_graphs())
    @settings(max_examples=40, deadline=None)
    def test_conservation(self, data):
        graph, assignment = data
        p = Partition(graph, assignment)
        # cut[A] + 2*W(A) == sum of degrees in A, for every part.
        for part in range(p.num_parts):
            deg_sum = float(
                np.asarray(graph.degree())[p.members(part)].sum()
            )
            assert p.cut[part] + 2.0 * p.internal[part] == pytest.approx(
                deg_sum, abs=1e-6
            )


# ---------------------------------------------------------------------------
# Objective deltas
# ---------------------------------------------------------------------------
class TestObjectiveProperties:
    @given(partitioned_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_deltas_exact(self, data, pyrandom):
        graph, assignment = data
        p = Partition(graph, assignment)
        objectives = [CutObjective(), NcutObjective(), McutObjective()]
        for _ in range(10):
            v = pyrandom.randrange(graph.num_vertices)
            t = pyrandom.randrange(p.num_parts)
            source = p.part_of(v)
            if source == t or p.size[source] <= 1:
                continue
            for obj in objectives:
                before = obj.value(p)
                delta = obj.delta_move(p, v, t)
                clone = p.copy()
                clone.move(v, t, allow_empty_source=False)
                after = obj.value(clone)
                if np.isfinite(before) and np.isfinite(after):
                    # Recompute the change part by part: the terms of the
                    # parts a move does not touch are bit-identical, so a
                    # huge one (cut/W with W ~ 1e-110 reaches ~1e110)
                    # cannot swallow the delta as it does in
                    # `after - before`.  rel guard: a touched term can be
                    # as large, and then one ulp alone exceeds 1e-6.
                    changed = obj.part_terms(clone) - obj.part_terms(p)
                    assert float(changed.sum()) == pytest.approx(
                        delta, abs=1e-6, rel=1e-9
                    )
            p.move(v, t, allow_empty_source=False)


# ---------------------------------------------------------------------------
# Law tables stay distributions
# ---------------------------------------------------------------------------
class TestLawProperties:
    @given(
        st.integers(min_value=2, max_value=20),
        st.lists(
            st.tuples(
                st.sampled_from([FUSION, FISSION]),
                st.integers(min_value=0, max_value=25),
                st.integers(min_value=0, max_value=3),
                st.booleans(),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_updates_keep_distribution(self, num_vertices, updates):
        laws = LawTable(num_vertices, learning_rate=0.1)
        for kind, size, choice, improved in updates:
            laws.update(kind, size, choice, improved)
        for kind in (FUSION, FISSION):
            for size in range(num_vertices + 1):
                d = laws.distribution(kind, size)
                assert d.sum() == pytest.approx(1.0)
                assert (d >= 0.0).all()
                assert (d <= 1.0).all()


# ---------------------------------------------------------------------------
# Percolation fixed point
# ---------------------------------------------------------------------------
class TestPercolationProperties:
    @given(edge_lists(max_vertices=10), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_bonds_satisfy_fixed_point(self, data, pyrandom):
        from repro.percolation import percolation_bonds

        n, edges = data
        # Ensure at least a spanning path so bonds propagate somewhere.
        path = [(i, i + 1, 1.0) for i in range(n - 1)]
        existing = {(u, v) for u, v, _ in edges}
        edges = edges + [e for e in path if (e[0], e[1]) not in existing]
        g = Graph.from_edges(n, edges)
        c0 = pyrandom.randrange(n)
        c1 = pyrandom.randrange(n)
        if c0 == c1:
            c1 = (c1 + 1) % n
        centers = np.array([c0, c1])
        bonds = percolation_bonds(g, centers)
        anchor = 2.0 * max(float(g.weights.max()), 1e-12)
        for v in range(n):
            for c in range(2):
                if v == centers[c]:
                    assert bonds[v, c] == pytest.approx(anchor)
                    continue
                nbrs, wts = g.neighbors(v)
                if nbrs.size == 0:
                    continue
                expected = max(
                    (bonds[int(u), c] + w) / 2.0 for u, w in zip(nbrs, wts)
                )
                assert bonds[v, c] == pytest.approx(expected, abs=1e-9)

    @given(
        edge_lists(max_vertices=12),
        st.randoms(use_true_random=False),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_masked_flood_equals_whole_graph_loop(self, data, pyrandom, k):
        """A masked flood sweeps only the mask's arcs, yet returns the
        bits of the whole-graph loop run with the same mask."""
        from repro.percolation import percolation_bonds
        from repro.percolation.reference import percolation_bonds_reference

        n, edges = data
        k = min(k, n)
        g = Graph.from_edges(n, edges)
        mask = np.array([pyrandom.random() < 0.6 for _ in range(n)])
        members = np.flatnonzero(mask)
        if members.size < k:
            mask[:k] = True
            members = np.flatnonzero(mask)
        centers = np.array(pyrandom.sample(members.tolist(), k))
        got = percolation_bonds(g, centers, mask=mask)
        want = percolation_bonds_reference(g, centers, mask)
        assert np.array_equal(got, want)
