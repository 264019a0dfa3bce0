"""Cross-module integration tests.

These exercise full pipelines on instances small enough to run in
seconds, asserting the *relationships* the paper's evaluation relies on
(method ranking on planted instances, refinement gains, percolation as a
shared initialiser, the ATC stack end-to-end).
"""

import numpy as np
import pytest

from repro import (
    FusionFissionPartitioner,
    LinearPartitioner,
    MultilevelPartitioner,
    PercolationPartitioner,
    SolveRequest,
    SpectralPartitioner,
    evaluate_partition,
    solve,
)
from repro.graph import weighted_caveman_graph
from repro.atc import core_area_network, build_blocks
from repro.atc.europe import core_area_graph
from repro.bench.harness import run_method
from repro.engine import SolverSpec


@pytest.fixture(scope="module")
def planted():
    """8 caves of 8: planted optimum cuts the 8 weak ring links."""
    return weighted_caveman_graph(8, 8, intra_weight=10.0, inter_weight=1.0)


class TestMethodRankingOnPlanted:
    """All serious methods find the planted optimum; the naive baseline
    does not — the qualitative core of Table 1."""

    OPTIMAL_EDGE_CUT = 8.0  # 8 ring links of weight 1

    def test_multilevel_finds_optimum(self, planted):
        p = MultilevelPartitioner(k=8).partition(planted, seed=0)
        assert p.edge_cut() == pytest.approx(self.OPTIMAL_EDGE_CUT)

    def test_spectral_finds_optimum(self, planted):
        p = SpectralPartitioner(k=8).partition(planted, seed=0)
        assert p.edge_cut() == pytest.approx(self.OPTIMAL_EDGE_CUT)

    def test_fusion_fission_finds_optimum(self, planted):
        p = solve(planted, 8, "fusion-fission", seed=0,
                  max_steps=6000).partition
        assert p.edge_cut() == pytest.approx(self.OPTIMAL_EDGE_CUT)

    def test_sa_finds_optimum(self, planted):
        p = solve(planted, 8, "simulated-annealing", seed=0,
                  tmax=2.0, max_steps=60000).partition
        assert p.edge_cut() == pytest.approx(self.OPTIMAL_EDGE_CUT)

    def test_ant_colony_near_optimum(self, planted):
        p = solve(planted, 8, "ant-colony", seed=0, iterations=120).partition
        assert p.edge_cut() <= 2 * self.OPTIMAL_EDGE_CUT

    def test_linear_far_from_optimum(self, planted):
        # Caveman vertex ids are cave-contiguous, so index-order blocks are
        # actually aligned here; scramble with a relabelling to model the
        # general case.
        rng = np.random.default_rng(0)
        perm = rng.permutation(64)
        u, v, w = planted.edge_arrays()
        from repro.graph import Graph

        scrambled = Graph.from_arrays(64, perm[u], perm[v], w)
        p = LinearPartitioner(k=8).partition(scrambled)
        assert p.edge_cut() > 5 * self.OPTIMAL_EDGE_CUT

    def test_kl_rescues_linear(self, planted):
        rng = np.random.default_rng(0)
        perm = rng.permutation(64)
        u, v, w = planted.edge_arrays()
        from repro.graph import Graph

        scrambled = Graph.from_arrays(64, perm[u], perm[v], w)
        raw = LinearPartitioner(k=8).partition(scrambled)
        refined = LinearPartitioner(k=8, refine=True).partition(scrambled)
        # §2.3: local refinement buys a large improvement.
        assert refined.edge_cut() < 0.9 * raw.edge_cut()


class TestRefinementGainOnAtc:
    """§2.3: KL refinement of the linear and spectral pipelines on the
    ATC instance ("with local refinement, results are generally 10 to
    30% better"), at k=8."""

    K = 8

    @pytest.fixture(scope="class")
    def atc_graph(self):
        return core_area_graph(seed=2006)

    def _gain(self, graph, method, **options):
        raw = run_method(
            SolverSpec(method, options, label="raw"), graph, self.K,
            seed=2006,
        )
        refined = run_method(
            SolverSpec(method, {**options, "refine": True}, label="kl"),
            graph, self.K, seed=2006,
        )
        return raw, refined

    def test_kl_on_linear(self, atc_graph):
        raw, refined = self._gain(atc_graph, "linear")
        # Index-order partitions of a geometric flow graph are dreadful;
        # the paper's 10-30% is a *floor* here.
        assert refined.cut <= raw.cut

    def test_kl_on_spectral_lanczos(self, atc_graph):
        raw, refined = self._gain(atc_graph, "spectral", solver="lanczos")
        assert refined.cut <= raw.cut * 1.05  # KL never hurts materially

    def test_kl_on_spectral_rqi(self, atc_graph):
        raw, refined = self._gain(atc_graph, "spectral", solver="rqi")
        assert refined.cut <= raw.cut * 1.05


class TestSharedInitialisation:
    def test_percolation_feeds_metaheuristics(self, planted):
        """§4.4: percolation initialises SA and ant colony — both must
        then never return anything worse than their start."""
        from repro.partition import McutObjective

        start = PercolationPartitioner(k=8).partition(planted, seed=5)
        start_mcut = McutObjective().value(start)
        sa = solve(planted, 8, "simulated-annealing", seed=5,
                   max_steps=5000).partition
        ac = solve(planted, 8, "ant-colony", seed=5, iterations=40).partition
        assert McutObjective().value(sa) <= start_mcut + 1e-9
        assert McutObjective().value(ac) <= start_mcut + 1e-9


class TestFusionFissionVsFixedK:
    def test_ff_visits_neighbouring_k(self, planted):
        session = FusionFissionPartitioner(k=8, max_steps=2500).start(
            SolveRequest(graph=planted, k=8, seed=1)
        )
        session.run()
        ks = set(session.stepper.finalize().best_by_k)
        assert 8 in ks
        assert ks & {6, 7, 9, 10}, "FF never explored around the target k"

    def test_ff_matches_percolation_planted_optimum(self, planted):
        # On the caveman family percolation's spread centres hit the
        # planted optimum directly, so matching it is the bar here (on the
        # ATC instance FF beats percolation by a wide margin — see
        # EXPERIMENTS.md).
        from repro.partition import McutObjective

        perc = PercolationPartitioner(k=8).partition(planted, seed=2)
        ff = solve(planted, 8, "fusion-fission", seed=0,
                   max_steps=12000).partition
        assert McutObjective().value(ff) <= McutObjective().value(perc) * 1.05 + 1e-9


class TestAtcEndToEnd:
    @pytest.fixture(scope="class")
    def network(self):
        return core_area_network(seed=2006)

    @pytest.mark.parametrize("method,opts", [
        ("multilevel", {}),
        ("percolation", {}),
        ("fusion-fission", {"max_steps": 600}),
    ])
    def test_block_design(self, network, method, opts):
        design = build_blocks(network, k=8, method=method, seed=0, **opts)
        assert design.num_blocks == 8
        report = evaluate_partition(design.partition)
        assert report.num_parts == 8
        assert np.isfinite(report.ncut)
        # Flow accounting closes exactly.
        total = design.intra_block_flow() + design.inter_block_flow()
        assert total == pytest.approx(network.total_flow())

    def test_flow_based_blocks_cross_borders(self, network):
        """The FABOP motivation: flow-driven blocks ignore borders, so at
        least one designed block spans multiple countries."""
        design = build_blocks(network, k=8, method="multilevel", seed=0)
        assert design.border_crossing_blocks() >= 1
