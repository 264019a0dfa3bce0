"""The session contract, one matrix for every iterative family.

For each small-tier static instance and iterative family, four runs of
one seeded request must agree:

* an uninterrupted run;
* the same request in one-iteration slices, each resumed from a
  ``json.dumps`` round trip of the previous slice's checkpoint;
* ``islands=2`` (``migration_interval=2``) stepped serially
  (``island_jobs=1``);
* the same island request stepped on a worker pool (``island_jobs=2``).

The first two must agree with each other, and so must the last two:
equal assignments everywhere, equal objectives except on float-weighted
``geometric-150``, where the documented scope is ``rel=1e-12``.

The rest of the module pins checkpoint behaviour: a restored finished
session reports phase ``done``, checkpoints written by an earlier
version (``tests/fixtures/checkpoints``) still resume to their recorded
result, and a checkpoint refuses a graph whose content differs from the
one it was taken on.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import SolveRequest, get_solver, resume
from repro.common.exceptions import CheckpointError
from repro.graph import Graph, weighted_caveman_graph
from repro.workloads import (
    TIER_SMALL,
    build_instance,
    get_instance,
    list_instances,
)

SMALL_STATIC = [
    inst.name for inst in list_instances()
    if inst.kind == "static" and inst.tier == TIER_SMALL
]
#: Float-weighted instances: objectives agree to rounding, not bit for bit.
FLOAT_WEIGHTED = {"geometric-150"}
ITERATIVE = {
    "simulated-annealing": {"max_steps": 2000},
    "ant-colony": {"iterations": 6},
    "fusion-fission": {"max_steps": 200},
}
ALL_METHODS = {
    "linear": {},
    "spectral": {},
    "multilevel": {},
    "percolation": {},
    **ITERATIVE,
}
FIXTURES = Path(__file__).parent / "fixtures" / "checkpoints"


def _start(graph, k, method, **request):
    request = SolveRequest(graph=graph, k=k, seed=5, **request)
    return get_solver(method, k, **ALL_METHODS[method]).start(request)


def _sliced(graph, k, method):
    """Run one iteration at a time, resuming each slice from JSON."""
    session = _start(graph, k, method)
    while True:
        report = session.run(max_iterations=session.iteration + 1)
        if report.status != "running":
            return report
        checkpoint = json.loads(json.dumps(session.checkpoint()))
        session = resume(graph, checkpoint)


def _assert_agree(a, b, instance):
    assert a.status == b.status == "done"
    assert np.array_equal(a.partition.assignment, b.partition.assignment)
    if instance in FLOAT_WEIGHTED:
        assert a.objective_value == pytest.approx(b.objective_value, rel=1e-12)
    else:
        assert a.objective_value == b.objective_value


@pytest.mark.parametrize("method", sorted(ITERATIVE))
@pytest.mark.parametrize("instance", SMALL_STATIC)
def test_contract_matrix(instance, method):
    graph, k = build_instance(instance), get_instance(instance).default_k
    whole = _start(graph, k, method).run()
    _assert_agree(_sliced(graph, k, method), whole, instance)
    serial, pooled = (
        _start(
            graph, k, method, islands=2, migration_interval=2,
            island_jobs=jobs,
        ).run()
        for jobs in (1, 2)
    )
    _assert_agree(pooled, serial, instance)


@pytest.fixture(scope="module")
def caveman():
    return weighted_caveman_graph(4, 6)


@pytest.mark.parametrize("method", sorted(ALL_METHODS))
def test_restored_finished_session_is_done(caveman, method):
    session = _start(caveman, 4, method)
    session.run()
    checkpoint = json.loads(json.dumps(session.checkpoint()))
    restored = resume(caveman, checkpoint)
    assert restored.status == "done"
    assert restored.phase == "done"


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem
)
def test_older_checkpoints_still_finish(caveman, path):
    """Checkpoints written before graph fingerprints existed resume and
    finish with their recorded result.

    Each fixture holds a paused checkpoint (``weighted_caveman_graph(4,
    6)``, k=4, seed 9: iterative methods after two iterations, island
    runs after one round, one-shot methods before their construction)
    and the assignment and objective its uninterrupted resume produced
    when it was written."""
    fixture = json.loads(path.read_text())
    assert "fingerprint" not in fixture["checkpoint"]["graph"]
    report = resume(caveman, fixture["checkpoint"]).run()
    assert report.status == "done"
    assert [int(p) for p in report.partition.assignment] == (
        fixture["assignment"]
    )
    assert report.objective_value == fixture["objective_value"]


def test_fixtures_cover_every_method():
    names = {path.stem for path in FIXTURES.glob("*.json")}
    assert names == set(ALL_METHODS) | {
        "simulated-annealing-islands2", "fusion-fission-islands2",
    }


def _reweighted(graph):
    u, v, w = graph.edge_arrays()
    return Graph.from_arrays(graph.num_vertices, u, v, w + 1.0)


@pytest.mark.parametrize("method", ["percolation", "simulated-annealing"])
def test_checkpoint_refuses_a_reweighted_graph(caveman, method):
    session = _start(caveman, 4, method)
    session.step()
    checkpoint = json.loads(json.dumps(session.checkpoint()))
    other = _reweighted(caveman)
    assert (other.num_vertices, other.num_edges) == (
        caveman.num_vertices, caveman.num_edges,
    )
    with pytest.raises(CheckpointError, match="different edges or weights"):
        resume(other, checkpoint)
    assert resume(caveman, checkpoint).iteration == 1


def test_checkpoint_without_fingerprint_keeps_the_shape_check(caveman):
    checkpoint = _start(caveman, 4, "percolation").checkpoint()
    del checkpoint["graph"]["fingerprint"]
    assert resume(_reweighted(caveman), checkpoint).iteration == 0
    with pytest.raises(CheckpointError, match="different graph"):
        resume(weighted_caveman_graph(4, 7), checkpoint)
