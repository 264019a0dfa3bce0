"""The quality-band regression gate.

Every small-tier instance's frozen ``(method, seed)`` band pairs are
re-run on each test invocation; large-tier instances are marked ``slow``
(the ``workloads-smoke`` CI job selects them with ``-m slow``).  A band
excursion in either direction fails the gate: above the window is a
quality regression, below it is a metric or builder bug until proven
otherwise.

The gate asserts through :func:`repro.workloads.run_instance` — the same
call ``repro workloads run`` makes — so the CLI's printed verdicts and
this gate can never disagree.
"""

import dataclasses

import pytest

from repro.workloads import (
    INSTANCE_REGISTRY,
    REPORT_SCHEMA,
    TIER_LARGE,
    TIER_SMALL,
    run_instance,
)
from repro.workloads.dynamic import DynamicInstance

SMALL = sorted(
    n for n, inst in INSTANCE_REGISTRY.items()
    if inst.tier == TIER_SMALL and not isinstance(inst, DynamicInstance)
)
LARGE = sorted(
    n for n, inst in INSTANCE_REGISTRY.items()
    if inst.tier == TIER_LARGE and not isinstance(inst, DynamicInstance)
)


def _assert_bands_pass(name: str) -> None:
    report = run_instance(name)
    assert report["schema"] == REPORT_SCHEMA
    assert report["instance"]["name"] == name
    assert report["graph"]["fingerprint"]
    assert report["bands"], f"{name} gate ran zero bands"
    failures = [v for v in report["bands"] if v["verdict"] != "pass"]
    assert not failures, (
        f"{name} band excursions: "
        + "; ".join(
            f"{v['method']}@{v['seed']}: {', '.join(v['reasons'])}"
            for v in failures
        )
    )
    assert report["ok"]


@pytest.mark.parametrize("name", SMALL)
def test_small_tier_bands(name):
    _assert_bands_pass(name)


@pytest.mark.slow
@pytest.mark.parametrize("name", LARGE)
def test_large_tier_bands(name):
    _assert_bands_pass(name)


def test_report_schema_fields():
    report = run_instance("caveman-8x6")
    assert set(report) >= {
        "schema", "version", "instance", "seed", "graph", "bands", "ok",
    }
    for verdict in report["bands"]:
        assert set(verdict) >= {
            "method", "seed", "cut", "imbalance", "cut_lo", "cut_hi",
            "max_imbalance", "verdict", "reasons",
        }


def test_report_written_to_json(tmp_path):
    import json

    path = tmp_path / "report.json"
    report = run_instance("caveman-8x6", json_path=path)
    on_disk = json.loads(path.read_text())
    assert on_disk == json.loads(json.dumps(report))


def test_caveman_bands_find_planted_optimum():
    # The planted optimum cuts the 8 unit inter-cave edges (Cut = 16,
    # paper convention: cross edges counted twice).  Every banded method
    # must land on it exactly — the windows allow slack, the planted
    # structure does not require any.
    report = run_instance("caveman-8x6")
    for verdict in report["bands"]:
        assert verdict["cut"] == 16.0


def test_run_instance_builds_the_graph_once(monkeypatch):
    instance = INSTANCE_REGISTRY["caveman-8x6"]
    expected = run_instance("caveman-8x6")["bands"]
    seeds = []

    def counting_builder(seed):
        seeds.append(seed)
        return instance.builder(seed)

    monkeypatch.setitem(
        INSTANCE_REGISTRY, "caveman-8x6",
        dataclasses.replace(instance, builder=counting_builder),
    )
    report = run_instance("caveman-8x6")
    assert seeds == [instance.default_seed]
    assert report["bands"] == expected
