"""The perf harness: record schema, reference verification, CLI path."""

import json

import numpy as np
import pytest

from repro.bench.perf import (
    SCHEMA,
    format_perf_table,
    perf_report,
    run_perf_suite,
)
from repro.cli import main

EXPECTED_BENCHMARKS = {
    "fm_pass",
    "fm_gain_engine",
    "coarsen_level",
    "ff_step",
    "ff_initialize",
    "islands_1",
    "islands_2",
    "islands_4",
}


@pytest.fixture(scope="module")
def records():
    # Tiny instance: this is a correctness/schema test, not a timing one.
    return run_perf_suite(n=400, k=4, reps=1, seed=1)


class TestPerfSuite:
    def test_all_benchmarks_present(self, records):
        assert {r.name for r in records} == EXPECTED_BENCHMARKS

    def test_kernels_match_their_references(self, records):
        for r in records:
            assert r.matches_reference is not False, r.name

    def test_rates_are_positive(self, records):
        for r in records:
            assert r.seconds > 0 and r.ops_per_second > 0, r.name
            if r.reference_seconds is not None:
                assert r.speedup == pytest.approx(
                    r.reference_seconds / r.seconds
                )

    def test_report_schema(self, records):
        report = perf_report(records, {"n": 400, "quick": True})
        assert report["schema"] == SCHEMA
        assert report["config"]["n"] == 400
        assert len(report["results"]) == len(records)
        # Round-trips through JSON (no numpy scalars left behind).
        parsed = json.loads(json.dumps(report))
        for row in parsed["results"]:
            for key in ("name", "n", "m", "k", "reps", "seconds",
                        "ops_per_second", "unit"):
                assert key in row

    def test_table_renders_every_row(self, records):
        table = format_perf_table(records)
        for r in records:
            assert r.name in table


class TestBenchCLI:
    def test_bench_perf_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main([
            "bench", "perf", "--quick", "--n", "400", "--k", "4",
            "--reps", "1", "--json", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == SCHEMA
        assert report["config"]["quick"] is True
        assert {r["name"] for r in report["results"]} == EXPECTED_BENCHMARKS
        captured = capsys.readouterr()
        assert "fm_pass" in captured.out
