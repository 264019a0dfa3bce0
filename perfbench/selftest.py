"""The benchmark's own tests.

Run from the repository root (takes about ten seconds)::

    python3 perfbench/selftest.py

They check that tracing leaves the frozen digests unchanged, that every
metric name is well formed, and that failed operations are counted, not
skipped.
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import batch  # noqa: E402
import checks  # noqa: E402
import service_mix  # noqa: E402
import tracer as tracing  # noqa: E402
from common import Context  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _ctx() -> Context:
    return Context(root=ROOT, workload="selftest", seed=0, seconds=1.0,
                   trace=False, out_dir=ROOT / ".perfbench" / "selftest")


def _solve(method, instance, k, seed, max_iterations):
    from repro.api import SolveRequest, get_solver
    from repro.workloads import build_instance

    session = get_solver(method, k).start(
        SolveRequest(graph=build_instance(instance), k=k, seed=seed))
    return session.run(max_iterations=max_iterations).assignment


class TracingKeepsResults(unittest.TestCase):
    CASES = [(kind["method"], kind["instance"], kind["k"], 3,
              kind["max_iterations"]) for kind in service_mix.KINDS.values()]

    def test_traced_solves_match_frozen_digests(self):
        frozen = checks.load_digests()
        tracer = tracing.Tracer().install()
        try:
            for case in self.CASES:
                key = checks.request_key(*case)
                self.assertEqual(checks.digest(_solve(*case)), frozen[key],
                                 key)
        finally:
            tracer.uninstall()
        names = {row["name"] for row in tracer.rows()}
        self.assertIn("percolation.bonds", names)
        self.assertIn("antcolony.step", names)
        self.assertIn("api.session.start", names)

    def test_uninstall_restores_every_entry_point(self):
        import repro.fusionfission.operators as operators
        import repro.percolation.percolation as percolation

        before = (percolation.percolation_bonds, operators.percolation_bisect)
        tracer = tracing.Tracer().install()
        self.assertIsNot(percolation.percolation_bonds, before[0])
        self.assertIs(operators.percolation_bisect,
                      percolation.percolation_bisect)
        tracer.uninstall()
        self.assertEqual(
            (percolation.percolation_bonds, operators.percolation_bisect),
            before)

    def test_self_time_excludes_children(self):
        rows = [
            {"name": "a", "start": 0.0, "end": 10.0, "parent": None},
            {"name": "b", "start": 1.0, "end": 4.0, "parent": 0},
            {"name": "b", "start": 5.0, "end": 7.0, "parent": 0},
        ]
        summary = tracing.summarize(rows)
        self.assertEqual(summary["a"]["self_s"], 5.0)
        self.assertEqual(summary["b"], {"calls": 2, "s": 5.0, "self_s": 5.0})


class MetricNames(unittest.TestCase):
    def test_benchmark_json_names_and_units(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)
        for w in spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)

    def test_span_names_are_metric_names(self):
        for _, _, span in tracing.LAYER_TABLE:
            if isinstance(span, str):
                for suffix in (".calls", ".s", ".self_s"):
                    self.assertRegex(span + suffix, NAME_RE)


class FailuresAreCounted(unittest.TestCase):
    def setUp(self):
        from repro.workloads import build_instance

        self.graph = build_instance("mesh-200")

    def test_checker_rejects_bad_partitions(self):
        checker = checks.OutputChecker()
        good = np.arange(self.graph.num_vertices) % 4
        self.assertIsNone(checker.check("range", None, self.graph, 4,
                                        good + 1, "mcut", 0.0))
        self.assertIsNone(checker.check("parts", None, self.graph, 4,
                                        good % 3, "mcut", 0.0))
        self.assertIsNone(checker.check("objective", None, self.graph, 4,
                                        good, "mcut", 123.0))
        checker.frozen["k"] = "0" * 16
        self.assertIsNone(checker.check("digest", "k", self.graph, 4, good,
                                        "mcut", 0.0))
        self.assertEqual(len(checker.failures), 4)

    def test_failed_batch_solve_is_counted(self):
        ctx = _ctx()
        failed = batch.Solve("lost", None, None, 4, None, "mcut",
                             float("nan"), 0.0, 0.0)
        batch._check(ctx, [batch.Unit(0, 1.0, [failed])])
        self.assertEqual((ctx.attempted, ctx.failed), (1, 1))

    def test_failed_service_job_is_counted(self):
        ctx = _ctx()
        plan = service_mix.job_plan(0, 2)

        class Loop:
            records = [
                {"slot": 0, "job": plan[0], "state": "refused", "card": None,
                 "result": None, "error": "HTTP 400: refused"},
                {"slot": 1, "job": plan[1], "state": "failed",
                 "card": {"error": "boom"}, "result": None, "error": None},
            ]

        graphs = {kind["instance"]: None for kind in service_mix.KINDS.values()}
        self.assertEqual(service_mix._check(ctx, Loop, graphs), [])
        self.assertEqual((ctx.attempted, ctx.failed), (2, 2))

    def test_service_run_takes_min_jobs_in_whole_passes(self):
        loop = service_mix.ClosedLoop(None, service_mix.job_plan(0, 400),
                                      seconds=0.0)
        loop.start = 0.0   # the time is long up
        slots = list(iter(loop._take, None))
        self.assertEqual(len(slots), service_mix.MIN_JOBS)
        self.assertGreaterEqual(len(slots), 100)
        self.assertEqual(len(slots) % len(service_mix.PATTERN), 0)

    def test_repeats_are_the_only_duplicate_requests(self):
        plan = service_mix.job_plan(7, 400)
        originals = [job["key"] for job in plan if job["repeat_of"] is None]
        self.assertEqual(len(originals), len(set(originals)))
        for i, job in enumerate(plan):
            if job["repeat_of"] is not None:
                self.assertIsNone(plan[job["repeat_of"]]["repeat_of"])
                self.assertEqual(job["key"], plan[job["repeat_of"]]["key"])
                self.assertLess(job["repeat_of"], i)


if __name__ == "__main__":
    unittest.main()
