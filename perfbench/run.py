"""End-to-end benchmark of the partitioning stack, one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ff-atc --seed 1 --seconds 20 --trace 0

Workloads: ``ff-atc``, ``ml-kernels``, ``service-mix``, ``portfolio``
(see ``perfbench/README.md``).  ``--trace 0`` reports the end-to-end
metrics named in ``BENCHMARK.json``; ``--trace 1`` reruns the workload
with the layer wrappers installed and reports the per-layer metrics.
Every returned partition is checked (see ``checks.py``); the last line
of standard output is one JSON object, and the exit code is 1 when any
check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ff-atc", "ml-kernels", "service-mix",
                                 "portfolio"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def layer_checks(workload: str, layer: dict) -> list[str]:
    """What the traced run must show about where the time went."""
    problems = []
    if workload == "ff-atc" and layer.get("percolation.bonds.share", 0) <= 0.5:
        problems.append(
            "percolation floods took only "
            f"{layer.get('percolation.bonds.share', 0):.0%} of a traced solve"
        )
    if workload == "ml-kernels":
        for name in ("percolation.bonds.calls", "percolation.bisect.calls",
                     "api.checkpoint.calls"):
            if layer.get(name, 0) != 0:
                problems.append(f"{name} is {layer[name]}, expected 0")
    # service-mix checks cache hits == repeats in every window it runs.
    return problems


def _exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit here, so the ``finally`` blocks that
    stop the children run; forked children keep the default action."""
    main_pid = os.getpid()

    def handler(signum, frame):
        if os.getpid() != main_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the repro package from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    spec = load_spec()
    from common import Context, adopt_orphans, stop_children

    adopt_orphans()
    _exit_on_sigterm()
    out_dir = OUT_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    ctx = Context(root=ROOT, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace),
                  out_dir=out_dir)
    started = time.perf_counter()
    try:
        if args.workload == "service-mix":
            import service_mix as workload
        else:
            import batch as workload
        metrics, layer = workload.run(ctx)
    finally:
        stop_children()
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):   # still used by another run
            OUT_ROOT.rmdir()

    failures = list(ctx.checker.failures)
    if ctx.trace:
        failures += layer_checks(args.workload, layer)
        wanted = spec["per_layer"]
        values = {m["name"]: layer.get(m["name"], 0.0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: metrics[m["name"]] for m in wanted}
    error_rate = ctx.failed / max(ctx.attempted, 1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"wall {time.perf_counter() - started:.1f}s")
    for note in ctx.notes:
        print(f"  {note}")
    print(f"  checked {ctx.checker.checked} partitions "
          f"({ctx.checker.digest_checked} against frozen digests)")
    for m in wanted:
        print(f"  {m['name']:<36} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<36} {error_rate:>14.6g} 1")
    for failure in failures:
        print(f"  FAILED {failure}")

    result = {
        "correct": not failures and ctx.failed == 0,
        "attempted": max(ctx.attempted, 1),
        "failed": ctx.failed,
        "metrics": {
            m["name"]: {
                "value": values[m["name"]]
                if math.isfinite(values[m["name"]]) else 0.0,
                "unit": m["unit"],
            }
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
