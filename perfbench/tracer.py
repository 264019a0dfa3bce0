"""In-memory span tracer wrapped around the public entry points of each layer.

The benchmark never edits ``src/``: :func:`install` replaces the layer
entry points listed in :data:`LAYER_TABLE` with thin wrappers that record
a span (name, start, end, parent span, thread) on ``time.perf_counter``.
Functions are rebound in every ``repro.*`` module that imported them by
name; methods are replaced on their class.  :func:`Tracer.uninstall`
restores the originals.

Spans are kept in memory and written out once, at the end
(:meth:`Tracer.dump`).  A span's self time is its duration minus the time
covered by its direct children.  Spans recorded on the service's slice
threads include time spent waiting for the GIL, because a thread that
lost the interpreter lock is still inside its span.

Pool workers forked by the portfolio engine inherit the wrappers; each
worker appends its spans to ``<out_dir>/spans-<pid>.jsonl`` after every
task (see :func:`_flush_worker_spans`), and the parent merges them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _session_span(args, kwargs) -> str:
    """Fresh sessions are ``api.session.start``; resumed ones restore."""
    checkpoint = kwargs.get("checkpoint", args[3] if len(args) > 3 else None)
    return "api.session.start" if checkpoint is None else "api.session.restore"


# (module, attribute path, span name).  The span name is the per-layer
# metric prefix: ``<name>.calls``, ``<name>.s`` and ``<name>.self_s``; a
# callable picks it from the call's arguments, and ``None`` records no
# span (the entry point only feeds a hook below).
LAYER_TABLE = [
    ("repro.percolation.percolation", "percolation_bonds", "percolation.bonds"),
    ("repro.percolation.percolation", "percolation_bisect", "percolation.bisect"),
    ("repro.percolation.percolation", "choose_spread_centers",
     "percolation.spread_centers"),
    ("repro.fusionfission.core", "initialize_molecule",
     "fusionfission.initialize"),
    ("repro.fusionfission.core", "FusionFissionRun.step", "fusionfission.step"),
    ("repro.fusionfission.operators", "fission_step",
     "fusionfission.fission_step"),
    ("repro.fusionfission.operators", "fusion_step",
     "fusionfission.fusion_step"),
    ("repro.fusionfission.operators", "nucleon_fission",
     "fusionfission.nucleon_fission"),
    ("repro.fusionfission.operators", "nucleon_fusion",
     "fusionfission.nucleon_fusion"),
    ("repro.multilevel.coarsening", "build_hierarchy",
     "multilevel.build_hierarchy"),
    ("repro.multilevel.initial", "initial_partition",
     "multilevel.initial_partition"),
    ("repro.refine.fm", "fm_refine", "refine.fm_refine"),
    ("repro.antcolony.colony", "AntColonyRun.step", "antcolony.step"),
    ("repro.antcolony.pheromone", "PheromoneField.deposit",
     "antcolony.pheromone"),
    ("repro.antcolony.pheromone", "PheromoneField.evaporate",
     "antcolony.pheromone"),
    ("repro.antcolony.pheromone", "PheromoneField.vertex_ownership",
     "antcolony.pheromone"),
    ("repro.annealing.sa", "AnnealRun.step", "annealing.step"),
    ("repro.api.session", "SolveSession.__init__", _session_span),
    ("repro.api.session", "SolveSession.checkpoint", "api.checkpoint"),
    ("repro.api.facade", "resume", "api.resume"),
    ("repro.service.service", "SolveService._run_slice_sync",
     "service.slice"),
    ("repro.service.store", "JobStore.save", "service.store.save"),
    ("repro.service.scheduler", "FairShareScheduler.enqueue", None),
    ("repro.service.scheduler", "FairShareScheduler.next", None),
    ("repro.engine.runner", "execute_task", "engine.task"),
]


class Tracer:
    """Nested named spans plus free-form counters and samples."""

    def __init__(self, out_dir: str | Path | None = None) -> None:
        self.out_dir = None if out_dir is None else Path(out_dir)
        self.pid = os.getpid()
        self.spans: list[list] = []      # [name, start, end, parent, tid]
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._marks: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0,
                stack[-1] if stack else None, threading.get_ident()]
        self.spans.append(span)
        stack.append(span)
        return span

    def exit(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        self.spans = []
        self.counters = defaultdict(float)
        self.samples = defaultdict(list)
        self._marks = {}
        self._local = threading.local()

    # -- installation --------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every entry point of :data:`LAYER_TABLE` (idempotent)."""
        if self._patched:
            return self
        for module_name, attr, span_name in LAYER_TABLE:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[leaf]
                self._patch(owner, leaf, self._wrap(original, attr, span_name))
            else:
                original = getattr(module, leaf)
                wrapper = self._wrap(original, attr, span_name)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("repro") and \
                            getattr(mod, leaf, None) is original:
                        self._patch(mod, leaf, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched = []

    def _patch(self, owner: object, leaf: str, wrapper) -> None:
        self._patched.append((owner, leaf, getattr(owner, leaf)))
        setattr(owner, leaf, wrapper)

    def _wrap(self, fn, attr: str, span_name: str | None):
        before, after = _HOOKS.get(attr, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            name = span_name(args, kwargs) if callable(span_name) \
                else span_name
            span = tracer.enter(name) if name is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if span is not None:
                    tracer.exit(span)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    # -- output --------------------------------------------------------------
    def rows(self) -> list[dict]:
        """Spans as JSON rows; ``parent`` is the parent's row index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "name": name, "start": start, "end": end,
                "parent": index.get(id(parent)) if parent is not None
                else None,
                "tid": tid, "pid": os.getpid(),
            }
            for name, start, end, parent, tid in self.spans
        ]

    def dump(self, path: str | Path) -> None:
        """Write spans, counters and samples as one JSON document."""
        Path(path).write_text(json.dumps({
            "spans": self.rows(),
            "counters": dict(self.counters),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }))


# -- hooks: counts and samples measured where the work happens ------------------

def _checkpoint_bytes(tracer, args, kwargs, result) -> None:
    tracer.count("api.checkpoint.bytes", len(json.dumps(result)))


def _store_bytes(tracer, args, kwargs, result) -> None:
    store, job = args[0], args[1]
    tracer.count("service.store.save.bytes",
                 os.path.getsize(store.job_path(job.id)))


def _mark_enqueue(tracer, args, kwargs, result) -> None:
    job_id = args[2] if len(args) > 2 else kwargs["job_id"]
    tracer._marks[job_id] = time.perf_counter()


def _queue_wait(tracer, args, kwargs, result) -> None:
    if result is not None and result in tracer._marks:
        tracer.sample("service.queue_wait",
                      time.perf_counter() - tracer._marks.pop(result))


def _worker_task_start(tracer, args, kwargs) -> None:
    # A forked pool worker starts with a copy of the parent's spans and
    # of the forking thread's span stack; both belong to the parent.
    if os.getpid() != tracer.pid:
        tracer.reset()


def _flush_worker_spans(tracer, args, kwargs, result) -> None:
    if os.getpid() == tracer.pid or tracer.out_dir is None:
        return
    with open(tracer.out_dir / f"spans-{os.getpid()}.jsonl", "a") as fh:
        fh.write(json.dumps(tracer.rows()) + "\n")
    tracer.reset()


_HOOKS = {
    "SolveSession.checkpoint": (None, _checkpoint_bytes),
    "JobStore.save": (None, _store_bytes),
    "FairShareScheduler.enqueue": (None, _mark_enqueue),
    "FairShareScheduler.next": (None, _queue_wait),
    "execute_task": (_worker_task_start, _flush_worker_spans),
}


# -- summaries ------------------------------------------------------------------

def summarize(rows: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, total ``s`` and ``self_s``.

    ``rows`` come from one process (``parent`` indexes into them); combine
    the summaries of several processes with :func:`merge`.
    """
    child_time = defaultdict(float)
    for row in rows:
        if row["parent"] is not None:
            child_time[row["parent"]] += row["end"] - row["start"]
    out: dict[str, dict[str, float]] = {}
    for i, row in enumerate(rows):
        entry = out.setdefault(row["name"], {"calls": 0, "s": 0.0,
                                             "self_s": 0.0})
        duration = row["end"] - row["start"]
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child_time[i]
    return out


def merge(*summaries: dict) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, entry in summary.items():
            acc = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
    return out


def per_unit(summary: dict, counters: dict, units: int) -> dict[str, float]:
    """Per-layer metrics per unit of work: calls, s, self_s and counters."""
    out: dict[str, float] = {}
    for name, entry in summary.items():
        for key, value in entry.items():
            out[f"{name}.{key}"] = value / units
    for name, value in counters.items():
        out[name] = value / units
    return out


def load_worker_summaries(out_dir: Path) -> dict[str, dict[str, float]]:
    """Merge the per-task span files pool workers wrote, then delete them."""
    parts = []
    for path in sorted(out_dir.glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            parts.append(summarize(json.loads(line)))
        path.unlink()
    return merge(*parts)
