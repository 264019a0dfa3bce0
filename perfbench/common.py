"""Shared plumbing: run context, set-up timing, memory, percentiles, and
the stopping of every process a run leaves behind."""

from __future__ import annotations

import contextlib
import ctypes
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import OutputChecker

#: Fresh interpreters timed per run for ``setup_s`` (the median is reported).
SETUP_REPEATS = 5
#: How often :class:`TreeRssSampler` reads the process tree's RSS.
RSS_SAMPLE_SECONDS = 0.05
#: How long :func:`stop_children` lets children exit before killing them.
STOP_GRACE_SECONDS = 5.0
PR_SET_CHILD_SUBREAPER = 36   # from <linux/prctl.h>


@dataclass
class Context:
    """One benchmark run: where it runs, its seed, its time and its outputs."""

    root: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    out_dir: Path
    checker: OutputChecker = field(default_factory=OutputChecker)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def env(self) -> dict:
        """Environment for child interpreters: the checkout's ``src`` first."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return env


def measure_setup(ctx: Context, code: str) -> float:
    """Median wall time of ``code`` in :data:`SETUP_REPEATS` fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ctx.root,
                       env=ctx.env(), check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def vm_kb(pid: int, field_name: str) -> int:
    """A ``/proc/<pid>/status`` memory field in KiB (0 when the pid is gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        current = todo.pop()
        try:
            with open(f"/proc/{current}/task/{current}/children") as fh:
                children = [int(c) for c in fh.read().split()]
        except OSError:
            continue
        out.extend(children)
        todo.extend(children)
    return out


def adopt_orphans() -> None:
    """Make this process the parent of its orphaned descendants.

    ``multiprocessing`` starts a resource tracker that is meant to outlive
    its starter, and a killed server can leave children; as a child
    subreaper (Linux) this process inherits them, so :func:`stop_children`
    can stop them and wait for them.
    """
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _children() -> set[int]:
    pids: set[int] = set()
    with contextlib.suppress(OSError):
        for task in os.listdir("/proc/self/task"):
            with contextlib.suppress(OSError), \
                    open(f"/proc/self/task/{task}/children") as fh:
                pids.update(int(pid) for pid in fh.read().split())
    return pids


def _reap(deadline: float) -> bool:
    """Wait for children until ``deadline``; True once none is left."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.02)


def stop_children() -> None:
    """Stop every child process and wait until each has ended.

    The resource tracker is stopped first, the way ``multiprocessing``
    does it (it then unlinks anything left registered); every other child
    gets SIGTERM, and SIGKILL after :data:`STOP_GRACE_SECONDS`.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        with contextlib.suppress(Exception):
            tracker._resource_tracker._stop()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in _children():
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, sig)
        if _reap(time.monotonic() + STOP_GRACE_SECONDS):
            return


class TreeRssSampler:
    """Peak summed RSS of this process and its descendants, sampled in a thread."""

    def __init__(self) -> None:
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        me = os.getpid()
        while not self._stop.is_set():
            total = vm_kb(me, "VmRSS") + sum(
                vm_kb(pid, "VmRSS") for pid in _descendants(me)
            )
            self.peak_kb = max(self.peak_kb, total)
            self._stop.wait(RSS_SAMPLE_SECONDS)

    def __enter__(self) -> "TreeRssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
