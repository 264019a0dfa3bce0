"""One worker pool over one graph.

A :class:`GraphPool` starts a ``ProcessPoolExecutor`` whose initializer
receives the graph once per worker, together with an optional heartbeat
queue the caller owns.  ``pool.submit(fn, *args)`` then ships only
``fn`` and its arguments and runs ``fn(worker, *args)`` in a worker,
where ``worker`` is that process's :class:`PoolWorker`.  Under the
``fork`` start method (the Linux default) workers inherit the parent's
graph copy-on-write, so no graph byte crosses the process boundary;
under ``spawn``/``forkserver`` each worker unpickles the graph once at
start through the trusted ``Graph.__reduce__``.  The solve service's
pool holds no graph (``graph=None``): one server's jobs span many
graphs, so each slice ships its job's graph as an argument.
:meth:`GraphPool.rebuild` replaces a broken executor over the same
graph, and :meth:`GraphPool.close` stops its workers.

Workers start with the pool, from the thread that creates it, and
nothing waits for them.  Each worker ignores SIGINT, because its parent
stops it and a terminal's Ctrl-C reaches the whole process group, and
on Linux it dies with the thread that started it (``PR_SET_PDEATHSIG``),
so a parent killed with SIGKILL leaves no worker behind.  A pool must
therefore be created on a thread that outlives it.

:class:`InlinePool` offers the same ``submit``/``wait``/``close`` in the
caller's process, one call at a time (``capacity`` 1): each
:meth:`InlinePool.wait` runs the oldest submitted call to completion on
a private copy of its arguments, as pickling them to a worker would.
The portfolio runner drives both through one scheduling loop; island
rounds and the solve service's slices use :class:`GraphPool`.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import copy
import ctypes
import math
import multiprocessing
import os
import signal
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.graph.graph import Graph

__all__ = ["GraphPool", "InlinePool", "PoolWorker"]


@dataclass(frozen=True)
class PoolWorker:
    """What a submitted function sees of the process running it."""

    graph: Graph | None   # None in the service's pool
    beats: Any = None     # the caller's heartbeat queue, if it passed one
    in_pool: bool = True  # False inline: nothing can kill or reap the task


#: This process's worker, set by the pool initializer.
_WORKER: PoolWorker | None = None

PR_SET_PDEATHSIG = 1   # from <linux/prctl.h>


def _attach(graph: Graph | None, beats: Any, parent: int | None) -> None:
    global _WORKER
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if parent is not None and os.getppid() != parent:
        os._exit(1)  # the parent died before the rule took hold
    _WORKER = PoolWorker(graph, beats)


def _call(fn: Callable, args: tuple) -> Any:
    assert _WORKER is not None, "pool worker used before initialisation"
    return fn(_WORKER, *args)


class GraphPool:
    """``workers`` processes that each hold ``graph``."""

    #: Calls worth submitting at once (the executor queues the rest).
    capacity = math.inf

    def __init__(
        self, graph: Graph | None, workers: int, beats: Any = None
    ) -> None:
        self.workers = workers
        self._graph = graph
        self._beats = beats
        self._executor = self._start()

    def _start(self) -> concurrent.futures.ProcessPoolExecutor:
        # The platform's default start method (fork on Linux) is kept on
        # purpose: workers start without re-importing numpy and the
        # solvers, inherit the graph copy-on-write, and inherit
        # in-process instrumentation such as perfbench's tracer wrappers.
        # A forkserver worker's OS parent is the fork server, not us.
        parent = None if multiprocessing.get_start_method() == "forkserver" \
            else os.getpid()
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_attach,
            initargs=(self._graph, self._beats, parent),
        )
        # Under fork the executor starts every worker at its first submit:
        # make that now, with a no-op nobody waits for.
        executor.submit(int)
        return executor

    def submit(self, fn: Callable, *args) -> concurrent.futures.Future:
        """Run ``fn(worker, *args)`` on a worker process."""
        return self._executor.submit(_call, fn, args)

    @staticmethod
    def wait(futures, timeout: float | None = None) -> set:
        """Wait for the first of ``futures`` (or ``timeout``); return the
        done ones."""
        done, _ = concurrent.futures.wait(
            futures, timeout=timeout,
            return_when=concurrent.futures.FIRST_COMPLETED,
        )
        return done

    def rebuild(self) -> None:
        """Replace a broken executor; new workers get the same graph."""
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = self._start()

    def close(self) -> None:
        """Stop the workers (idempotent)."""
        self._executor.shutdown(wait=True, cancel_futures=True)


class InlinePool:
    """The pool interface in the caller's process, one call at a time.

    Nothing here can die or hang out of reach, so there is no
    ``rebuild`` and the worker carries no heartbeat queue.
    """

    capacity = 1

    def __init__(self, graph: Graph) -> None:
        self._worker = PoolWorker(graph, in_pool=False)
        self._queue: deque = deque()

    def submit(self, fn: Callable, *args) -> concurrent.futures.Future:
        """Queue ``fn(worker, *args)`` on a snapshot of ``args``."""
        future: concurrent.futures.Future = concurrent.futures.Future()
        self._queue.append((future, fn, copy.deepcopy(args)))
        return future

    def wait(self, futures, timeout: float | None = None) -> set:
        """Run the oldest queued call, then return the done ``futures``."""
        while self._queue:
            future, fn, args = self._queue.popleft()
            if future.set_running_or_notify_cancel():
                try:
                    future.set_result(fn(self._worker, *args))
                except Exception as exc:  # noqa: BLE001 - as a worker would
                    future.set_exception(exc)
                break
        return {future for future in futures if future.done()}

    def close(self) -> None:
        """Cancel every call that has not run."""
        for future, _, _ in self._queue:
            future.cancel()
        self._queue.clear()
