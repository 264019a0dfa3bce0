"""The shared-memory graph plane: ``GraphStore`` + ``GraphHandle``.

The portfolio engine fans one graph out to many worker processes.  Before
this module existed the CSR arrays travelled by pickle — O(edges) bytes
serialised per pool build, again after every self-heal rebuild.  A
:class:`GraphStore` instead places the four CSR arrays
(``indptr``/``indices``/``weights``/``vertex_weights``) into one POSIX
shared-memory segment; what crosses the process boundary is a
:class:`GraphHandle` — segment name, shapes, dtypes and a content hash —
which pickles in O(1) regardless of graph size.  Workers attach the
segment once and build a read-only :class:`~repro.graph.Graph` view over
it (``Graph.from_handle``), so N workers share one physical copy of the
graph.

Lifecycle rules (the part that is easy to get wrong):

* **The creator owns the segment.**  ``GraphStore.create`` registers an
  ``atexit`` finaliser and supports ``with GraphStore.create(g) as store``;
  either path closes *and unlinks* the segment exactly once.  The worker
  pool (:class:`repro.graph.pool.GraphPool`) destroys its store after
  stopping its workers, so deadline cancellations and crashes unlink too.
* **Nobody tells the resource tracker.**  ``SharedMemory`` registers
  every segment it creates or attaches with ``multiprocessing``'s
  ``resource_tracker``, an extra process that unlinks (with a leak
  warning) whatever a process still has registered when it exits — a
  short-lived attacher would "clean up" a segment others still use, and
  forked workers sharing one tracker crashed it with a ``KeyError``.
  Creator and attachers therefore open, map and unlink segments with the
  same POSIX primitives ``SharedMemory`` uses (see ``_Segment``), and no
  tracker process is ever started; the lifecycle above replaces its
  backstop.  Tests gate on ``PYTHONWARNINGS=error::UserWarning`` to keep
  it that way.
* **Dead creators are swept.**  A creator killed with SIGKILL runs
  neither its ``finally`` nor its ``atexit`` unlink.  Segment names carry
  the creator's pid (``repro-graph-<pid>-<hex>``), so every
  ``GraphStore.create`` first unlinks the segments whose pid no longer
  exists.  Pids are looked up in the caller's pid namespace, so
  processes sharing one ``/dev/shm`` must share it too.
* **Attachments are cached per process.**  Pool workers (and self-heal
  replacement workers) attach a given segment once; repeated
  ``Graph.from_handle`` calls with the same handle return the same
  arrays.  Cached attachments are held for the life of the process —
  a mapped view costs address space, not copies.
"""

from __future__ import annotations

import atexit
import mmap
import os
import pickle
import secrets
from dataclasses import dataclass

import _posixshmem
import numpy as np

from repro.common.exceptions import GraphError
from repro.graph.fingerprint import arrays_fingerprint as _content_hash

__all__ = ["GraphHandle", "GraphStore"]

#: Segment-name prefix; tests scan for strays under this.
SEGMENT_PREFIX = "repro-graph-"

#: CSR array fields in their fixed segment-layout order.
_FIELDS = ("indptr", "indices", "weights", "vertex_weights")

#: Where the POSIX shared-memory segments of this host are listed.
_SHM_DIR = "/dev/shm"


def _pid_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by another user
        pass
    return True


def _sweep_dead_segments() -> None:
    """Unlink the segments whose creating process no longer exists."""
    try:
        names = os.listdir(_SHM_DIR)
    except FileNotFoundError:  # no /dev/shm on this platform
        return
    for name in names:
        if not name.startswith(SEGMENT_PREFIX):
            continue
        pid = name[len(SEGMENT_PREFIX):].partition("-")[0]
        if not pid.isdigit() or _pid_exists(int(pid)):
            continue
        try:
            _posixshmem.shm_unlink("/" + name)
        except FileNotFoundError:  # another creator swept it first
            pass


@dataclass(frozen=True)
class GraphHandle:
    """O(1)-pickling reference to a graph living in shared memory.

    Attributes
    ----------
    segment:
        Name of the shared-memory segment holding the four CSR arrays,
        concatenated in ``indptr, indices, weights, vertex_weights``
        order (all 8-byte dtypes, so every offset stays aligned).
    shapes, dtypes:
        Per-array shape/dtype needed to rebuild the views.
    content_hash:
        blake2b of the array contents; identifies the graph across
        processes and guards the per-process attachment cache against
        segment-name reuse.
    """

    segment: str
    shapes: tuple[tuple[int, ...], ...]
    dtypes: tuple[str, ...]
    content_hash: str

    @property
    def num_vertices(self) -> int:
        return self.shapes[0][0] - 1

    @property
    def num_edges(self) -> int:
        return self.shapes[1][0] // 2

    def array_nbytes(self) -> tuple[int, ...]:
        """Byte size of each stored array (segment layout order)."""
        return tuple(
            int(np.prod(shape, dtype=np.int64)) * np.dtype(dt).itemsize
            for shape, dt in zip(self.shapes, self.dtypes)
        )

    def total_nbytes(self) -> int:
        """Bytes of graph data the segment holds (shared, not shipped)."""
        return sum(self.array_nbytes())

    def payload_bytes(self) -> int:
        """Serialised size of the handle itself — what a task actually
        ships across the process boundary (O(1) in the graph size)."""
        return len(pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))


#: Per-process attachment cache: segment name -> GraphStore (non-owner).
_ATTACHMENTS: dict[str, "GraphStore"] = {}


class _Segment:
    """A POSIX shared-memory segment mapped without the resource tracker.

    Opens (``size=None``) or creates a segment with the same
    ``shm_open``/``mmap`` primitives ``SharedMemory`` uses, but sends the
    tracker nothing (see the module docstring).  Exposes the ``buf``/
    ``close``/``unlink`` subset of ``SharedMemory`` that ``GraphStore``
    uses.
    """

    def __init__(self, name: str, size: int | None = None) -> None:
        self.name = name
        flags = os.O_RDWR
        if size is not None:
            flags |= os.O_CREAT | os.O_EXCL
        fd = _posixshmem.shm_open("/" + name, flags, mode=0o600)
        try:
            if size is not None:
                os.ftruncate(fd, size)
            self._mmap = mmap.mmap(fd, size or os.fstat(fd).st_size)
        except OSError:
            if size is not None:
                self.unlink()
            raise
        finally:
            os.close(fd)
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        # Raises BufferError while views still export the buffer, exactly
        # like SharedMemory.close; GraphStore.close relies on that.
        self.buf.release()
        self._mmap.close()

    def unlink(self) -> None:
        _posixshmem.shm_unlink("/" + self.name)


class GraphStore:
    """Owner/attachment wrapper around one shared-memory graph segment.

    Use :meth:`create` in the process that owns the graph (context
    manager or explicit :meth:`destroy`), :meth:`attach` — usually via
    ``Graph.from_handle`` — everywhere else.
    """

    def __init__(
        self,
        shm: _Segment,
        handle: GraphHandle,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.handle = handle
        self.owner = owner
        self._closed = False
        self._atexit = None

    # -- construction ------------------------------------------------------
    @classmethod
    def create(cls, graph) -> "GraphStore":
        """Copy ``graph``'s CSR arrays into a fresh shared segment.

        The calling process owns the segment: destroy it with the
        context manager or :meth:`destroy`; an ``atexit`` finaliser
        backstops abnormal exits.  Segments left by creators that died
        without either are unlinked first.
        """
        _sweep_dead_segments()
        arrays = tuple(getattr(graph, f) for f in _FIELDS)
        name = f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
        total = sum(arr.nbytes for arr in arrays)
        shm = _Segment(name, size=max(1, total))
        offset = 0
        for arr in arrays:
            if arr.nbytes:
                dst = np.ndarray(
                    arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=offset
                )
                dst[...] = arr
            offset += arr.nbytes
        handle = GraphHandle(
            segment=shm.name,
            shapes=tuple(arr.shape for arr in arrays),
            dtypes=tuple(arr.dtype.str for arr in arrays),
            content_hash=_content_hash(arrays),
        )
        store = cls(shm, handle, owner=True)
        store._atexit = store.destroy
        atexit.register(store._atexit)
        return store

    @classmethod
    def attach(cls, handle: GraphHandle) -> "GraphStore":
        """Attach to an existing segment (cached per process).

        The attachment is *not* an owner: it never unlinks the segment
        and stays mapped for the life of the process.
        """
        cached = _ATTACHMENTS.get(handle.segment)
        if cached is not None and (
            cached.handle.content_hash == handle.content_hash
        ):
            return cached
        try:
            shm = _Segment(handle.segment)
        except FileNotFoundError as exc:
            raise GraphError(
                f"shared graph segment {handle.segment!r} does not exist "
                "(was its owning GraphStore destroyed?)"
            ) from exc
        store = cls(shm, handle, owner=False)
        _ATTACHMENTS[handle.segment] = store
        return store

    # -- array access ------------------------------------------------------
    def arrays(self) -> tuple[np.ndarray, ...]:
        """Read-only NumPy views over the segment, in ``_FIELDS`` order."""
        if self._closed:
            raise GraphError("GraphStore is closed")
        views = []
        offset = 0
        for shape, dt, nbytes in zip(
            self.handle.shapes, self.handle.dtypes, self.handle.array_nbytes()
        ):
            view = np.ndarray(
                shape, dtype=np.dtype(dt), buffer=self._shm.buf, offset=offset
            )
            view.flags.writeable = False
            views.append(view)
            offset += nbytes
        return tuple(views)

    def graph(self):
        """A :class:`~repro.graph.Graph` of read-only views (no copy)."""
        from repro.graph.graph import Graph

        indptr, indices, weights, vertex_weights = self.arrays()
        return Graph(indptr, indices, weights, vertex_weights, validate=False)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Unmap this process's view (idempotent; owners should prefer
        :meth:`destroy`, which also unlinks)."""
        if not self._closed:
            try:
                self._shm.close()
            except BufferError:
                # Live views (e.g. a Graph built by ``graph()``) still
                # export the buffer; leave the mapping in place — the
                # unlink is what reclaims the segment system-wide.
                return
            self._closed = True

    def unlink(self) -> None:
        """Remove the segment from the system (owner only; idempotent)."""
        if self.owner:
            self.owner = False
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
            if self._atexit is not None:
                atexit.unregister(self._atexit)
                self._atexit = None

    def destroy(self) -> None:
        """Close and (for owners) unlink — the one-call teardown."""
        self.unlink()
        self.close()

    def __enter__(self) -> "GraphStore":
        return self

    def __exit__(self, *exc) -> None:
        self.destroy()
