"""Durable state of the solve service: job records and the result cache.

Everything the server must survive a SIGKILL with lives under one data
directory::

    <data_dir>/
      server.json          # advertised address of the live server
      jobs/<job_id>.json   # full job record incl. last checkpoint
      jobs/<job_id>.cancel # marker: cancel the running job's slice
      events/<job_id>.jsonl# per-job solve-event stream (SSE source)
      cache/<key>.json     # result cache, keyed by (fingerprint, request)

Every JSON write goes through :func:`repro.common.atomic
.atomic_write_json` (write-temp + ``os.replace`` + fsync), so a crash at
any instant leaves each record either at its previous version or its new
one — never torn.  Restart recovery is therefore a directory scan: every
non-terminal job re-enqueues from its last durable checkpoint, and the
session determinism contract makes the replayed slices produce the exact
result an uninterrupted run would have.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.common.atomic import atomic_write_json
from repro.service.jobs import Job

__all__ = ["JobStore", "ResultCache", "CACHE_SCHEMA", "SERVER_INFO_SCHEMA"]

CACHE_SCHEMA = "repro-service-cache/v1"
SERVER_INFO_SCHEMA = "repro-service-server/v1"


class JobStore:
    """Atomic one-file-per-job persistence under ``data_dir``."""

    def __init__(self, data_dir: str | Path) -> None:
        self.data_dir = Path(data_dir)
        self.jobs_dir = self.data_dir / "jobs"
        self.events_dir = self.data_dir / "events"
        self.cache_dir = self.data_dir / "cache"
        for directory in (self.data_dir, self.jobs_dir, self.events_dir,
                          self.cache_dir):
            directory.mkdir(parents=True, exist_ok=True)

    def job_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def events_path(self, job_id: str) -> Path:
        return self.events_dir / f"{job_id}.jsonl"

    def cancel_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.cancel"

    def save(self, job: Job) -> None:
        """Durably persist the full job record (checkpoint included)."""
        atomic_write_json(
            self.job_path(job.id), job.as_dict(include_checkpoint=True)
        )

    def load_all(self) -> list[Job]:
        """Every persisted job, sorted by submission order (``seq``).

        A record that fails to parse is skipped rather than fatal: one
        corrupted file (which atomic writes make near-impossible, but
        operators delete things) must not brick the whole server.
        """
        jobs = []
        for path in sorted(self.jobs_dir.glob("*.json")):
            try:
                jobs.append(Job.from_dict(json.loads(path.read_text())))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                continue
        jobs.sort(key=lambda job: job.seq)
        return jobs

    # -- server advertisement ---------------------------------------------
    def server_info_path(self) -> Path:
        return self.data_dir / "server.json"

    def write_server_info(self, host: str, port: int) -> None:
        """Advertise the bound address (clients/tests discover the port
        here, which is what makes ``--port 0`` usable)."""
        atomic_write_json(
            self.server_info_path(),
            {
                "schema": SERVER_INFO_SCHEMA,
                "host": host,
                "port": port,
                "pid": os.getpid(),
            },
        )


class ResultCache:
    """Durable result cache keyed by ``cache_key(fingerprint, spec)``.

    Entries are one JSON file per key, so the cache survives restarts
    for free and stays inspectable (``ls cache/``).  Hit/miss/store
    counters are per-process — they feed the ``/stats`` endpoint, whose
    contract is "counts since this server started".
    """

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """Cached result payload for ``key`` (counts the hit/miss)."""
        try:
            entry = json.loads(self._path(key).read_text())
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if entry.get("schema") != CACHE_SCHEMA:
            self.misses += 1
            return None
        self.hits += 1
        return entry.get("result")

    def put(
        self, key: str, result: dict, *, fingerprint: str, request: dict
    ) -> None:
        """Durably store a finished result under its key."""
        atomic_write_json(
            self._path(key),
            {
                "schema": CACHE_SCHEMA,
                "key": key,
                "fingerprint": fingerprint,
                "request": request,
                "result": result,
            },
        )
        self.stores += 1

    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob("*.json"))

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "entries": len(self),
        }
