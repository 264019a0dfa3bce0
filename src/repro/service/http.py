"""Stdlib-only asyncio HTTP/1.1 front end of the solve service.

No web framework — a hand-rolled request parser over
``asyncio.start_server`` keeps the container dependency-free, and the
endpoint surface is small enough that a router is a chain of ``if``\\ s:

==========================================  ================================
``POST /jobs``                              submit (JSON body → job card)
``GET  /jobs``                              list job cards
``GET  /jobs/{id}``                         status card
``GET  /jobs/{id}/result``                  result (409 until terminal)
``GET  /jobs/{id}/events``                  SSE stream of solve events
``POST /jobs/{id}/cancel``                  cooperative cancel
``GET  /stats``                             scheduler/cache/queue counters
``GET  /healthz``                           liveness probe
==========================================  ================================

The SSE stream replays the job's full event log from the beginning,
then tails it live (the log file *is* the source of truth — which is
what lets a stream opened after a server restart still show the whole
history), and closes with a final ``end`` event carrying the job card
once the job is terminal.  Event delivery is at-least-once across
crashes: a slice killed mid-flight replays from the last checkpoint, so
its events appear again.

Connections are one-request (``Connection: close``) — clients here are
submit tools and test harnesses, not browsers hammering keep-alive.
"""

from __future__ import annotations

import asyncio
import json

from repro.common.exceptions import ReproError
from repro.service.jobs import JOB_FAILED
from repro.service.service import SolveService

__all__ = ["ServiceHTTP"]

#: Safety bounds on untrusted input.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 256 * 1024 * 1024
#: Seconds a client gets to send the request head, and again the body;
#: a connection still short of either is closed without a response.
READ_TIMEOUT_SECONDS = 30.0

#: Poll interval of the SSE file tail (the log is fsync-flushed per
#: event, so latency is bounded by this, not by buffering).
SSE_POLL_SECONDS = 0.05


class _HttpError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not "
    "Allowed", 409: "Conflict", 413: "Payload Too Large", 500: "Internal "
    "Server Error",
}


class ServiceHTTP:
    """Bind a :class:`SolveService` to a TCP listener."""

    def __init__(
        self, service: SolveService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        """Start workers + listener and advertise the bound address."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.service.store.write_server_info(self.host, self.port)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    # -- connection handling -------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as exc:
                await self._respond(
                    writer, exc.code, {"error": str(exc)}
                )
                return
            try:
                await self._route(method, path, body, writer)
            except _HttpError as exc:
                await self._respond(writer, exc.code, {"error": str(exc)})
            except ReproError as exc:
                await self._respond(writer, 400, {"error": str(exc)})
            except Exception as exc:  # noqa: BLE001 - keep the server up
                await self._respond(
                    writer, 500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
        # Cancellation (server shutdown) ends the handler here instead of
        # propagating: on Python 3.11 the stream server's done-callback
        # calls task.exception() on a cancelled handler task, which logs
        # the CancelledError as a traceback.
        except (
            ConnectionResetError, BrokenPipeError, asyncio.CancelledError,
            asyncio.TimeoutError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict | None]:
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), READ_TIMEOUT_SECONDS
            )
        except asyncio.LimitOverrunError as exc:
            raise _HttpError(413, "request head too large") from exc
        except (asyncio.IncompleteReadError, EOFError) as exc:
            raise _HttpError(400, "truncated request") from exc
        if len(head) > MAX_HEADER_BYTES:
            raise _HttpError(413, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, f"malformed request line: {lines[0]!r}")
        method, path = parts[0].upper(), parts[1]
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = None
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError as exc:
                raise _HttpError(400, "bad Content-Length") from exc
            if n > MAX_BODY_BYTES:
                raise _HttpError(413, "request body too large")
            raw = b""
            if n:
                raw = await asyncio.wait_for(
                    reader.readexactly(n), READ_TIMEOUT_SECONDS
                )
            if raw:
                try:
                    body = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise _HttpError(
                        400, f"request body is not valid JSON: {exc}"
                    ) from exc
        return method, path, body

    async def _respond(
        self, writer: asyncio.StreamWriter, code: int, payload: dict
    ) -> None:
        data = (json.dumps(payload, indent=1) + "\n").encode()
        head = (
            f"HTTP/1.1 {code} {_REASONS.get(code, 'Status')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + data)
        await writer.drain()

    # -- routing ---------------------------------------------------------------
    async def _route(
        self, method: str, path: str, body: dict | None,
        writer: asyncio.StreamWriter,
    ) -> None:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        service = self.service
        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200, {"ok": True})
            return
        if path == "/stats" and method == "GET":
            await self._respond(writer, 200, service.stats())
            return
        if path == "/jobs":
            if method == "POST":
                await self._respond(
                    writer, 200, service.submit(body or {})
                )
                return
            if method == "GET":
                await self._respond(writer, 200, {
                    "jobs": [
                        job.as_dict()
                        for job in sorted(
                            service.jobs.values(), key=lambda j: j.seq
                        )
                    ],
                })
                return
            raise _HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/jobs/"):
            segments = path.split("/")[2:]
            job_id = segments[0]
            tail = segments[1] if len(segments) > 1 else None
            if len(segments) > 2:
                raise _HttpError(404, f"no such endpoint: {path}")
            try:
                service.get_job(job_id)
            except KeyError:
                raise _HttpError(404, f"unknown job {job_id!r}") from None
            if tail is None and method == "GET":
                await self._respond(writer, 200, service.status(job_id))
                return
            if tail == "result" and method == "GET":
                await self._result(writer, job_id)
                return
            if tail == "events" and method == "GET":
                await self._stream_events(writer, job_id)
                return
            if tail == "cancel" and method == "POST":
                await self._respond(writer, 200, service.cancel(job_id))
                return
            raise _HttpError(
                405 if tail in (None, "result", "events", "cancel") else 404,
                f"{method} {path} not supported",
            )
        raise _HttpError(404, f"no such endpoint: {path}")

    async def _result(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        job = self.service.get_job(job_id)
        if not job.terminal:
            raise _HttpError(
                409,
                f"job {job_id} is {job.state}; the result exists once the "
                "job is terminal (stream /events or poll the status)",
            )
        payload = {
            "id": job.id,
            "state": job.state,
            "cached": job.cached,
            "iterations": job.iterations,
            "slices": job.slices,
            "attempts": job.attempts,
            "result": job.result,
        }
        if job.state == JOB_FAILED:
            payload["error"] = job.error
            payload["error_kind"] = job.error_kind
        await self._respond(writer, 200, payload)

    # -- SSE -------------------------------------------------------------------
    async def _stream_events(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        """Replay + live-tail a job's event log as Server-Sent Events."""
        service = self.service
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        path = service.events_path(job_id)
        offset = 0
        pending = b""
        while True:
            job = service.get_job(job_id)
            terminal = job.terminal  # read *before* draining the file:
            # events written after this read are caught next iteration,
            # so terminal+drained really means end-of-stream.
            chunk = b""
            try:
                with path.open("rb") as fh:
                    fh.seek(offset)
                    chunk = fh.read()
                    offset = fh.tell()
            except FileNotFoundError:
                pass
            if chunk:
                pending += chunk
                *lines, pending = pending.split(b"\n")
                for line in lines:
                    line = line.strip()
                    if not line:
                        continue
                    name = b"message"
                    try:
                        name = json.loads(line).get(
                            "event", "message"
                        ).encode()
                    except (json.JSONDecodeError, AttributeError):
                        pass
                    writer.write(
                        b"event: " + name + b"\ndata: " + line + b"\n\n"
                    )
                await writer.drain()
            if terminal and not chunk:
                card = json.dumps(job.as_dict()).encode()
                writer.write(b"event: end\ndata: " + card + b"\n\n")
                await writer.drain()
                return
            await asyncio.sleep(SSE_POLL_SECONDS)
