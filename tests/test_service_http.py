"""The service HTTP plane, exercised against a real subprocess server:
discovery via server.json, SSE streaming, cache hits over the wire, and
the headline durability property — SIGKILL mid-solve, restart, and the
final partition is bit-identical to an uninterrupted run."""

import asyncio
import json
import logging
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceHTTPError,
    SolveService,
)
from repro.service import http as service_http

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def ring_payload(n=12, **overrides):
    payload = {
        "graph": {"n": n, "edges": [[i, (i + 1) % n, 1.0] for i in range(n)]},
        "k": 3,
        "seed": 7,
        "max_iterations": 6,
    }
    payload.update(overrides)
    return payload


def spawn_server(data_dir, *extra):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--data-dir", str(data_dir),
         "--port", "0", *extra],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def server_children(proc):
    """Pids of the server's child processes (its slice workers)."""
    return [
        int(pid)
        for task in Path(f"/proc/{proc.pid}/task").iterdir()
        for pid in (task / "children").read_text().split()
    ]


def alive(pid):
    """True while ``pid`` runs; a zombie awaiting its reaper is dead."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.fixture
def server(tmp_path):
    """A live ``repro serve`` subprocess on an ephemeral port."""
    data_dir = tmp_path / "data"
    proc = spawn_server(data_dir, "--slice-iterations", "2", "--slice", "none")
    try:
        client = ServiceClient.discover(data_dir, wait_seconds=20)
        client.healthz()
        yield client, data_dir, proc
    finally:
        proc.terminate()
        proc.wait(timeout=10)


class TestHTTPEndpoints:
    def test_submit_wait_result_roundtrip(self, server):
        client, _, _ = server
        card = client.submit(ring_payload())
        assert card["state"] == "queued"
        final = client.wait(card["id"], timeout=60)
        assert final["state"] == "done"
        envelope = client.result(card["id"])
        assert envelope["result"]["assignment"]
        assert len(envelope["result"]["assignment"]) == 12

    def test_result_conflicts_until_terminal(self, server):
        client, _, _ = server
        card = client.submit(ring_payload(seed=50, max_iterations=100000))
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.result(card["id"])
        assert excinfo.value.code == 409
        client.cancel(card["id"])
        assert client.wait(card["id"], timeout=60)["state"] == "cancelled"

    def test_unknown_job_is_404_and_bad_submit_is_400(self, server):
        client, _, _ = server
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.status("job-does-not-exist")
        assert excinfo.value.code == 404
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.submit({"k": 2})
        assert excinfo.value.code == 400

    def test_submit_with_unknown_solver_option_is_400(self, server):
        client, _, _ = server
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.submit(ring_payload(method="sa", options={"bogus": 1}))
        assert excinfo.value.code == 400
        assert client.stats()["jobs"]["total"] == 0

    def test_submit_the_solver_cannot_run_is_400(self, server):
        client, _, _ = server
        for payload in (
            ring_payload(method="multilevel", islands=2),
            ring_payload(graph={"n": 3, "edges": [[0]]}),
            ring_payload(graph={
                "n": 3, "edges": [[0, 1, float("nan")], [1, 2, 1.0]],
            }),
        ):
            with pytest.raises(ServiceHTTPError) as excinfo:
                client.submit(payload)
            assert excinfo.value.code == 400
        assert client.stats()["jobs"]["total"] == 0

    def test_sse_stream_replays_and_ends_with_card(self, server):
        client, _, _ = server
        card = client.submit(ring_payload(seed=9))
        events = list(client.iter_events(card["id"], timeout=60))
        names = [name for name, _ in events]
        assert names[0] == "start"
        assert "pause" in names or "done" in names
        assert names[-1] == "end"
        end_card = events[-1][1]
        assert end_card["id"] == card["id"]
        assert end_card["state"] == "done"
        # The stream is a replay of the durable log: a second listener
        # attached after completion sees the same history.
        replay = [name for name, _ in
                  client.iter_events(card["id"], timeout=60)]
        assert replay == names

    def test_instance_submit_and_cache_hit_stats(self, server):
        client, _, _ = server
        payload = {"instance": "grid-16", "seed": 2, "max_iterations": 4,
                   "tenant": "ops"}
        card = client.submit(payload)
        assert client.wait(card["id"], timeout=120)["state"] == "done"
        before = client.stats()["cache"]
        repeat = client.submit(dict(payload, tenant="other"))
        assert repeat["state"] == "done"
        assert repeat["cached"] is True
        after = client.stats()["cache"]
        assert after["hits"] == before["hits"] + 1

    def test_jobs_listing(self, server):
        client, _, _ = server
        first = client.submit(ring_payload(seed=31))
        second = client.submit(ring_payload(seed=32))
        listed = {job["id"] for job in client.jobs()}
        assert {first["id"], second["id"]} <= listed


class TestReadTimeout:
    def test_silent_client_is_closed(
        self, tmp_path, monkeypatch, caplog, capfd
    ):
        """A client that connects and sends nothing loses its connection
        at the read timeout; the server keeps answering and stops
        cleanly."""
        monkeypatch.setattr(service_http, "READ_TIMEOUT_SECONDS", 0.2)

        async def scenario():
            server = service_http.ServiceHTTP(SolveService(ServiceConfig(
                tmp_path / "data", slice_seconds=None, slice_iterations=2,
            )))
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                start = time.monotonic()
                assert await asyncio.wait_for(reader.read(), 1.0) == b""
                closed_after = time.monotonic() - start
                writer.close()
                client = ServiceClient(server.host, server.port)
                card = await asyncio.to_thread(client.submit, ring_payload())
                # Still silent at shutdown: its handler is cancelled.
                _, pending = await asyncio.open_connection(
                    server.host, server.port
                )
            finally:
                await server.stop()
            pending.close()
            return closed_after, card

        with caplog.at_level(logging.WARNING):
            closed_after, card = asyncio.run(scenario())
        assert closed_after < 1.0
        assert card["state"] == "queued"
        assert caplog.records == []
        assert "Traceback" not in capfd.readouterr().err


class TestKillRestartDurability:
    def test_sigkill_mid_solve_then_restart_matches_uninterrupted(
        self, tmp_path
    ):
        """The acceptance scenario: kill -9 a server mid-solve; a new
        server on the same data dir finishes every job and the result is
        bit-identical to a never-interrupted run."""
        payloads = [
            ring_payload(n=14, seed=21, max_iterations=20, tenant="a"),
            ring_payload(n=15, seed=22, max_iterations=20, tenant="b"),
        ]

        # Reference: an uninterrupted server.
        ref_dir = tmp_path / "ref"
        proc = spawn_server(
            ref_dir, "--slice-iterations", "2", "--slice", "none"
        )
        try:
            client = ServiceClient.discover(ref_dir, wait_seconds=20)
            cards = [client.submit(p) for p in payloads]
            expected = []
            for card in cards:
                assert client.wait(card["id"], timeout=120)["state"] == "done"
                expected.append(client.result(card["id"])["result"])
        finally:
            proc.terminate()
            proc.wait(timeout=10)

        # Victim: same jobs; SIGKILL while at least one is unfinished.
        live_dir = tmp_path / "live"
        proc = spawn_server(
            live_dir, "--slice-iterations", "1", "--slice", "none",
            "--event-fsync",
        )
        client = ServiceClient.discover(live_dir, wait_seconds=20)
        cards = [client.submit(p) for p in payloads]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            states = [client.status(c["id"])["state"] for c in cards]
            if any(s == "running" for s in states) or \
                    any(c for c, s in zip(cards, states)
                        if s == "queued" and
                        client.status(c["id"])["slices"] > 0):
                break
            if all(s == "done" for s in states):
                pytest.skip("jobs finished before the kill window")
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)

        # Restart on the same data dir; every job must complete.
        proc = spawn_server(
            live_dir, "--slice-iterations", "2", "--slice", "none"
        )
        try:
            # Wait for the *new* server's advertisement (new pid).
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                info = json.loads((live_dir / "server.json").read_text())
                if info["pid"] == proc.pid:
                    break
                time.sleep(0.05)
            client = ServiceClient.discover(live_dir, wait_seconds=20)
            for card, want in zip(cards, expected):
                final = client.wait(card["id"], timeout=120)
                assert final["state"] == "done"
                got = client.result(card["id"])["result"]
                assert got["assignment"] == want["assignment"]
                assert got["objective_value"] == want["objective_value"]
            stats = client.stats()
            assert stats["jobs"]["recovered"] >= 1
        finally:
            proc.terminate()
            proc.wait(timeout=10)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
class TestWorkersDieWithTheServer:
    @pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM],
                             ids=["SIGKILL", "SIGTERM"])
    def test_no_worker_outlives_its_server(self, tmp_path, sig):
        """Killed mid-slice, a server leaves none of its worker
        processes behind to go on appending to the job's events."""
        data_dir = tmp_path / "data"
        proc = spawn_server(data_dir, "--slice", "none")
        try:
            client = ServiceClient.discover(data_dir, wait_seconds=20)
            card = client.submit({"instance": "grid-16", "k": 4, "seed": 5})
            events = data_dir / "events" / f"{card['id']}.jsonl"
            deadline = time.monotonic() + 60
            while not (events.exists() and events.read_text()):
                assert time.monotonic() < deadline, "the slice never started"
                time.sleep(0.01)
            workers = server_children(proc)
        finally:
            proc.send_signal(sig)
            proc.wait(timeout=10)
        assert len(workers) == 2
        time.sleep(2)
        assert [pid for pid in workers if alive(pid)] == []
