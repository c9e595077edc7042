"""Tests for the resilient streaming client (``repro.client``).

The acceptance property mirrors the serve tier's: a client that suffers
connection refusals, mid-line resets, read stalls, admission pushback or
a full server drain/restart still completes its push with a response
byte-identical to an undisturbed one.  Every injected client fault is
checked with ``FaultPlan.unfired()``; retry semantics (Overloaded's
``retry after <n>s`` hint, Draining-as-retryable, hard errors as
immediate failures, budget exhaustion as a typed exception) are pinned
against scripted plain-socket servers so no timing games are involved.
"""

import asyncio
import os
import socket
import threading
import time

import pytest

from repro import (
    EngineConfig,
    RaceClient,
    RaceServer,
    ServeSettings,
    run_engine,
    push_trace,
)
from repro.client import PushError, PushOutcome, RetriesExhausted, _line_provider
from repro.engine import Fault, FaultPlan
from repro.trace.writers import dump_trace, write_std

from conftest import random_trace


def _trace(seed=5, n_events=300):
    return random_trace(seed, n_events=n_events, n_threads=4, n_locks=2,
                        n_vars=6)


def _trace_lines(trace):
    return write_std(trace).strip("\n").split("\n")


def _expected_reply(trace, detectors=("wcp", "hb")):
    """The exact wire lines a clean push of ``trace`` must produce."""
    result = run_engine(trace, list(detectors))
    lines = [
        "%s %d %d" % (key, report.count(), report.raw_race_count)
        for key, report in result.items()
    ]
    lines.append("done %d" % result.events)
    return lines


# --------------------------------------------------------------------- #
# Server harnesses
# --------------------------------------------------------------------- #


class _ServerThread:
    """A real RaceServer on a daemon thread with its own event loop."""

    def __init__(self, detectors=("wcp", "hb"), settings=None, config=None):
        self._detectors = list(detectors)
        self._settings = settings if settings is not None else ServeSettings(port=0)
        self._config = config
        self._ready = threading.Event()
        self._stop = None
        self.server = None
        self.loop = None
        self.error = None
        self.thread = threading.Thread(target=self._main, daemon=True)
        self.thread.start()
        assert self._ready.wait(5.0), "server thread did not start"
        if self.error is not None:
            raise self.error

    def _main(self):
        try:
            asyncio.run(self._serve())
        except BaseException as error:  # surfaced to the test thread
            self.error = error
            self._ready.set()

    async def _serve(self):
        self.loop = asyncio.get_event_loop()
        self._stop = asyncio.Event()
        self.server = RaceServer(
            self._detectors, config=self._config, settings=self._settings
        )
        await self.server.start()
        self._ready.set()
        await self._stop.wait()
        await self.server.close()

    @property
    def port(self):
        return self.server.listener.sockets[0].getsockname()[1]

    def drain(self):
        self.loop.call_soon_threadsafe(self.server.request_drain)

    def stop(self):
        if self.loop is not None and self.loop.is_running():
            self.loop.call_soon_threadsafe(self._stop.set)
        self.thread.join(10.0)


class _ScriptedServer:
    """A plain-socket server that runs one script per accepted connection.

    Each script is a callable receiving the connected socket; scripted
    replies make the retry-dispatch tests exact (no server-side timing).
    """

    def __init__(self, scripts):
        self.sock = socket.socket()
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.connections = 0
        self.thread = threading.Thread(
            target=self._main, args=(list(scripts),), daemon=True
        )
        self.thread.start()

    def _main(self, scripts):
        for script in scripts:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                break
            self.connections += 1
            try:
                script(conn)
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
        self.sock.close()


def _consume(conn):
    conn.settimeout(5.0)
    received = b""
    while True:
        chunk = conn.recv(65536)
        if not chunk:
            return received
        received += chunk


def _consume_then_reply(reply, received_into=None):
    def script(conn):
        data = _consume(conn)
        if received_into is not None:
            received_into.append(data)
        conn.sendall(reply.encode("utf-8"))

    return script


# --------------------------------------------------------------------- #
# Unit layer
# --------------------------------------------------------------------- #


class TestPushOutcome:
    def test_parses_race_and_done_lines(self):
        outcome = PushOutcome(["wcp 3 17", "hb 0 0", "done 450"])
        assert outcome.races == {"wcp": (3, 17), "hb": (0, 0)}
        assert outcome.events == 450
        assert outcome.has_race()

    def test_no_race(self):
        outcome = PushOutcome(["wcp 0 0", "done 9"])
        assert not outcome.has_race()


class TestLineProvider:
    def test_iterable_is_replayable_across_attempts(self):
        provider = _line_provider(iter(["a", "b"]))
        assert list(provider()) == ["a", "b"]
        assert list(provider()) == ["a", "b"]

    def test_path_is_reopened_per_attempt(self, tmp_path):
        path = tmp_path / "t.std"
        path.write_text("x\ny\n")
        provider = _line_provider(str(path))
        assert [line.strip() for line in provider()] == ["x", "y"]
        assert [line.strip() for line in provider()] == ["x", "y"]


class TestUnreadableLocalTrace:
    """A missing or unreadable local trace is the user's mistake, not a
    network flap: it fails at once, before any connection is made."""

    @pytest.fixture
    def listener(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)
        sock.setblocking(False)
        yield sock
        sock.close()

    @staticmethod
    def _assert_never_connected(listener):
        with pytest.raises(BlockingIOError):
            listener.accept()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_client_push_fails_before_connecting(self, tmp_path, listener,
                                                  kind):
        path = tmp_path / "missing.std" if kind == "missing" else tmp_path
        client = RaceClient(port=listener.getsockname()[1], retries=5,
                            sleep=lambda s: pytest.fail("retried"))
        with pytest.raises(PushError, match="cannot read trace file") as exc:
            client.push(str(path))
        assert not isinstance(exc.value, RetriesExhausted)
        assert client.stats["connects"] == 0
        self._assert_never_connected(listener)

    def test_cli_push_missing_file_is_one_error_line(self, tmp_path, listener,
                                                     capsys):
        from repro.cli import main

        missing = tmp_path / "missing.std"
        began = time.monotonic()
        code = main(["push", str(missing),
                     "--port", str(listener.getsockname()[1])])
        elapsed = time.monotonic() - began
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: cannot read trace file %s: No such file or directory"
            % missing
        ]
        assert elapsed < 1.0
        self._assert_never_connected(listener)


# --------------------------------------------------------------------- #
# Retry semantics against scripted servers
# --------------------------------------------------------------------- #


class TestRetrySemantics:
    def test_overloaded_retry_after_hint_is_honored(self):
        server = _ScriptedServer([
            _consume_then_reply(
                "error Overloaded: too many streams; retry after 3s\n"
            ),
            _consume_then_reply("wcp 1 2\ndone 4\n"),
        ])
        delays = []
        client = RaceClient(
            port=server.port, retries=3, backoff_s=0.01, jitter_s=0.0,
            sleep=delays.append,
        )
        outcome = client.push(["t1 w(x)", "t2 w(x)"])
        assert outcome.lines == ["wcp 1 2", "done 4"]
        assert delays == [3.0]  # the server's hint, not the backoff
        assert client.stats["overloaded_retries"] == 1
        assert client.stats["connects"] == 2

    def test_overloaded_without_hint_falls_back_to_backoff(self):
        server = _ScriptedServer([
            _consume_then_reply("error Overloaded: busy\n"),
            _consume_then_reply("wcp 0 0\ndone 1\n"),
        ])
        delays = []
        client = RaceClient(
            port=server.port, retries=3, backoff_s=0.25, jitter_s=0.0,
            sleep=delays.append,
        )
        client.push(["t1 w(x)"])
        assert delays == [0.25]

    def test_draining_reply_is_retried_against_fresh_instance(self):
        server = _ScriptedServer([
            _consume_then_reply(
                "error Draining: server is shutting down; retry against "
                "a fresh instance\n"
            ),
            _consume_then_reply("hb 0 0\ndone 1\n"),
        ])
        delays = []
        client = RaceClient(
            port=server.port, retries=3, backoff_s=0.02, jitter_s=0.0,
            sleep=delays.append,
        )
        outcome = client.push(["t1 w(x)"])
        assert outcome.lines == ["hb 0 0", "done 1"]
        assert client.stats["drain_retries"] == 1
        assert delays == [0.02]

    def test_hard_error_is_immediate_and_not_retried(self):
        server = _ScriptedServer([
            _consume_then_reply("error TraceError: unbalanced release\n"),
        ])
        delays = []
        client = RaceClient(
            port=server.port, retries=5, sleep=delays.append,
        )
        with pytest.raises(PushError, match="unbalanced release"):
            client.push(["t1 rel(l)"])
        assert delays == []  # deterministic rejection: no retry, no sleep
        assert client.stats["connects"] == 1

    def test_retry_budget_exhaustion_is_typed_and_actionable(self):
        # A port nothing listens on: every connect is refused.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        client = RaceClient(
            port=dead_port, retries=2, backoff_s=0.001, jitter_s=0.0,
            connect_timeout_s=0.5, sleep=lambda _: None,
        )
        with pytest.raises(RetriesExhausted) as excinfo:
            client.push(["t1 w(x)"])
        assert "3 attempt(s)" in str(excinfo.value)
        assert ("127.0.0.1:%d" % dead_port) in str(excinfo.value)
        assert isinstance(excinfo.value.last_error, OSError)
        assert client.stats["connects"] == 3

    def test_resume_offset_skips_exactly_that_many_events(self):
        received = []
        server = _ScriptedServer([_handshake_then_record(2, received)])
        client = RaceClient(
            port=server.port, stream_id="acme.run1", retries=0,
        )
        lines = ["# comment", "t1 w(x0)", "t1 w(x1)", "t1 w(x2)", "t1 w(x3)"]
        outcome = client.push(lines)
        assert outcome.events == 4
        # Events 0 and 1 (and the leading comment) were skipped; the
        # replay starts exactly at event offset 2.
        body = received[0].decode("utf-8").strip("\n").split("\n")
        assert body == ["t1 w(x2)", "t1 w(x3)"]
        assert client.stats["events_skipped"] == 2
        assert client.stats["events_sent"] == 2


def _handshake_then_record(offset, received_into):
    """Scripted recovery handshake: reply ``resume <offset>``, record."""

    def script(conn):
        conn.settimeout(5.0)
        buffered = b""
        while b"\n" not in buffered:
            buffered += conn.recv(65536)
        first, rest = buffered.split(b"\n", 1)
        assert first.startswith(b"# stream-id:")
        conn.sendall(("resume %d\n" % offset).encode("utf-8"))
        received_into.append(rest + _consume(conn))
        events = sum(
            1 for line in received_into[-1].decode("utf-8").splitlines()
            if line.strip() and not line.strip().startswith("#")
        )
        conn.sendall(("done %d\n" % (offset + events)).encode("utf-8"))

    return script


# --------------------------------------------------------------------- #
# Injected faults against a real server
# --------------------------------------------------------------------- #


class TestInjectedFaults:
    def test_push_trace_happy_path_matches_run_engine(self):
        trace = _trace(3, n_events=120)
        harness = _ServerThread()
        try:
            outcome = push_trace(trace, port=harness.port)
        finally:
            harness.stop()
        assert outcome.lines == _expected_reply(trace)
        assert outcome.events == len(trace)

    def test_push_from_std_file(self, tmp_path):
        trace = _trace(9, n_events=80)
        path = tmp_path / "trace.std"
        dump_trace(trace, path)
        harness = _ServerThread()
        try:
            client = RaceClient(port=harness.port)
            outcome = client.push(str(path))
        finally:
            harness.stop()
        assert outcome.lines == _expected_reply(trace)

    def test_refused_connect_is_retried_to_parity(self):
        trace = _trace(13, n_events=100)
        plan = FaultPlan([Fault.refuse_connect(0)])
        harness = _ServerThread()
        try:
            client = RaceClient(
                port=harness.port, retries=4, backoff_s=0.01, jitter_s=0.0,
                fault_plan=plan,
            )
            outcome = client.push(_trace_lines(trace))
        finally:
            harness.stop()
        assert outcome.lines == _expected_reply(trace)
        assert plan.unfired() == []
        assert client.stats["refused_connects"] == 1
        assert client.stats["reconnects"] == 1

    def test_read_stall_is_retried_to_parity(self):
        trace = _trace(17, n_events=100)
        plan = FaultPlan([Fault.stall_connection(0)])
        harness = _ServerThread()
        try:
            client = RaceClient(
                port=harness.port, retries=4, backoff_s=0.01, jitter_s=0.0,
                fault_plan=plan,
            )
            outcome = client.push(_trace_lines(trace))
        finally:
            harness.stop()
        assert outcome.lines == _expected_reply(trace)
        assert plan.unfired() == []
        assert client.stats["stalled_reads"] == 1

    def test_midstream_reset_resumes_from_server_offset(self, tmp_path):
        """The flagship recovery path: a hard RST mid-line, a reconnect,
        a ``resume <offset>`` handshake, and a byte-identical reply."""
        trace = _trace(21, n_events=300)
        config = EngineConfig()
        config.checkpoint_every = 10
        plan = FaultPlan([Fault.reset_connection(150)])
        harness = _ServerThread(
            settings=ServeSettings(port=0, checkpoint_dir=str(tmp_path)),
            config=config,
        )
        try:
            client = RaceClient(
                port=harness.port, stream_id="acme.reset-run",
                retries=8, backoff_s=0.05, jitter_s=0.0, fault_plan=plan,
            )
            outcome = client.push(_trace_lines(trace))
        finally:
            harness.stop()
        assert outcome.lines == _expected_reply(trace)
        assert plan.unfired() == []
        assert client.stats["injected_resets"] == 1
        assert client.stats["reconnects"] >= 1

    def test_all_client_fault_kinds_in_one_push(self, tmp_path):
        trace = _trace(23, n_events=300)
        config = EngineConfig()
        config.checkpoint_every = 10
        plan = FaultPlan([
            Fault.refuse_connect(0),
            Fault.reset_connection(120),
            Fault.stall_connection(0),
        ])
        harness = _ServerThread(
            settings=ServeSettings(port=0, checkpoint_dir=str(tmp_path)),
            config=config,
        )
        try:
            client = RaceClient(
                port=harness.port, stream_id="acme.chaos-run",
                retries=10, backoff_s=0.05, jitter_s=0.0, fault_plan=plan,
            )
            outcome = client.push(_trace_lines(trace))
        finally:
            harness.stop()
        assert outcome.lines == _expected_reply(trace)
        assert plan.unfired() == []


# --------------------------------------------------------------------- #
# Handshake semantics
# --------------------------------------------------------------------- #


class TestRecoveryHandshake:
    def test_stream_id_without_checkpoint_dir_fails_fast(self):
        harness = _ServerThread()  # no checkpoint_dir: no resume reply
        try:
            client = RaceClient(
                port=harness.port, stream_id="acme.run",
                handshake_timeout_s=0.3, retries=5, sleep=lambda _: None,
            )
            with pytest.raises(PushError, match="--checkpoint-dir"):
                client.push(["t1 w(x)"])
        finally:
            harness.stop()
        assert client.stats["connects"] == 1  # hard error: no retries

    def test_fresh_stream_resumes_from_zero(self, tmp_path):
        trace = _trace(27, n_events=80)
        harness = _ServerThread(
            settings=ServeSettings(port=0, checkpoint_dir=str(tmp_path)),
        )
        try:
            client = RaceClient(port=harness.port, stream_id="acme.fresh")
            outcome = client.push(_trace_lines(trace))
        finally:
            harness.stop()
        assert outcome.lines == _expected_reply(trace)
        assert client.stats["events_skipped"] == 0


# --------------------------------------------------------------------- #
# Full drain/restart across two server processes
# --------------------------------------------------------------------- #


class TestDrainRestart:
    def test_push_survives_server_drain_and_restart(self, tmp_path):
        """Server A drains mid-push; server B starts on the same unix
        socket and checkpoint directory; the client's final response is
        byte-identical to an undisturbed push."""
        trace = _trace(31, n_events=300)
        lines = _trace_lines(trace)
        sock_path = str(tmp_path / "serve.sock")
        checkpoint_dir = str(tmp_path / "ckpts")
        config = EngineConfig()
        config.checkpoint_every = 5

        server_a = _ServerThread(settings=ServeSettings(
            socket_path=sock_path, checkpoint_dir=checkpoint_dir,
        ), config=config)
        state = {"fired": False, "replacement": None}

        def provider():
            def generate():
                for index, line in enumerate(lines):
                    if index == 60 and not state["fired"]:
                        state["fired"] = True
                        server_a.drain()
                        time.sleep(0.5)  # let the drain checkpoint land
                        try:
                            os.unlink(sock_path)
                        except OSError:
                            pass
                        state["replacement"] = _ServerThread(
                            settings=ServeSettings(
                                socket_path=sock_path,
                                checkpoint_dir=checkpoint_dir,
                            ),
                            config=config,
                        )
                    yield line
            return generate()

        client = RaceClient(
            socket_path=sock_path, stream_id="acme.drained-run",
            retries=10, backoff_s=0.05, jitter_s=0.0,
        )
        try:
            outcome = client.push(provider)
        finally:
            if state["replacement"] is not None:
                state["replacement"].stop()
            server_a.stop()
        assert state["fired"]
        assert outcome.lines == _expected_reply(trace)
        assert client.stats["reconnects"] >= 1
        assert (
            client.stats["drain_retries"] + client.stats["reconnects"] >= 1
        )
