"""Status stream + live monitor: loopback integration tests.

A real coordinator socket, in-process workers, and a monitor attached over
the same port: the ``status`` stream must carry schema-valid fleet
snapshots, the ``--status-json`` sink must capture the same frames, and a
read-only monitor must never count as a worker.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.distrib import DistributedBackend
from repro.distrib.coordinator import SweepCoordinator
from repro.distrib.monitor import MonitorError, attach, frames, main as monitor_main, status_stream_problems
from repro.distrib.protocol import STATUS_SCHEMA
from repro.distrib.worker import run_worker
from repro.obs import WORKER_COUNTER_FIELDS

FINGERPRINT = "test-tree"


def _executor(payload):
    time.sleep(0.02)
    if payload.get("explode"):
        return {
            "payload": payload,
            "elapsed_s": 0.02,
            "error": {"type": "BoomError", "message": "boom", "traceback": ""},
        }
    return {"payload": payload, "elapsed_s": 0.02, "error": None}


def _start_worker(address, name="w0"):
    thread = threading.Thread(
        target=run_worker,
        kwargs=dict(
            connect=address,
            fingerprint=FINGERPRINT,
            worker_name=name,
            executor=_executor,
            heartbeat_interval_s=0.1,
            connect_timeout_s=10.0,
        ),
        daemon=True,
    )
    thread.start()
    return thread


def _items(count, explode=()):
    return [
        (index, {"cache_key": f"k{index}", "explode": index in explode})
        for index in range(count)
    ]


class TestStatusAccessors:
    def test_queue_depth_and_inflight_before_any_worker(self):
        coordinator = SweepCoordinator(fingerprint=FINGERPRINT)
        try:
            coordinator.submit([(str(index), {"cache_key": f"k{index}"}) for index in range(3)])
            assert coordinator.queue_depth == 3
            assert coordinator.inflight_by_worker() == {}
        finally:
            coordinator.close()

    def test_snapshot_schema_and_shape(self):
        coordinator = SweepCoordinator(fingerprint=FINGERPRINT)
        try:
            coordinator.submit([(str(index), {"cache_key": f"k{index}"}) for index in range(2)])
            snapshot = coordinator.status_snapshot()
            assert snapshot["schema"] == STATUS_SCHEMA
            assert snapshot["total"] == 2
            assert snapshot["queue_depth"] == 2
            assert snapshot["inflight"] == 0
            assert snapshot["done"] is False
            assert snapshot["workers"] == {}
            assert snapshot["fault_classes"] == {}
            # JSON-serializable as-is: it doubles as the wire payload.
            json.dumps(snapshot)
        finally:
            coordinator.close()

    def test_snapshot_sequence_numbers_increase(self):
        coordinator = SweepCoordinator(fingerprint=FINGERPRINT)
        try:
            first = coordinator.status_snapshot()["seq"]
            second = coordinator.status_snapshot()["seq"]
            assert second == first + 1
        finally:
            coordinator.close()

    def test_invalid_status_interval_rejected(self):
        with pytest.raises(ValueError):
            SweepCoordinator(fingerprint=FINGERPRINT, status_interval_s=0.0)


class TestStatusJsonSink:
    def test_sink_captures_schema_valid_frames_and_terminal_state(self, tmp_path):
        sink = tmp_path / "status.jsonl"
        backend = DistributedBackend(
            listen=("127.0.0.1", 0),
            fingerprint=FINGERPRINT,
            startup_timeout_s=30,
            status_json=sink,
            status_interval_s=0.1,
        )
        _start_worker(backend.address)
        records = list(backend.execute(_items(6, explode={2})))
        backend.close()
        assert len(records) == 6
        lines = [json.loads(line) for line in sink.read_text().splitlines()]
        assert lines, "status sink stayed empty"
        assert all(line["schema"] == STATUS_SCHEMA for line in lines)
        final = lines[-1]
        assert final["done"] is True
        assert final["completed"] == 6
        assert final["failed"] == 1
        assert final["fault_classes"] == {"BoomError": 1}
        assert final["queue_depth"] == 0
        worker_row = final["workers"]["w0"]
        # Per-worker blocks speak the shared vocabulary, plus inflight.
        assert set(worker_row) == set(WORKER_COUNTER_FIELDS) | {"inflight"}
        assert worker_row["completed"] == 6
        assert worker_row["failed"] == 1

    def test_sequence_numbers_monotonic_in_sink(self, tmp_path):
        sink = tmp_path / "status.jsonl"
        backend = DistributedBackend(
            listen=("127.0.0.1", 0),
            fingerprint=FINGERPRINT,
            startup_timeout_s=30,
            status_json=sink,
            status_interval_s=0.05,
        )
        _start_worker(backend.address)
        list(backend.execute(_items(4)))
        backend.close()
        seqs = [json.loads(line)["seq"] for line in sink.read_text().splitlines()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


class TestMonitorAttach:
    def test_monitor_receives_frames_and_does_not_count_as_worker(self, tmp_path):
        backend = DistributedBackend(
            listen=("127.0.0.1", 0),
            fingerprint=FINGERPRINT,
            startup_timeout_s=30,
            status_interval_s=0.05,
        )
        seen: list[dict] = []

        def watch():
            channel = attach(backend.address, connect_timeout_s=5.0, io_timeout_s=5.0)
            try:
                for frame in frames(channel):
                    seen.append(frame)
            finally:
                channel.close()

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        _start_worker(backend.address)
        records = list(backend.execute(_items(5)))
        backend.close()
        watcher.join(timeout=5.0)
        assert len(records) == 5
        assert seen, "monitor never received a status frame"
        assert all(frame["schema"] == STATUS_SCHEMA for frame in seen)
        assert seen[-1]["done"] is True
        # The monitor session registered as a monitor, not a worker.
        assert backend.stats.monitors_connected == 1
        assert "monitor" not in backend.stats.per_worker

    def test_monitor_alone_does_not_prevent_no_workers_timeout(self, tmp_path):
        """An attached monitor must not read as fleet liveness: with zero
        workers the sweep still falls back to local execution."""
        backend = DistributedBackend(
            listen=("127.0.0.1", 0),
            fingerprint=FINGERPRINT,
            startup_timeout_s=0.5,
            status_interval_s=0.05,
            fallback_processes=1,
        )
        channel = attach(backend.address, connect_timeout_s=5.0, io_timeout_s=5.0)
        try:
            items = [
                (0, {"cache_key": "k0", "experiment": "section1_latency_budget"})
            ]
            # The real fallback executes through the sweep machinery; here we
            # only need the NoWorkersError path to trigger, so patch the
            # local pool out of the way.
            records = {}

            class _FakeLocal:
                def __init__(self, processes=None):
                    pass

                def execute(self, pending):
                    for position, payload in pending:
                        records[position] = payload
                        yield position, {"payload": payload, "elapsed_s": 0.0, "error": None}

                def close(self):
                    pass

            import repro.distrib.backend as backend_module

            original = backend_module.LocalPoolBackend
            backend_module.LocalPoolBackend = _FakeLocal
            try:
                out = list(backend.execute(items))
            finally:
                backend_module.LocalPoolBackend = original
            assert len(out) == 1
            assert backend.stats.fallback_cells == 1
        finally:
            channel.close()
            backend.close()

    def test_monitor_with_wrong_protocol_version_rejected(self):
        coordinator = SweepCoordinator(fingerprint=FINGERPRINT)
        address = coordinator.bind("127.0.0.1", 0)
        try:
            import socket as socket_module

            from repro.distrib.protocol import MessageChannel

            sock = socket_module.create_connection(address, timeout=5.0)
            sock.settimeout(5.0)
            channel = MessageChannel(sock)
            try:
                hello = channel.recv()
                assert hello["type"] == "hello"
                channel.send("hello", role="monitor", protocol=-1)
                reply = channel.recv()
                assert reply["type"] == "reject"
                assert "protocol version" in reply["reason"]
            finally:
                channel.close()
        finally:
            coordinator.close()

    def test_monitor_skips_fingerprint_check(self):
        """Monitors never execute cells, so any checkout may observe."""
        coordinator = SweepCoordinator(fingerprint="coordinator-tree")
        address = coordinator.bind("127.0.0.1", 0)
        try:
            channel = attach(address, connect_timeout_s=5.0, io_timeout_s=5.0)
            # The immediate attach frame proves registration completed.
            first = next(frames(channel))
            channel.close()
            assert first["schema"] == STATUS_SCHEMA
            assert coordinator.stats.monitors_connected == 1
        finally:
            coordinator.close()


class TestMonitorCli:
    def test_json_once_mode(self, tmp_path, capsys):
        backend = DistributedBackend(
            listen=("127.0.0.1", 0),
            fingerprint=FINGERPRINT,
            startup_timeout_s=30,
            status_interval_s=0.05,
        )
        host, port = backend.address
        try:
            exit_code = monitor_main(["--connect", f"{host}:{port}", "--json", "--once"])
            out = capsys.readouterr().out
            frame = json.loads(out.strip().splitlines()[-1])
            assert exit_code == 0
            assert frame["schema"] == STATUS_SCHEMA
        finally:
            backend.close()

    def test_dashboard_once_mode_renders(self, tmp_path, capsys):
        backend = DistributedBackend(
            listen=("127.0.0.1", 0),
            fingerprint=FINGERPRINT,
            startup_timeout_s=30,
            status_interval_s=0.05,
        )
        host, port = backend.address
        try:
            exit_code = monitor_main(["--connect", f"{host}:{port}", "--once"])
            out = capsys.readouterr().out
            assert exit_code == 0
            assert "fleet status" in out
            assert "queue" in out
        finally:
            backend.close()

    def test_connect_failure_exits_nonzero(self, capsys):
        exit_code = monitor_main(["--connect", "127.0.0.1:1", "--connect-timeout", "0.2"])
        assert exit_code == 2
        assert "monitor:" in capsys.readouterr().err

    def test_unknown_schema_frame_raises(self):
        class _FakeChannel:
            def __init__(self):
                self._sent = False

            def recv(self):
                if self._sent:
                    return None
                self._sent = True
                return {"type": "status", "schema": "repro-status-v999"}

        with pytest.raises(MonitorError):
            list(frames(_FakeChannel()))


def _frame(seq, **fields):
    frame = {"schema": STATUS_SCHEMA, "seq": seq, "done": False, "completed": 0, "queue_depth": 1, "workers": {}}
    frame.update(fields)
    return frame


def _good_stream():
    return [
        _frame(0),
        _frame(1, completed=5, queue_depth=3, workers={"w0": {"completed": 5}}),
        _frame(4, done=True, completed=8, queue_depth=0, workers={"w0": {"completed": 8}}),
    ]


def _write(tmp_path, frames):
    path = tmp_path / "status.jsonl"
    path.write_text("".join(json.dumps(frame) + "\n" for frame in frames))
    return path


class TestValidateStatusStream:
    def test_real_sink_passes(self, tmp_path, capsys):
        sink = tmp_path / "status.jsonl"
        backend = DistributedBackend(
            listen=("127.0.0.1", 0),
            fingerprint=FINGERPRINT,
            startup_timeout_s=30,
            status_json=sink,
            status_interval_s=0.05,
        )
        _start_worker(backend.address)
        list(backend.execute(_items(5)))
        backend.close()
        assert monitor_main(["--validate", str(sink), "--expect-completed", "5"]) == 0
        assert "status stream OK" in capsys.readouterr().out
        assert monitor_main(["--validate", str(sink), "--expect-completed", "6"]) == 1

    def test_good_stream_passes_with_and_without_expected_count(self, tmp_path, capsys):
        path = _write(tmp_path, _good_stream())
        assert monitor_main(["--validate", str(path), "--expect-completed", "8"]) == 0
        assert monitor_main(["--validate", str(path)]) == 0
        assert capsys.readouterr().out.count("status stream OK (3 frames, 1 workers)") == 2

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda frames: frames.clear(), "status sink stayed empty"),
            (lambda frames: frames[1].update(schema="repro-status-v0"), "schema repro-status-v0"),
            (lambda frames: frames[1].update(seq=7), "seq is not strictly increasing"),
            (lambda frames: frames[1].update(seq=0), "seq is not strictly increasing"),
            (lambda frames: frames[1].pop("seq"), "seq is not strictly increasing"),
            (lambda frames: frames.pop(), "not a terminal done frame"),
            (lambda frames: frames[-1].update(done="yes"), "not a terminal done frame"),
            (lambda frames: frames[-1].update(completed=7), "resolved 7 cells, expected 8"),
            (lambda frames: frames[-1].update(queue_depth=1), "queue depth 1"),
            (lambda frames: frames[-1].update(workers={}), "lists no workers"),
        ],
        ids=["empty", "schema", "seq-order", "seq-repeat", "seq-missing", "no-done", "done-not-true",
             "completed", "queue", "workers"],
    )
    def test_each_failing_input_exits_one(self, tmp_path, capsys, mutate, message):
        frames = _good_stream()
        mutate(frames)
        assert any(message in problem for problem in status_stream_problems(frames, expect_completed=8))
        assert monitor_main(["--validate", str(_write(tmp_path, frames)), "--expect-completed", "8"]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "status stream OK" not in captured.out

    @pytest.mark.parametrize("content", ["not json\n", "[1, 2]\n"])
    def test_unreadable_lines_exit_one(self, tmp_path, capsys, content):
        path = tmp_path / "status.jsonl"
        path.write_text(content)
        assert monitor_main(["--validate", str(path)]) == 1
        assert "monitor:" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert monitor_main(["--validate", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read status stream" in capsys.readouterr().err

    def test_needs_exactly_one_of_connect_and_validate(self, tmp_path):
        path = _write(tmp_path, _good_stream())
        for argv in ([], ["--connect", "127.0.0.1:1", "--validate", str(path)], ["--connect", "127.0.0.1:1", "--expect-completed", "8"]):
            with pytest.raises(SystemExit) as excinfo:
                monitor_main(argv)
            assert excinfo.value.code == 2
