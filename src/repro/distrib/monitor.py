"""Live fleet observatory: watch a running sweep from the outside.

Attach a read-only monitor to any coordinator (one started by
``examples/sweep_scenarios.py --serve`` or an embedded
:class:`~repro.distrib.backend.DistributedBackend`)::

    python -m repro.distrib.monitor --connect HOST:PORT

The coordinator streams one :data:`~repro.distrib.protocol.STATUS_SCHEMA`
snapshot per ``status_interval_s`` — queue depth, per-worker counters and
in-flight cells, fault classes — and the monitor renders them as a live
TTY dashboard (per-worker throughput is derived from successive frames).
``--json`` emits the raw frames as JSONL instead, and ``--once`` exits
after the first frame (smoke tests, supervisors probing a fleet).

``--validate FILE`` checks a finished ``--status-json`` sink instead of
attaching: every line a ``repro-status-v1`` frame, strictly increasing
``seq``, and a terminal ``done`` frame with an empty queue and at least one
worker (and, with ``--expect-completed N``, N resolved cells)::

    python -m repro.distrib.monitor --validate status.jsonl --expect-completed 8

Monitors are second-class on purpose: the handshake checks the protocol
version but **not** the source-tree fingerprint (a monitor never executes
cells, so any checkout may observe any sweep), and an attached monitor
does not count as a live worker — it cannot keep a workerless sweep from
falling back to local execution.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
from pathlib import Path
from typing import Iterator, Optional, Sequence, TextIO

from .config import DEFAULT_TIMEOUTS
from .protocol import (
    PROTOCOL_VERSION,
    STATUS_SCHEMA,
    MessageChannel,
    ProtocolError,
    parse_address,
)


class MonitorError(RuntimeError):
    """The coordinator refused the attach, or spoke an unknown schema."""


def attach(
    address: tuple[str, int],
    connect_timeout_s: float = 10.0,
    io_timeout_s: float = DEFAULT_TIMEOUTS.io_timeout_s,
) -> MessageChannel:
    """Dial the coordinator and complete a read-only monitor handshake."""
    sock = socket.create_connection(address, timeout=connect_timeout_s)
    sock.settimeout(io_timeout_s)
    channel = MessageChannel(sock)
    ok = False
    try:
        hello = channel.recv()
        if hello is None or hello.get("type") != "hello" or hello.get("role") != "coordinator":
            raise MonitorError("peer did not identify as a coordinator")
        channel.send("hello", role="monitor", protocol=PROTOCOL_VERSION)
        reply = channel.recv()
        if reply is None:
            raise MonitorError("coordinator closed during the handshake")
        if reply.get("type") == "reject":
            raise MonitorError(f"coordinator rejected the monitor: {reply.get('reason')}")
        if reply.get("type") != "welcome":
            raise MonitorError(f"unexpected handshake reply {reply.get('type')!r}")
        ok = True
        return channel
    finally:
        if not ok:
            channel.close()


def frames(channel: MessageChannel) -> Iterator[dict]:
    """Yield ``status`` snapshots until the stream ends.

    A receive timeout is not fatal — a coordinator between frames is just
    quiet — and EOF (the coordinator closed after its terminal frame) ends
    the iteration cleanly.  A frame with a schema this monitor does not
    speak raises :class:`MonitorError` instead of being mis-rendered.
    """
    while True:
        try:
            message = channel.recv()
        except (TimeoutError, socket.timeout):
            continue
        except (OSError, ProtocolError):
            return
        if message is None:
            return
        if message.get("type") != "status":
            continue  # unknown messages are ignored (forward compatibility)
        if message.get("schema") != STATUS_SCHEMA:
            raise MonitorError(
                f"unknown status schema {message.get('schema')!r} "
                f"(this monitor speaks {STATUS_SCHEMA})"
            )
        yield message


def render_frame(frame: dict, previous: Optional[dict], out: TextIO) -> None:
    """Write one dashboard view of ``frame`` to ``out``.

    ``previous`` (the prior frame, if any) supplies the baseline for the
    per-worker throughput column; on a TTY the screen is redrawn in place.
    """
    if out.isatty():
        out.write("\x1b[H\x1b[2J")
    lines = [
        f"fleet status  seq {frame.get('seq')}  t={frame.get('elapsed_s', 0.0):7.1f}s"
        + ("  [done]" if frame.get("done") else ""),
        f"  cells    {frame.get('completed', 0)}/{frame.get('total', 0)} resolved"
        f"  ({frame.get('failed', 0)} failed, {frame.get('requeued', 0)} requeued)",
        f"  queue    {frame.get('queue_depth', 0)} pending, {frame.get('inflight', 0)} in flight",
        f"  workers  {frame.get('workers_live', 0)} live",
    ]
    prev_workers = (previous or {}).get("workers", {})
    dt = frame.get("elapsed_s", 0.0) - (previous or {}).get("elapsed_s", 0.0)
    for name, row in sorted(frame.get("workers", {}).items()):
        if previous is not None and dt > 0:
            done_delta = row.get("completed", 0) - prev_workers.get(name, {}).get("completed", 0)
            rate = f"{done_delta / dt:6.2f} cells/s"
        else:
            rate = "      -"
        lines.append(
            f"    {name:<24} inflight {row.get('inflight', 0):>3}"
            f"  completed {row.get('completed', 0):>4}"
            f"  failed {row.get('failed', 0):>3}  {rate}"
        )
    faults = frame.get("fault_classes", {})
    if faults:
        lines.append("  faults   " + ", ".join(f"{k} x{v}" for k, v in sorted(faults.items())))
    out.write("\n".join(lines) + "\n")
    out.flush()


def status_stream_problems(frames: Sequence[dict], expect_completed: Optional[int] = None) -> list[str]:
    """Why a recorded status stream is not a complete, well-formed feed (empty if it is)."""
    if not frames:
        return ["status sink stayed empty"]
    problems = []
    schemas = sorted({str(frame.get("schema")) for frame in frames} - {STATUS_SCHEMA})
    if schemas:
        problems.append(f"frames with schema {', '.join(schemas)}, expected {STATUS_SCHEMA}")
    seqs = [frame.get("seq") for frame in frames]
    if not all(isinstance(seq, int) for seq in seqs) or any(b <= a for a, b in zip(seqs, seqs[1:])):
        problems.append(f"seq is not strictly increasing: {seqs}")
    final = frames[-1]
    if final.get("done") is not True:
        problems.append(f"last frame is not a terminal done frame: {final}")
    if expect_completed is not None and final.get("completed") != expect_completed:
        problems.append(f"terminal frame resolved {final.get('completed')} cells, expected {expect_completed}")
    if final.get("queue_depth") != 0:
        problems.append(f"terminal frame has queue depth {final.get('queue_depth')}")
    if not final.get("workers"):
        problems.append("terminal frame lists no workers")
    return problems


def validate(path: Path, expect_completed: Optional[int] = None) -> int:
    """``--validate``: check a ``--status-json`` sink; 0 when it is complete and well formed."""
    try:
        frames = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    except (OSError, ValueError) as exc:
        print(f"monitor: cannot read status stream {path}: {exc}", file=sys.stderr)
        return 1
    if not all(isinstance(frame, dict) for frame in frames):
        print(f"monitor: {path}: a line is not a JSON object", file=sys.stderr)
        return 1
    problems = status_stream_problems(frames, expect_completed)
    for problem in problems:
        print(f"monitor: {path}: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"status stream OK ({len(frames)} frames, {len(frames[-1]['workers'])} workers)")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Attach a live read-only dashboard to a running sweep coordinator."
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="coordinator address (examples/sweep_scenarios.py --serve)",
    )
    source.add_argument(
        "--validate",
        type=Path,
        metavar="FILE",
        help="check a finished --status-json sink instead of attaching; exit 1 on any problem",
    )
    parser.add_argument(
        "--expect-completed",
        type=int,
        metavar="N",
        help="with --validate: the terminal frame must report N resolved cells",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit raw status frames as JSONL instead of the dashboard",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="exit after the first status frame (smoke tests, fleet probes)",
    )
    parser.add_argument(
        "--connect-timeout", type=float, default=10.0, help="seconds to wait for the dial"
    )
    parser.add_argument(
        "--io-timeout",
        type=float,
        default=DEFAULT_TIMEOUTS.io_timeout_s,
        help="socket receive timeout between frames",
    )
    args = parser.parse_args(argv)
    if args.validate is not None:
        return validate(args.validate, args.expect_completed)
    if args.expect_completed is not None:
        parser.error("--expect-completed needs --validate")
    address = parse_address(args.connect)
    try:
        channel = attach(
            address, connect_timeout_s=args.connect_timeout, io_timeout_s=args.io_timeout
        )
    except (OSError, ProtocolError, MonitorError) as exc:
        print(f"monitor: {exc}", file=sys.stderr)
        return 2
    previous: Optional[dict] = None
    try:
        for frame in frames(channel):
            if args.json:
                print(json.dumps(frame, sort_keys=True))
            else:
                render_frame(frame, previous, sys.stdout)
            previous = frame
            if args.once or frame.get("done"):
                break
    except MonitorError as exc:
        print(f"monitor: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            channel.send("bye")
        except (OSError, ProtocolError):
            pass
        channel.close()
    if previous is None:
        print("monitor: stream ended before the first status frame", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
