"""The server process and the HTTP generator that drives it.

:class:`ServerProcess` boots ``repro serve`` through ``serve_boot.py`` (so
it can be pinned to a CPU and, in the traced run, wrapped before it
starts), reads the listening port from its log, and reports its CPU time
and peak RSS from ``/proc``. :func:`run_ops` and :class:`ClosedLoop`
speak minimal HTTP/1.1 over raw keep-alive sockets: every request body is
pre-encoded except its ``trace_id`` tag, so the generator adds as little
client time as possible to the latency it observes.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from workloads import Op

HERE = Path(__file__).resolve().parent
BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (bad checkout, dead server)."""


class ServerProcess:
    """One ``repro serve`` process on a loopback port."""

    def __init__(
        self,
        root: Path,
        log_path: Path,
        cpu: Optional[int] = None,
        trace_out: Optional[Path] = None,
    ):
        self.root = root
        self.log_path = log_path
        self.cpu = cpu
        self.trace_out = trace_out
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.backend = "unknown"

    def start(self) -> None:
        command = [sys.executable, str(HERE / "serve_boot.py")]
        if self.cpu is not None:
            command += ["--cpu", str(self.cpu)]
        if self.trace_out is not None:
            command += ["--trace-out", str(self.trace_out)]
        command += ["--", "serve", "--host", "127.0.0.1", "--port", "0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(self.root / "src"), env.get("PYTHONPATH")])
        )
        # One str-hash layout for every boot, so dict/set costs do not
        # vary from run to run.
        env["PYTHONHASHSEED"] = "0"
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=self.root, env=env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
            )
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            text = self.log_path.read_text(errors="replace")
            for line in text.splitlines():
                if line.startswith("backend: "):
                    self.backend = line.split()[1]
                if "listening on http://" in line and line.startswith("repro serve"):
                    self.port = int(line.rsplit(":", 1)[1])
            if self.port and self.backend != "unknown":
                return
            if self.process.poll() is not None:
                raise BenchError(f"server exited during boot:\n{text[-2000:]}")
            time.sleep(0.002)
        raise BenchError("server did not announce its port in time")

    @property
    def pid(self) -> int:
        assert self.process is not None
        return self.process.pid

    def cpu_seconds(self) -> float:
        """utime + stime of every thread so far."""
        fields = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then kill if it lingers."""
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(STOP_TIMEOUT_S)
        if self.process.returncode == 0:
            self.log_path.unlink()  # kept only when the server failed


def cpu_times() -> Dict[str, List[int]]:
    """``/proc/stat`` jiffies per line (``cpu`` for all CPUs, ``cpuN`` for
    one): user nice system idle iowait irq softirq steal."""
    lines = Path("/proc/stat").read_text().splitlines()
    return {
        fields[0]: [int(value) for value in fields[1:9]]
        for fields in (line.split() for line in lines if line.startswith("cpu"))
    }


def stolen_share(
    before: Dict[str, List[int]], after: Dict[str, List[int]], cpus: Sequence[str]
) -> float:
    """The sum over *cpus* (``/proc/stat`` labels) of the share of each
    one's time that the hypervisor gave to other guests, capped at 0.9:
    the share of the time in which the server or the generator could not
    run."""
    total = 0.0
    for cpu in cpus:
        delta = [b - a for a, b in zip(before[cpu], after[cpu])]
        total += delta[7] / sum(delta) if sum(delta) else 0.0
    return min(total, 0.9)


@dataclass
class Record:
    """One completed request as the generator saw it."""

    op: Op
    trace_id: int
    sent: float
    done: float
    status: int
    reply: Any

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency(self) -> float:
        return self.done - self.sent


class _Connection:
    def __init__(self, port: int, index: int):
        self.index = index
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.pending: Optional[tuple] = None

    def send(self, op: Op, trace_id: int) -> None:
        body = _body_bytes(op, trace_id)
        head = (
            f"POST {op.path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self.pending = (op, trace_id, time.perf_counter())
        self.sock.sendall(head + body)

    def feed(self) -> Optional[Record]:
        """Read what is available; a :class:`Record` once a reply is whole."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk
        return self._complete()

    def _complete(self) -> Optional[Record]:
        end = self.buffer.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = self.buffer[:end].decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        if len(self.buffer) < end + 4 + length:
            return None
        body = self.buffer[end + 4:end + 4 + length]
        self.buffer = self.buffer[end + 4 + length:]
        reply = json.loads(body) if body else None
        done = time.perf_counter()
        assert self.pending is not None
        op, trace_id, sent = self.pending
        self.pending = None
        status = int(head[0].split()[1])
        return Record(op, trace_id, sent, done, status, reply)

    def close(self) -> None:
        self.sock.close()


def _body_bytes(op: Op, trace_id: int) -> bytes:
    """``{"trace_id": id, ...body}``: the tag joins server spans to this op."""
    return b'{"trace_id":%d,%s' % (trace_id, op.encoded[1:])


def register(port: int, matrices: Sequence, ids: Iterator[int]) -> None:
    """``POST /matrices`` for every wire matrix, one connection, in order."""
    ops = [
        Op.make("register", "/matrices", {"name": name, "matrix": payload})
        for name, payload in matrices
    ]
    for record in run_ops(port, ops, ids):
        if not record.ok:
            raise BenchError(f"registration failed: {record.status} {record.reply}")


def _poll(selector: selectors.BaseSelector) -> list:
    """Busy-wait for readable sockets. A generator that sleeps in the
    kernel waits for the hypervisor to wake its vCPU on every reply, which
    adds host scheduling delay, not server time, to the latency it sees."""
    while True:
        events = selector.select(0)
        if events:
            return events


def run_ops(port: int, ops: Sequence[Op], ids: Iterator[int]) -> List[Record]:
    """Send *ops* one after another on one keep-alive connection."""
    connection = _Connection(port, 0)
    records = []
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(connection.sock, selectors.EVENT_READ)
            for op in ops:
                connection.send(op, next(ids))
                record = None
                while record is None:
                    _poll(selector)
                    record = connection.feed()
                records.append(record)
    finally:
        connection.close()
    return records


class ClosedLoop:
    """One closed-loop client per stream, multiplexed in this thread.

    Each connection sends its next op as soon as its previous reply is
    decoded. :meth:`run` stops sending after its *seconds* and completes
    the ops in flight, so consecutive calls measure back-to-back windows
    over the same keep-alive connections and op streams. A transport error
    ends that connection and is recorded as a failed op (status 0).
    """

    def __init__(self, port: int, streams: Sequence[Iterator[Op]], ids: Iterator[int]):
        self.streams = streams
        self.ids = ids
        self.live = [_Connection(port, i) for i in range(len(streams))]
        self.dead: List[_Connection] = []

    def run(self, seconds: float) -> List[Record]:
        if not self.live:
            raise BenchError("every connection to the server has failed")
        records: List[Record] = []
        deadline = time.perf_counter() + seconds
        with selectors.DefaultSelector() as selector:
            for connection in self.live:
                selector.register(connection.sock, selectors.EVENT_READ, connection)
                connection.send(next(self.streams[connection.index]), next(self.ids))
            while selector.get_map():
                for key, _ in _poll(selector):
                    connection = key.data
                    try:
                        record = connection.feed()
                    except OSError:  # includes ConnectionError
                        op, trace_id, sent = connection.pending
                        records.append(
                            Record(op, trace_id, sent, time.perf_counter(), 0, None)
                        )
                        selector.unregister(connection.sock)
                        self.live.remove(connection)
                        self.dead.append(connection)
                        continue
                    if record is None:
                        continue
                    records.append(record)
                    if record.done < deadline:
                        connection.send(
                            next(self.streams[connection.index]), next(self.ids)
                        )
                    else:
                        selector.unregister(connection.sock)
        return records

    def close(self) -> None:
        for connection in self.live + self.dead:
            connection.close()


_DOC = {"expr": {"op": "matmul", "inputs": [{"ref": "A"}, {"ref": "B"}]}, "trace_id": 1}
_VECTOR = np.random.default_rng(0).random(512)


def _calibration_unit(pair: Tuple[socket.socket, socket.socket]) -> float:
    """A few hundred microseconds of the kinds of work the server does:
    JSON, a loopback send/recv pair, interpreter loops and a small numpy
    kernel. None of it is repro code, so no change to the program moves
    it."""
    total = 0.0
    for _ in range(8):
        pair[0].sendall(json.dumps(_DOC).encode())
        total += len(json.loads(pair[1].recv(4096))["expr"]["inputs"])
    for i in range(400):
        total += i * i
    total += float(np.log1p(np.sort(_VECTOR)).sum())
    return total


def host_speed(cpu: Optional[int], seconds: float) -> Tuple[int, float]:
    """Run calibration units on *cpu* (this process moves there for the
    measurement) for *seconds* of wall time; returns the units done and
    the CPU time this thread spent on them. CPU time leaves out the time
    the hypervisor ran other guests (steal), so units per CPU second is
    how fast the CPU runs while it runs."""
    saved = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    left, right = socket.socketpair()
    try:
        count = 0
        start = time.thread_time()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            _calibration_unit((left, right))
            count += 1
        return count, time.thread_time() - start
    finally:
        left.close()
        right.close()
        os.sched_setaffinity(0, saved)
