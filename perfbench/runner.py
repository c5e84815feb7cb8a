"""Benchmark runner: boots servers, runs the phases, prints the result.

``--trace 0`` boots the server ``SETUP_REPEATS`` times (reporting the
median set-up time), keeps the last one, drives it closed-loop for
``--seconds``, runs the workload's probe ops, checks every answer and
prints the end-to-end metrics. ``--trace 1`` spends half the time on an
untraced server and half on one whose layers are wrapped (``layers.py``)
and prints the per-layer metrics, including the tracing overhead.
Every end-to-end timing of the timed phase is scaled to a reference host
speed (see :meth:`Run.scaled`). ``--smoke`` shrinks every input for the
self-test. The last line of standard output is the JSON result; the line
before it records the host topology, host speed and sample counts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy

import layers
import workloads
from check import Replay, TruthCache
from wire import (
    BenchError,
    ClosedLoop,
    Record,
    ServerProcess,
    cpu_times,
    host_speed,
    register,
    run_ops,
    stolen_share,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".bench_cache" / "perfbench"
SETUP_REPEATS = 3
#: The timed phase runs as back-to-back windows of this length, each with
#: its own stolen share (``wire.stolen_share``). Windows whose stolen share
#: exceeds ``STEAL_LIMIT`` are left out of the metrics (but at most half of
#: them), and the timings of the rest are corrected for what they lost (see
#: :class:`Window`), so an episode of contention from other tenants of the
#: host does not move the result.
WINDOW_S = 1.0
STEAL_LIMIT = 0.1
#: Latency samples per percentile group (see :func:`latency_ms`).
GROUP_SAMPLES = 100
#: Wall time of one host-speed calibration (before every set-up and window).
CALIBRATION_S = 0.1
#: Calibration units per second (``wire.host_speed``) of the reference
#: host that end-to-end timings are scaled to: about the usual pooled
#: speed on the server CPU of a 2-vCPU KVM guest (Intel Xeon).
REFERENCE_SPEED = 5500.0

def _percentile_ms(latencies: Sequence[float], q: int) -> float:
    """The q-th percentile (inclusive method) of *latencies*, in ms."""
    if len(latencies) < 2:
        raise BenchError(f"{len(latencies)} latency samples; need at least 2")
    return 1e3 * statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def latency_ms(windows: Sequence["Window"], kind: str, q: int) -> float:
    """Median over consecutive groups of *windows* of each group's q-th
    percentile of *kind* latencies. A group closes once it holds
    ``GROUP_SAMPLES``, so a p90 has ten samples beyond it in every group,
    and a burst of host noise moves one group rather than the result."""
    groups: List[List[float]] = [[]]
    for window in windows:
        if len(groups[-1]) >= GROUP_SAMPLES:
            groups.append([])
        groups[-1] += latencies([window], kind)
    if len(groups) > 1 and len(groups[-1]) < GROUP_SAMPLES:
        tail = groups.pop()
        groups[-1] += tail
    return statistics.median(_percentile_ms(group, q) for group in groups)


@dataclass
class Window:
    """A slice of a phase: its records, wall time, server CPU and the share
    of its time in which the hypervisor ran other guests instead of the
    server or the generator (``steal``).

    The closed loop stands still while either is stolen, so a window's
    wall time and latencies are counted only for the rest of its time:
    multiplied by ``1 - steal``. Over the 1-second windows of three
    update-mix runs with 8-88% steal, the window rate fell with it at a
    correlation of -0.86 to -0.98, by about 0.9 of the stolen share.
    Server CPU time leaves steal out already.
    """

    records: List[Record]
    wall: float
    server_cpu: float
    steal: float

    @property
    def running(self) -> float:
        return 1.0 - self.steal


def measure(server: ServerProcess, run, cpus: Sequence[str]) -> Window:
    """Call ``run()`` -> records, timing the server and the host around it;
    *cpus* are the ``/proc/stat`` labels of the server's and generator's
    CPUs."""
    cpu_before, stat_before = server.cpu_seconds(), cpu_times()
    records = run()
    cpu_after, stat_after = server.cpu_seconds(), cpu_times()
    wall = max(r.done for r in records) - min(r.sent for r in records)
    return Window(
        records, wall, cpu_after - cpu_before, stolen_share(stat_before, stat_after, cpus)
    )


def quiet(windows: Sequence[Window]) -> List[Window]:
    """*windows*, in order, without those above ``STEAL_LIMIT``; at least
    the least-stolen half is kept."""
    calm = [w for w in windows if w.steal <= STEAL_LIMIT]
    if 2 * len(calm) < len(windows):
        calm = sorted(windows, key=lambda w: w.steal)[:max(1, len(windows) // 2)]
    return [w for w in windows if any(w is c for c in calm)]


def latencies(windows: Sequence[Window], kind: str) -> List[float]:
    """Steal-corrected latencies of *kind* (see :class:`Window`)."""
    return [
        r.latency * w.running for w in windows for r in w.records if r.op.kind == kind
    ]


def rate(windows: Sequence[Window]) -> float:
    """Ops per steal-corrected second (see :class:`Window`)."""
    return sum(len(w.records) for w in windows) / sum(w.wall * w.running for w in windows)


def in_order(windows: Sequence[Window]) -> List[Record]:
    return sorted((r for w in windows for r in w.records), key=lambda r: r.done)


class Run:
    """One benchmark run: servers, generator records, checks."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.workload = workloads.build(args.workload, args.seed, smoke=args.smoke)
        #: Run-wide request ids; they join client and server spans.
        self.ids = itertools.count(1)
        self.servers: List[ServerProcess] = []
        cpus = sorted(os.sched_getaffinity(0))
        self.server_cpu: Optional[int] = None
        #: ``/proc/stat`` lines whose steal stops the closed loop.
        self.steal_cpus = ["cpu"]
        if len(cpus) >= 2:
            # Server and generator each get a CPU of their own.
            self.server_cpu = cpus[0]
            os.sched_setaffinity(0, {cpus[1]})
            self.steal_cpus = [f"cpu{cpus[0]}", f"cpu{cpus[1]}"]
        self.info: Dict = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpus_allowed": cpus,
            "pinned": self.server_cpu is not None,
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
        }
        if self.server_cpu is None:
            print("warning: fewer than 2 CPUs; server and generator share one "
                  "(numbers are not comparable with pinned runs)", file=sys.stderr)
        tag = f"{args.workload}-{args.seed}" + ("-smoke" if args.smoke else "")
        self.truth = TruthCache(CACHE / f"truth-{tag}.json")
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Host speed samples on the server CPU, taken while it is idle.
        self.speeds: List[Tuple[int, float]] = []

    def calibrate(self) -> None:
        self.speeds.append(host_speed(self.server_cpu, CALIBRATION_S))

    # -- servers --------------------------------------------------------

    def boot(self, trace_out: Optional[Path] = None):
        """Spawn, register, prime; returns (server, seconds, priming records)."""
        self.calibrate()
        started = time.perf_counter()
        server = ServerProcess(
            ROOT, CACHE / f"server-{os.getpid()}-{len(self.servers)}.log",
            cpu=self.server_cpu, trace_out=trace_out,
        )
        self.servers.append(server)
        server.start()
        register(server.port, self.workload.matrices, self.ids)
        priming = run_ops(server.port, self.workload.priming, self.ids)
        self.info["backend"] = server.backend
        return server, time.perf_counter() - started, priming

    def stop_all(self) -> None:
        for server in self.servers:
            server.stop()

    # -- phases ---------------------------------------------------------

    def timed(self, server: ServerProcess, seconds: float, probe: Sequence = ()):
        """The closed loop as back-to-back windows, with one chunk of the
        *probe* (and the workload's re-priming) after each window.

        Returns the timed windows, the probe chunks as windows, and every
        record in the order the server answered them.
        """
        streams = [self.workload.stream(c) for c in range(self.workload.connections)]
        loop = ClosedLoop(server.port, streams, self.ids)
        count = max(2, round(seconds / WINDOW_S))
        size = -(-len(probe) // count)
        windows: List[Window] = []
        chunks: List[Window] = []
        ordered: List[Record] = []
        try:
            for index in range(count):
                self.calibrate()
                windows.append(measure(
                    server, lambda: loop.run(seconds / count), self.steal_cpus
                ))
                ordered += in_order(windows[-1:])
                chunk = probe[index * size:(index + 1) * size]
                if chunk:
                    chunks.append(measure(
                        server, lambda: run_ops(server.port, chunk, self.ids), self.steal_cpus
                    ))
                    ordered += chunks[-1].records
                    ordered += run_ops(server.port, self.workload.reprime, self.ids)
        finally:
            loop.close()
        wall = sum(w.wall for w in windows)
        self.info.setdefault("phases", []).append({
            "ops": sum(len(w.records) for w in windows),
            "wall_s": wall,
            "window_rates": [round(len(w.records) / w.wall, 2) for w in windows],
            "window_steal_shares": [round(w.steal, 4) for w in windows],
            "server_cpu_share": sum(w.server_cpu for w in windows) / wall,
        })
        return windows, chunks, ordered

    def verify(self, ordered: Sequence[Record]) -> Replay:
        """Replay *ordered* against the in-process reference."""
        replay = Replay(self.workload.matrices, self.truth)
        for record in ordered:
            self.attempted += 1
            if not replay.check(record.op, record.status, record.reply):
                self.failed += 1
        self.truth.save()
        self.problems += replay.mismatches[:5]
        return replay

    # -- modes ----------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        repeats = 1 if self.args.smoke else SETUP_REPEATS
        setups = []
        for _ in range(repeats - 1):
            server, seconds, _ = self.boot()
            server.stop()
            setups.append(seconds)
        server, seconds, priming = self.boot()
        setups.append(seconds)
        windows, probe, ordered = self.timed(server, self.args.seconds, self.workload.probe)
        peak_rss = server.peak_rss_mb()
        server.stop()
        replay = self.verify(priming + ordered)

        measured = quiet(windows)
        writes = measured if latencies(windows, workloads.UPDATE) else quiet(probe)
        read_kind = self.workload.read_kind
        self.info["samples"] = {
            "windows": len(measured),
            "read": len(latencies(measured, read_kind)),
            "update": len(latencies(writes, workloads.UPDATE)),
        }
        quality = replay.quality()
        if None in quality.values():
            raise BenchError(f"no answers to score quality on: {quality}")
        seconds = self.scaled()
        return {
            "setup_s": statistics.median(setups),
            "throughput_rps": rate(measured) / seconds,
            "latency_p50_ms": seconds * latency_ms(measured, read_kind, 50),
            "latency_p90_ms": seconds * latency_ms(measured, read_kind, 90),
            "update_latency_p50_ms": seconds * latency_ms(writes, workloads.UPDATE, 50),
            "update_latency_p90_ms": seconds * latency_ms(writes, workloads.UPDATE, 90),
            "server_cpu_us_per_op": seconds * 1e6 * sum(w.server_cpu for w in measured) / sum(
                len(w.records) for w in measured
            ),
            "peak_rss_mb": peak_rss,
            **quality,
        }

    def scaled(self) -> float:
        """Reference seconds per measured second.

        Other tenants of the host change its speed by ±20% over minutes
        and up to 2x over an hour, which no guest counter shows; a run's
        timings follow. The calibration (``wire.host_speed``) does work of
        the server's kinds but runs no repro code, on the server CPU while
        the server idles, before every set-up and window. Units per CPU
        second pooled over the run measure the host's speed during it (the
        host flips between a fast and a slow state within seconds, so the
        median sample jumps between the two where the pool, like the
        server, averages them). Timings are reported as they would read
        on a host of ``REFERENCE_SPEED``: a time is multiplied by, and a
        rate divided by, the returned factor.
        A change to the program moves the timings but not the
        calibration, so it moves the reported values just as much.

        ``setup_s`` is not scaled: it is mostly process start and imports,
        which followed the calibration at an elasticity of 0.5 or less
        where the timed phase followed it at 0.7 to 1.1.
        """
        speed = sum(units for units, _ in self.speeds) / sum(cpu for _, cpu in self.speeds)
        self.info["host_speed"] = {
            "pooled": speed, "reference": REFERENCE_SPEED,
            "samples": [round(units / cpu) for units, cpu in self.speeds],
        }
        return speed / REFERENCE_SPEED

    def per_layer(self) -> Dict[str, float]:
        half = self.args.seconds / 2
        server, _, priming = self.boot()
        plain, _, ordered = self.timed(server, half)
        server.stop()
        self.verify(priming + ordered)

        trace_path = CACHE / f"trace-{os.getpid()}.json"
        server, _, priming = self.boot(trace_out=trace_path)
        traced, _, ordered = self.timed(server, half)
        server.stop()
        self.verify(priming + ordered)
        if server.process.returncode != 0 or not trace_path.exists():
            raise BenchError("traced server did not exit cleanly with its spans")
        trace = layers.load_trace(trace_path)
        trace_path.unlink()
        metrics, failures = layers.per_layer_metrics(self.workload.name, trace, ordered)
        self.problems += failures
        self.failed += len(failures)
        metrics["trace.overhead_share"] = 1.0 - rate(quiet(traced)) / rate(quiet(plain))
        self.scaled()  # recorded in info; per-layer values stay as measured
        return metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up (self-test)")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args)
    try:
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        run.stop_all()
    run.info["problems"] = run.problems
    print(json.dumps({"info": run.info}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in json.loads((ROOT / "BENCHMARK.json").read_text())[
                "per_layer" if args.trace else "end_to_end"
            ]
        },
    }))
    return 0
