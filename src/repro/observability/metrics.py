"""Process-wide metrics registry and accuracy residual ledger.

The tracing layer (:mod:`repro.observability.trace`) answers "where did the
time go *in this traced run*"; this module answers the longer-lived
questions the adaptive router and the serving tier need: how many times did
each subsystem event happen in this process, what do the latency
distributions look like, and — crucially for the paper's accuracy/cost
trade-off — *how wrong was each estimator wherever ground truth was
available, and what did that error cost*.

Three instruments live in one :class:`MetricsRegistry`:

- **Counters** — monotonic floats (``catalog.store.hit``,
  ``parallel.tasks``, ...), written by :func:`count` whether or not a
  trace collector is listening. The registry is the only place a counter
  value lives: trace collectors keep spans and outcomes, and trace files
  carry counters inside their ``metrics`` record. Four hot-path counters
  are plain integer slots on :attr:`MetricsRegistry.hotpath` instead —
  see :class:`_HotpathSlots` — and are reported as ``hotpath.<slot>``.
- **Gauges** — last-written point-in-time values
  (``catalog.store.bytes_used``, ``catalog.store.entries``).
- **Histograms** — log2-bucketed distributions, written by
  :func:`observe`, with *exact* ``min``/``max``/``count``/``sum`` and
  bucketed ``p50``/``p95``/``p99`` (quantiles are read from the bucket
  containing the rank, so their error is bounded by one octave and
  clamped into ``[min, max]``).

The **residual ledger** is a bounded ring of :class:`ResidualRecord`
entries — ``(source, estimator, workload, op, estimate, truth,
relative_error, seconds)`` — appended wherever truth is computed anyway:
the SparsEst runner's truth cache, ``repro.verify`` contract checks, and
the runtime allocator's regret accounting. The paper's M1 metric,
measured continuously instead of only inside benchmark harnesses.

Snapshots (:class:`MetricsSnapshot`, schema version
:data:`METRICS_SCHEMA_VERSION`) are picklable and support two algebraic
operations the parallel engine relies on:

- ``delta_since(baseline)`` — what happened between two snapshots. Workers
  are forked and therefore inherit the parent's registry state; each task
  snapshots a baseline on entry and ships only the delta back.
- ``merge(other)`` — fold a delta (or another file's snapshot) in.
  Counters and histogram buckets add, gauges take the later writer,
  residual ledgers concatenate. The parent merges worker deltas in task
  order, so merged output is deterministic regardless of scheduling, and a
  crashed worker simply contributes nothing (merged = sum of survivors).

Durability: :func:`flush` (also registered via ``atexit``) writes a JSONL
snapshot to ``$REPRO_METRICS_DUMP`` (a file, or a directory that receives
``metrics-<pid>.jsonl``), so counters and the ledger survive a process
that exits mid-run without an explicit export step.
"""

from __future__ import annotations

import atexit
import math
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Mapping, Optional

#: Version stamp embedded in every snapshot record; readers reject
#: payloads from a newer format (mirroring ``repro.core.serialize``).
METRICS_SCHEMA_VERSION = 1

#: Environment variable naming the flush target (file, or directory).
METRICS_DUMP_ENV = "REPRO_METRICS_DUMP"

#: Residual ledger ring size; older entries are dropped (and counted).
DEFAULT_LEDGER_CAPACITY = 4096


def _relative_error(truth: float, estimate: float) -> float:
    """The paper's M1 metric ``max(t, e) / min(t, e)`` in ``[1, inf)``.

    Local mirror of :func:`repro.sparsest.metrics.relative_error` (kept
    import-cycle-free: the sparsest package itself records residuals here).
    Degenerate conventions match: two zeros agree (1.0), a zero against a
    non-zero is an infinite error. Negative inputs are clamped to zero —
    residuals measure allocation/estimation outputs that are already
    clamped upstream.
    """
    t, e = max(float(truth), 0.0), max(float(estimate), 0.0)
    if math.isnan(t) or math.isnan(e):
        return math.nan
    if t == 0.0 and e == 0.0:
        return 1.0
    if t == 0.0 or e == 0.0:
        return math.inf
    return max(t, e) / min(t, e)


@dataclass(frozen=True)
class ResidualRecord:
    """One estimate-vs-truth observation.

    Attributes:
        source: which subsystem measured it (``"sparsest"``, ``"verify"``,
            ``"allocator"``, ...).
        estimator: estimator display name (``"MNC"``, ``"MetaWC"``, ...).
        workload: workload tag — a use-case id, ``generator#index`` fuzz
            coordinate, or DAG node label.
        op: opcode (``"matmul"``), ``"dag"`` for whole-expression roots, or
            ``"alloc"`` for allocation decisions.
        estimate: the estimator's non-zero estimate.
        truth: the exact non-zero count.
        relative_error: paper M1, ``max/min`` (``inf`` for zero-vs-nonzero).
        seconds: wall time attributed to producing the estimate (0.0 when
            not measured at this site).
    """

    source: str
    estimator: str
    workload: str
    op: str
    estimate: float
    truth: float
    relative_error: float
    seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "estimator": self.estimator,
            "workload": self.workload,
            "op": self.op,
            "estimate": self.estimate,
            "truth": self.truth,
            "relative_error": self.relative_error,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResidualRecord":
        return cls(
            source=str(data.get("source", "?")),
            estimator=str(data.get("estimator", "?")),
            workload=str(data.get("workload", "?")),
            op=str(data.get("op", "?")),
            estimate=float(data.get("estimate", math.nan)),
            truth=float(data.get("truth", math.nan)),
            relative_error=float(data.get("relative_error", math.nan)),
            seconds=float(data.get("seconds", 0.0)),
        )


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------


class _Histogram:
    """Log2-bucketed histogram with exact count/sum/min/max.

    Positive observations land in bucket ``floor(log2(v))`` (so bucket *i*
    covers ``[2^i, 2^(i+1))``); non-positive observations are counted in a
    dedicated zero bucket. Quantiles interpolate to the geometric midpoint
    of the bucket holding the rank and are clamped into ``[min, max]``.
    """

    __slots__ = ("buckets", "zeros", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.zeros = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            return
        if value > 0.0:
            index = math.frexp(value)[1] - 1  # floor(log2(value)), exact
            self.buckets[index] = self.buckets.get(index, 0) + 1
        else:
            self.zeros += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """The *q*-th percentile (0-100), bucket-resolved, ``nan`` if empty."""
        if self.count == 0:
            return math.nan
        target = max(1, math.ceil((q / 100.0) * self.count))
        cumulative = self.zeros
        if cumulative >= target:
            return max(self.min, 0.0) if self.min <= 0.0 else 0.0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= target:
                midpoint = 2.0 ** (index + 0.5)  # geometric bucket center
                return min(max(midpoint, self.min), self.max)
        return self.max  # pragma: no cover - counts always sum to count

    def state(self) -> Dict[str, Any]:
        """JSON-able snapshot of the histogram internals."""
        return {
            "buckets": {str(index): n for index, n in sorted(self.buckets.items())},
            "zeros": self.zeros,
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "_Histogram":
        histogram = cls()
        histogram.buckets = {
            int(index): int(n) for index, n in state.get("buckets", {}).items()
        }
        histogram.zeros = int(state.get("zeros", 0))
        histogram.count = int(state.get("count", 0))
        histogram.total = float(state.get("sum", 0.0))
        low, high = state.get("min"), state.get("max")
        histogram.min = math.inf if low is None else float(low)
        histogram.max = -math.inf if high is None else float(high)
        return histogram

    def merge_state(self, state: Mapping[str, Any]) -> None:
        other = _Histogram.from_state(state)
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.zeros += other.zeros
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def summary(self) -> Dict[str, float]:
        """count/sum/mean/min/max/p50/p95/p99 for reports."""
        mean = self.total / self.count if self.count else math.nan
        return {
            "count": self.count,
            "sum": self.total,
            "mean": mean,
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
            "p50": self.quantile(50.0),
            "p95": self.quantile(95.0),
            "p99": self.quantile(99.0),
        }


def _subtract_histogram_state(
    current: Mapping[str, Any], baseline: Mapping[str, Any]
) -> Optional[Dict[str, Any]]:
    """Bucket-wise ``current - baseline``; ``None`` when nothing changed.

    The delta's ``min``/``max`` are taken from *current*: exact extremes of
    only-the-new observations are unrecoverable from bucket counts, and
    re-merging the current extremes into the parent is conservative (the
    inherited extremes came from the parent's own data).
    """
    count_delta = int(current.get("count", 0)) - int(baseline.get("count", 0))
    if count_delta <= 0:
        return None
    base_buckets = baseline.get("buckets", {})
    buckets = {}
    for index, n in current.get("buckets", {}).items():
        remaining = int(n) - int(base_buckets.get(index, 0))
        if remaining > 0:
            buckets[index] = remaining
    return {
        "buckets": buckets,
        "zeros": int(current.get("zeros", 0)) - int(baseline.get("zeros", 0)),
        "count": count_delta,
        "sum": float(current.get("sum", 0.0)) - float(baseline.get("sum", 0.0)),
        "min": current.get("min"),
        "max": current.get("max"),
    }


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------


@dataclass
class MetricsSnapshot:
    """Picklable, versioned point-in-time copy of a registry.

    The transport format of the parallel engine (shipped as deltas inside
    :class:`~repro.observability.collector.TracePayload`) and the payload
    of the JSONL/Prometheus exporters in
    :mod:`repro.observability.export`.
    """

    version: int = METRICS_SCHEMA_VERSION
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    residuals: List[ResidualRecord] = field(default_factory=list)
    residuals_seen: int = 0
    residuals_dropped: int = 0

    @property
    def empty(self) -> bool:
        return not (
            self.counters or self.gauges or self.histograms or self.residuals
        )

    def delta_since(self, baseline: "MetricsSnapshot") -> "MetricsSnapshot":
        """What happened between *baseline* and this snapshot.

        Gauges are included only when their value changed (an unchanged
        inherited gauge must not overwrite a parent-side update during the
        merge back).
        """
        counters = {}
        for name, value in self.counters.items():
            delta = value - baseline.counters.get(name, 0.0)
            if delta != 0.0:
                counters[name] = delta
        gauges = {
            name: value
            for name, value in self.gauges.items()
            if baseline.gauges.get(name) != value
        }
        histograms = {}
        for name, state in self.histograms.items():
            delta_state = _subtract_histogram_state(
                state, baseline.histograms.get(name, {})
            )
            if delta_state is not None:
                histograms[name] = delta_state
        new_records = self.residuals_seen - baseline.residuals_seen
        residuals = list(self.residuals[-new_records:]) if new_records > 0 else []
        return MetricsSnapshot(
            counters=counters,
            gauges=gauges,
            histograms=histograms,
            residuals=residuals,
            residuals_seen=max(new_records, 0),
            residuals_dropped=max(
                self.residuals_dropped - baseline.residuals_dropped, 0
            ),
        )

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """A new snapshot folding *other* in (counters add, gauges take
        *other*'s value, histogram buckets add, ledgers concatenate)."""
        merged = MetricsSnapshot(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            histograms={
                name: dict(state) for name, state in self.histograms.items()
            },
            residuals=list(self.residuals),
            residuals_seen=self.residuals_seen,
            residuals_dropped=self.residuals_dropped,
        )
        for name, value in other.counters.items():
            merged.counters[name] = merged.counters.get(name, 0.0) + value
        merged.gauges.update(other.gauges)
        for name, state in other.histograms.items():
            if name in merged.histograms:
                histogram = _Histogram.from_state(merged.histograms[name])
                histogram.merge_state(state)
                merged.histograms[name] = histogram.state()
            else:
                merged.histograms[name] = dict(state)
        merged.residuals.extend(other.residuals)
        merged.residuals_seen += other.residuals_seen
        merged.residuals_dropped += other.residuals_dropped
        return merged

    def histogram_summaries(self) -> Dict[str, Dict[str, float]]:
        """Per-histogram count/mean/min/max/p50/p95/p99 bundles."""
        return {
            name: _Histogram.from_state(state).summary()
            for name, state in sorted(self.histograms.items())
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able encoding (the JSONL ``metrics`` record body)."""
        return {
            "schema": self.version,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: dict(state)
                for name, state in sorted(self.histograms.items())
            },
            "residuals_seen": self.residuals_seen,
            "residuals_dropped": self.residuals_dropped,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsSnapshot":
        """Decode :meth:`to_dict` output; rejects future schema versions."""
        version = int(data.get("schema", METRICS_SCHEMA_VERSION))
        if version > METRICS_SCHEMA_VERSION:
            raise ValueError(
                f"metrics snapshot schema {version} is newer than this build "
                f"supports (reads up to {METRICS_SCHEMA_VERSION}); refusing "
                "to decode a payload from a future format"
            )
        return cls(
            version=version,
            counters={k: float(v) for k, v in data.get("counters", {}).items()},
            gauges={k: float(v) for k, v in data.get("gauges", {}).items()},
            histograms={
                name: dict(state)
                for name, state in data.get("histograms", {}).items()
            },
            residuals_seen=int(data.get("residuals_seen", 0)),
            residuals_dropped=int(data.get("residuals_dropped", 0)),
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_SLOT_NAMES = (
    "trusted_constructions",
    "validated_constructions",
    "summaries_materialized",
    "zero_vector_hits",
)

#: Reported counter name -> slot attribute.
_SLOT_COUNTERS = {f"hotpath.{name}": name for name in _SLOT_NAMES}


class _HotpathSlots:
    """The registry's hot-path counters: plain integer attributes.

    Sketch construction bumps them (``METRICS.hotpath.trusted_constructions
    += 1``) tens of times per chain plan. A slot bump costs ~0.15 µs where
    a locked :meth:`MetricsRegistry.inc` costs ~0.5 µs, against ~1.6 µs for
    a whole trusted construction, so the slots take no lock. Snapshots
    report each non-zero slot as the counter ``hotpath.<slot>``.
    """

    __slots__ = _SLOT_NAMES

    def __init__(self) -> None:
        self.zero()

    def zero(self) -> None:
        for name in _SLOT_NAMES:
            setattr(self, name, 0)



class MetricsRegistry:
    """Thread-safe counters, gauges, histograms, and the residual ledger."""

    def __init__(self, ledger_capacity: int = DEFAULT_LEDGER_CAPACITY):
        if ledger_capacity <= 0:
            raise ValueError(
                f"ledger_capacity must be positive, got {ledger_capacity}"
            )
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}
        self._residuals: Deque[ResidualRecord] = deque(maxlen=ledger_capacity)
        self._residuals_seen = 0
        #: Unlocked integer counters for the sketch-construction hot path.
        self.hotpath = _HotpathSlots()

    # -- writes --------------------------------------------------------

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add *value* to the monotonic counter *name*."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge *name* to *value* (last writer wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Append one observation to the histogram *name*."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = _Histogram()
            histogram.observe(value)

    def record_residual(self, record: ResidualRecord) -> None:
        """Append one estimate-vs-truth observation to the ledger."""
        flight = _flight
        with self._lock:
            self._residuals.append(record)
            self._residuals_seen += 1
        if flight is not None and flight.enabled:
            flight.record(
                "residual",
                f"{record.source}:{record.estimator}",
                detail={
                    "workload": record.workload,
                    "relative_error": record.relative_error,
                },
            )

    # -- reads ---------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Copy the registry into a picklable, versioned snapshot."""
        with self._lock:
            counters = dict(self._counters)
            for key, slot in _SLOT_COUNTERS.items():
                value = getattr(self.hotpath, slot)
                if value:
                    counters[key] = float(value)
            dropped = self._residuals_seen - len(self._residuals)
            return MetricsSnapshot(
                counters=counters,
                gauges=dict(self._gauges),
                histograms={
                    name: histogram.state()
                    for name, histogram in self._histograms.items()
                },
                residuals=list(self._residuals),
                residuals_seen=self._residuals_seen,
                residuals_dropped=dropped,
            )

    def residuals(self) -> List[ResidualRecord]:
        """The retained ledger entries, oldest first."""
        with self._lock:
            return list(self._residuals)

    # -- merge / reset -------------------------------------------------

    def merge(self, snapshot: MetricsSnapshot) -> None:
        """Fold a (delta) snapshot into the live registry."""
        hotpath = self.hotpath
        with self._lock:
            for name, value in snapshot.counters.items():
                slot = _SLOT_COUNTERS.get(name)
                if slot is not None:
                    setattr(hotpath, slot, getattr(hotpath, slot) + int(value))
                else:
                    self._counters[name] = self._counters.get(name, 0.0) + value
            self._gauges.update(snapshot.gauges)
            for name, state in snapshot.histograms.items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = _Histogram()
                histogram.merge_state(state)
            for record in snapshot.residuals:
                self._residuals.append(record)
            self._residuals_seen += snapshot.residuals_seen

    def reset(self) -> None:
        """Zero everything (test isolation; the ledger capacity is kept)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._residuals.clear()
            self._residuals_seen = 0
            self.hotpath.zero()


#: The process-wide registry every helper below writes to.
METRICS = MetricsRegistry()

#: Flight recorder attached by :mod:`repro.observability.flight` at import
#: (kept as a late-bound global to avoid an import cycle).
_flight = None


def attach_flight(recorder) -> None:
    """Install the flight recorder that mirrors registry events."""
    global _flight
    _flight = recorder


# ----------------------------------------------------------------------
# Module-level helpers (the instrumentation surface)
# ----------------------------------------------------------------------


def count(name: str, value: float = 1.0) -> None:
    """Add *value* to the process-wide counter *name*.

    The one counter write surface outside the hot-path slots. The
    increment is also appended to the flight recorder's ring as a
    ``metric`` event.
    """
    METRICS.inc(name, value)
    flight = _flight
    if flight is not None and flight.enabled:
        flight.record("metric", name, detail={"delta": value})


def metric_set(name: str, value: float) -> None:
    """Set the process-wide gauge *name*."""
    METRICS.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record one observation on the process-wide histogram *name*."""
    METRICS.observe(name, value)


def record_residual(
    source: str,
    estimator: str,
    workload: str,
    op: str,
    estimate: float,
    truth: float,
    seconds: float = 0.0,
) -> ResidualRecord:
    """Append one estimate-vs-truth observation to the residual ledger.

    Computes the paper's M1 relative error and mirrors per-(source,
    estimator) aggregate counters (``residual.count.<source>.<estimator>``)
    so exposition formats carry a cheap roll-up even when the bounded
    ledger has rotated.
    """
    record = ResidualRecord(
        source=source,
        estimator=estimator,
        workload=workload,
        op=op,
        estimate=float(estimate),
        truth=float(truth),
        relative_error=_relative_error(truth, estimate),
        seconds=float(seconds),
    )
    METRICS.record_residual(record)
    METRICS.inc(f"residual.count.{source}.{estimator}")
    if math.isfinite(record.relative_error):
        METRICS.observe(f"residual.relative_error.{source}", record.relative_error)
    else:
        METRICS.inc(f"residual.nonfinite.{source}.{estimator}")
    return record


def metrics_snapshot() -> MetricsSnapshot:
    """Snapshot the process-wide registry (hotpath counters included)."""
    return METRICS.snapshot()


def reset_metrics() -> None:
    """Zero the process-wide registry (test isolation)."""
    METRICS.reset()


# ----------------------------------------------------------------------
# Flush / atexit durability
# ----------------------------------------------------------------------


def _flush_target(path: Optional[os.PathLike | str]) -> Optional[Path]:
    raw = os.fspath(path) if path is not None else os.environ.get(METRICS_DUMP_ENV)
    if not raw:
        return None
    target = Path(raw)
    if target.is_dir() or raw.endswith(os.sep):
        target = target / f"metrics-{os.getpid()}.jsonl"
    return target


def flush(path: Optional[os.PathLike | str] = None) -> Optional[Path]:
    """Write the current snapshot (hot-path slots included) as JSONL.

    The destination is *path*, or ``$REPRO_METRICS_DUMP`` when unset; a
    directory target receives a per-process ``metrics-<pid>.jsonl`` so
    worker processes never clobber the parent's dump. Returns the path
    written, or ``None`` when no destination is configured. The write is
    atomic (temp file + rename), so a dump observed on disk is complete.
    """
    target = _flush_target(path)
    if target is None:
        return None
    from repro.observability.export import write_metrics_jsonl

    target.parent.mkdir(parents=True, exist_ok=True)
    write_metrics_jsonl(target, METRICS.snapshot())
    return target


def _flush_at_exit() -> None:  # pragma: no cover - exercised via subprocess
    try:
        flush()
    except Exception:
        pass  # exiting processes must never fail on telemetry


atexit.register(_flush_at_exit)
