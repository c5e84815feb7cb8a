"""Span collectors: the pluggable sink behind the tracing API.

A collector keeps spans and benchmark outcomes only. Counters and
histograms live in :data:`repro.observability.metrics.METRICS`, the one
counter store, whether or not a collector is listening.

Exactly one collector is active per process at a time (swapped atomically
under a lock, usually via the :func:`using_collector` context manager).
The default :class:`NullCollector` advertises ``enabled = False``, which
the tracing layer uses to skip clock reads entirely — instrumentation left
in hot paths costs one attribute check per span when nobody is listening.
"""

from __future__ import annotations

import abc
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping

from repro.observability.metrics import MetricsSnapshot


@dataclass(frozen=True)
class SpanRecord:
    """One completed span.

    Attributes:
        name: span name (dotted, e.g. ``"estimator.build"``).
        start: ``time.perf_counter()`` value at span entry (monotonic,
            process-relative — useful for ordering, not wall-clock time).
        seconds: elapsed wall time of the span body.
        depth: nesting depth at entry (0 for top-level spans), derived from
            the per-thread span stack.
        attrs: free-form span attributes (operand shapes, estimator name,
            result estimates, ...).
    """

    name: str
    start: float
    seconds: float
    depth: int = 0
    attrs: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class TracePayload:
    """Picklable result of one parallel task's observability.

    The transport format of the parallel engine: workers ship their
    private :class:`RecordingCollector`'s spans and outcomes plus their
    metrics-registry delta across the process boundary, and the parent
    merges payloads in task order so the combined trace is deterministic
    regardless of scheduling. Span ``start`` values stay process-relative
    — ordering is meaningful within one payload, not across payloads.
    """

    #: Metrics-registry *delta* accumulated while the task ran (what the
    #: worker's registry gained relative to its entry snapshot) — the only
    #: route by which worker counters and histograms reach the parent.
    metrics: MetricsSnapshot
    spans: List[SpanRecord] = field(default_factory=list)
    outcomes: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (self.spans or self.outcomes or not self.metrics.empty)


class Collector(abc.ABC):
    """Sink for spans and benchmark outcomes.

    ``enabled`` is the fast-path switch: when ``False``, instrumentation
    skips timing and never calls the ``record_*`` methods.
    """

    enabled: bool = True

    @abc.abstractmethod
    def record_span(self, record: SpanRecord) -> None:
        """Store one completed span."""

    def record_outcome(self, outcome: Mapping[str, Any]) -> None:
        """Store one benchmark outcome (error-vs-time report row)."""

    def merge(self, payload: TracePayload) -> None:
        """Fold a worker's spans and outcomes into this collector.

        Implemented in terms of the primitive ``record_*`` hooks, so any
        collector (including a disabled one, which drops everything)
        handles payloads from parallel runs. The payload's metrics delta
        is the registry's to merge, not the collector's.
        """
        for span in payload.spans:
            self.record_span(span)
        for outcome in payload.outcomes:
            self.record_outcome(outcome)


class NullCollector(Collector):
    """The zero-overhead default: drops everything, disables timing."""

    enabled = False

    def record_span(self, record: SpanRecord) -> None:  # pragma: no cover
        pass


class RecordingCollector(Collector):
    """Accumulates spans and outcomes in memory.

    Thread-safe: the SparsEst harness and the distributed-sketching helpers
    may record from worker threads.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self.outcomes: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    def record_span(self, record: SpanRecord) -> None:
        with self._lock:
            self.spans.append(record)

    def record_outcome(self, outcome: Mapping[str, Any]) -> None:
        with self._lock:
            self.outcomes.append(dict(outcome))

    def clear(self) -> None:
        """Drop everything recorded so far."""
        with self._lock:
            self.spans.clear()
            self.outcomes.clear()

    def span_names(self) -> List[str]:
        """Distinct span names in first-seen order."""
        with self._lock:
            seen: Dict[str, None] = {}
            for span in self.spans:
                seen.setdefault(span.name, None)
            return list(seen)


# ----------------------------------------------------------------------
# Active-collector management
# ----------------------------------------------------------------------

_ACTIVE: Collector = NullCollector()
_SWAP_LOCK = threading.Lock()


def get_collector() -> Collector:
    """The currently active collector (a :class:`NullCollector` by default)."""
    return _ACTIVE


def set_collector(collector: Collector) -> Collector:
    """Install *collector* as the process-wide sink; returns the previous one."""
    global _ACTIVE
    with _SWAP_LOCK:
        previous = _ACTIVE
        _ACTIVE = collector
    return previous


@contextmanager
def using_collector(collector: Collector) -> Iterator[Collector]:
    """Scoped collector installation::

        collector = RecordingCollector()
        with using_collector(collector):
            run_suite(...)
        print(stats_table(aggregate_spans(collector.spans)))
    """
    previous = set_collector(collector)
    try:
        yield collector
    finally:
        set_collector(previous)
