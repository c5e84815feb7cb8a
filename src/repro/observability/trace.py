"""The span API: ``trace`` context manager/decorator and the shared timer.

``trace("name", key=value)`` marks a span. With the default
:class:`~repro.observability.collector.NullCollector` it performs one
attribute check and *no* clock reads, so it is safe to leave in hot paths
(sketch construction runs millions of times in the DP benchmarks).

For the *hottest* paths even allocating the span object and its attribute
dict is measurable, so two zero-overhead forms exist:

- :func:`tracing_enabled` — one global read plus an attribute check;
  kernels branch on it and only build span attributes (and enter the
  span) when a collector is actually listening. The recorded-trace schema
  is unchanged: when tracing is on, exactly the same spans with the same
  names and attributes are produced.
- :func:`maybe_trace` — drop-in for ``with trace(...)`` call sites:
  returns a shared inert span (``annotate`` is a no-op, no clock reads,
  no allocation) when nothing is listening, a real :class:`trace`
  otherwise.

:class:`timed_span` is the shared timer: it always reads the clock and
exposes ``.seconds`` after exit, replacing the ad-hoc ``perf_counter``
pairs that used to live in the SparsEst runner and the DAG estimator —
and it additionally records a span whenever a collector is listening.

Spans are all this module records. Counters and histograms are written
with :func:`repro.observability.metrics.count` and
:func:`~repro.observability.metrics.observe`, which go to the metrics
registry whether or not a collector is listening.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, List, Optional, TypeVar

from repro.observability.collector import SpanRecord, get_collector
from repro.observability.flight import FLIGHT

F = TypeVar("F", bound=Callable[..., Any])

_LOCAL = threading.local()


def _span_stack() -> List[str]:
    try:
        return _LOCAL.stack
    except AttributeError:
        _LOCAL.stack = []
        return _LOCAL.stack


class trace:
    """A named span, usable as a context manager or a decorator.

    Context manager::

        with trace("mnc.estimate.matmul", shape=(m, l)) as span:
            nnz = ...
            span.annotate(result_nnz=nnz)

    Decorator (a fresh span per call)::

        @trace("executor.decide")
        def plan_allocation(...): ...

    Attributes set after exit:
        seconds: elapsed wall time, or ``None`` when nothing was listening
            (subclasses may always time, see :class:`timed_span`).
    """

    __slots__ = ("name", "attrs", "seconds", "_collector", "_start", "_depth")

    #: Subclass hook: read the clock even without an enabled collector.
    _always_time = False

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.attrs = attrs
        self.seconds: Optional[float] = None
        self._collector = None
        self._start: Optional[float] = None
        self._depth = 0

    def annotate(self, **attrs: Any) -> None:
        """Attach additional attributes (e.g. results known only mid-span)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "trace":
        collector = get_collector()
        if collector.enabled:
            self._collector = collector
            stack = _span_stack()
            self._depth = len(stack)
            stack.append(self.name)
            self._start = time.perf_counter()
        elif self._always_time:
            self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if self._start is not None:
            self.seconds = time.perf_counter() - self._start
            if exc_type is not None:
                # Exception-safe spans: the record survives, flagged, and
                # the flight recorder captures a postmortem. Only spans
                # that were actually observed (traced or timed) reach
                # here — a disabled plain ``trace`` stays zero-cost.
                self.attrs["error"] = exc_type.__name__
                FLIGHT.record(
                    "span_error", self.name, seconds=self.seconds,
                    detail={"error": exc_type.__name__},
                )
                FLIGHT.trigger_dump(
                    "span_error", span=self.name,
                    error=exc_type.__name__, message=str(exc),
                )
            elif FLIGHT.enabled:
                FLIGHT.record("span", self.name, seconds=self.seconds)
        collector = self._collector
        if collector is not None:
            self._collector = None
            stack = _span_stack()
            if stack and stack[-1] == self.name:
                stack.pop()
            collector.record_span(SpanRecord(
                name=self.name,
                start=self._start,
                seconds=self.seconds,
                depth=self._depth,
                attrs=dict(self.attrs),
            ))
        return False

    def __call__(self, fn: F) -> F:
        name, attrs, cls = self.name, self.attrs, type(self)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with cls(name, **attrs):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]


class timed_span(trace):
    """A span that always times, even under the :class:`NullCollector`.

    The shared timer for harness code that needs elapsed wall time *as
    data* (the paper's M2 metric) regardless of whether a trace is being
    collected: ``.seconds`` is guaranteed to be set after exit.
    """

    __slots__ = ()

    _always_time = True


class _NullSpan:
    """Shared inert span: no clock reads, no state, no allocation per use."""

    __slots__ = ()

    seconds: Optional[float] = None
    name = "<null>"
    attrs: dict = {}

    def annotate(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


#: The singleton inert span returned by :func:`maybe_trace` when disabled.
NULL_SPAN = _NullSpan()


def tracing_enabled() -> bool:
    """Whether the active collector is listening (hot-path fast guard).

    Kernels use this to skip span construction entirely::

        if tracing_enabled():
            with trace("mnc.estimate.matmul", ...) as span:
                ...
        else:
            ...  # identical body, zero instrumentation cost
    """
    return get_collector().enabled


def maybe_trace(name: str, **attrs: Any):
    """``trace(name, **attrs)`` when a collector listens, else the shared
    inert span. Preserves the recorded-trace schema while reducing the
    disabled-path cost to one function call."""
    if get_collector().enabled:
        return trace(name, **attrs)
    return NULL_SPAN

