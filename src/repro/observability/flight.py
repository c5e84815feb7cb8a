"""Bounded flight recorder: the last-N observability events, dumped on crash.

Traces answer questions about runs you *planned* to inspect; the flight
recorder answers "what was the process doing just before it blew up" for
runs you did not. A fixed-size ring buffer retains the most recent spans,
metric increments, and residual notes at negligible cost, and a
*postmortem* — the ring plus a full metrics snapshot — is written as JSON
when an estimator raises an unexpected exception, a parallel task dies
(:class:`~repro.parallel.engine.TaskFailure`), or a traced span exits with
an error.

Dumps are only written when a destination is **armed**, either via
:meth:`FlightRecorder.arm` or the ``$REPRO_FLIGHT_DUMP`` environment
variable (the CLI's ``--flight-recorder PATH`` sets the former). An
unarmed recorder still maintains the ring so :meth:`postmortem` can be
inspected programmatically.

Event recording is append-to-deque cheap, but it is *not* free, so the
recorder only sees what the observability layer already touches: spans
that were actually timed (tracing enabled, or ``timed_span``), explicit
``count()`` calls, and residual-ledger appends. Hot-path slot bumps
(``METRICS.hotpath``) never reach it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional

from repro.observability import metrics as _metrics

#: Environment variable naming the postmortem destination.
FLIGHT_DUMP_ENV = "REPRO_FLIGHT_DUMP"

#: Default ring size — enough to reconstruct the last few expression
#: estimations without holding a full trace in memory.
DEFAULT_CAPACITY = 256

#: Version stamp on postmortem files (bumped with the snapshot schema).
POSTMORTEM_VERSION = 1


class FlightRecorder:
    """Thread-safe bounded ring of recent observability events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.enabled = True
        self._lock = threading.Lock()
        self._events: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._dump_path: Optional[Path] = None
        self._dumps_written = 0

    # -- arming --------------------------------------------------------

    def arm(self, path: Optional[os.PathLike | str]) -> None:
        """Set (or clear, with ``None``) the postmortem destination."""
        self._dump_path = Path(os.fspath(path)) if path is not None else None

    def armed_path(self) -> Optional[Path]:
        """The active dump destination: armed path, else the environment."""
        if self._dump_path is not None:
            return self._dump_path
        raw = os.environ.get(FLIGHT_DUMP_ENV)
        return Path(raw) if raw else None

    # -- recording -----------------------------------------------------

    def record(
        self,
        kind: str,
        name: str,
        seconds: Optional[float] = None,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append one event to the ring (no-op when disabled)."""
        if not self.enabled:
            return
        event: Dict[str, Any] = {"t": time.time(), "kind": kind, "name": name}
        if seconds is not None:
            event["seconds"] = seconds
        if detail:
            event["detail"] = detail
        with self._lock:
            self._events.append(event)

    def events(self) -> List[Dict[str, Any]]:
        """The retained events, oldest first."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        """Drop all retained events (test isolation)."""
        with self._lock:
            self._events.clear()
        self._dumps_written = 0

    # -- postmortems ---------------------------------------------------

    def postmortem(self, trigger: str, **context: Any) -> Dict[str, Any]:
        """Assemble the crash report: trigger, ring, and metrics snapshot."""
        snapshot = _metrics.metrics_snapshot()
        report: Dict[str, Any] = {
            "version": POSTMORTEM_VERSION,
            "trigger": trigger,
            "pid": os.getpid(),
            "time": time.time(),
            "events": self.events(),
            "metrics": snapshot.to_dict(),
            "residuals": [r.to_dict() for r in snapshot.residuals],
        }
        if context:
            report["context"] = {k: _jsonable(v) for k, v in context.items()}
        return report

    def trigger_dump(self, trigger: str, **context: Any) -> Optional[Path]:
        """Write a postmortem JSON if armed; returns the path written.

        Failures to write are swallowed — the recorder must never turn a
        crash diagnosis into a second crash.
        """
        _metrics.count(f"flight.trigger.{trigger}")
        target = self.armed_path()
        if target is None:
            return None
        try:
            report = self.postmortem(trigger, **context)
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp = target.with_name(target.name + f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(report, indent=2, default=_jsonable))
            os.replace(tmp, target)
        except Exception:  # pragma: no cover - defensive
            return None
        self._dumps_written += 1
        return target


def _jsonable(value: Any) -> Any:
    """Best-effort JSON coercion for arbitrary context values."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


#: The process-wide recorder; forked workers inherit (and re-arm via env).
FLIGHT = FlightRecorder()

# Let the metrics registry mirror increments/residuals into the ring
# without importing this module (breaking the cycle metrics -> flight).
_metrics.attach_flight(FLIGHT)
