"""The forced-validation switch for the estimation hot path.

:func:`validated_scope` is a context manager that routes every
:meth:`MNCSketch.trusted` construction through the fully validating
constructor. ``repro.verify`` wraps contract evaluation in it so fuzzing
retains the invariant checks the fast tier skips, and the equivalence
tests use it to prove the two tiers are bit-identical.

The hot path's counters (trusted and validated constructions, lazily
materialized summaries, cached zero-vector hits) are integer slots on
:attr:`repro.observability.metrics.METRICS.hotpath`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

_FORCE = threading.local()


def validation_forced() -> bool:
    """Whether :meth:`MNCSketch.trusted` must validate in this thread."""
    return getattr(_FORCE, "depth", 0) > 0


@contextmanager
def validated_scope() -> Iterator[None]:
    """Route all trusted constructions through full validation.

    Re-entrant and per-thread. Used by ``repro.verify`` (contracts always
    run against validated sketches) and by the trusted-vs-validated
    equivalence tests.
    """
    _FORCE.depth = getattr(_FORCE, "depth", 0) + 1
    try:
        yield
    finally:
        _FORCE.depth -= 1
