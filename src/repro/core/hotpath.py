"""Hot-path bookkeeping: cheap counters and the forced-validation switch.

The estimation hot path (sketch construction inside propagation, the
Algorithm 1 kernels, the chain-DP inner loop) runs millions of times per
optimizer invocation, so its bookkeeping must cost next to nothing. This
module keeps two things:

- :data:`HOTPATH` — process-local integer counters (trusted constructions,
  validated constructions, lazily materialized summaries, cached
  zero-vector hits). Incrementing a slot attribute is a few tens of
  nanoseconds and needs no lock for the CPython-atomic += on ints we rely
  on; the counters are mirrored into the active trace collector as
  ``hotpath.*`` counters *only when one is listening*, so ``repro stats``
  surfaces them for traced runs while untraced runs pay a single attribute
  check.
- :func:`validated_scope` — a context manager that routes every
  :meth:`MNCSketch.trusted` construction through the fully validating
  constructor. ``repro.verify`` wraps contract evaluation in it so fuzzing
  retains the invariant checks the fast tier skips, and the equivalence
  tests use it to prove the two tiers are bit-identical.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator

from repro.observability.collector import get_collector

_FIELDS = (
    "trusted_constructions",
    "validated_constructions",
    "summaries_materialized",
    "zero_vector_hits",
)


class HotpathStats:
    """Process-local counters for the estimation hot path."""

    __slots__ = _FIELDS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter (test isolation)."""
        for name in _FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Current counter values as a plain dict."""
        return {name: getattr(self, name) for name in _FIELDS}


#: The process-wide hot-path counters.
HOTPATH = HotpathStats()


def record_trusted_construction() -> None:
    """Count one fast-tier sketch construction (validation skipped)."""
    HOTPATH.trusted_constructions += 1
    collector = get_collector()
    if collector.enabled:
        collector.increment("hotpath.trusted_constructions")


def record_validated_construction() -> None:
    """Count one fully validated sketch construction."""
    HOTPATH.validated_constructions += 1
    collector = get_collector()
    if collector.enabled:
        collector.increment("hotpath.validated_constructions")


def record_summary_materialization() -> None:
    """Count one lazy summary-statistics computation (first access)."""
    HOTPATH.summaries_materialized += 1
    collector = get_collector()
    if collector.enabled:
        collector.increment("hotpath.summaries_materialized")


def record_zero_vector_hit() -> None:
    """Count one ``her_or_zeros``/``hec_or_zeros`` cached-zeros hit."""
    HOTPATH.zero_vector_hits += 1
    collector = get_collector()
    if collector.enabled:
        collector.increment("hotpath.zero_vector_hits")


# ----------------------------------------------------------------------
# Forced validation
# ----------------------------------------------------------------------

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
