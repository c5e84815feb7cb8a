"""Allocation decisions and their regret.

An ML runtime pre-allocates each operation's output from the *estimated*
sparsity: it chooses a format and sizes the buffer. Both failure modes the
paper names are measurable:

- **over-allocation** ("wrong dense allocation of truly sparse outputs"):
  allocated bytes exceed what the true count needed;
- **under-allocation** ("wrong sparse allocation ... of truly dense
  outputs"): the buffer is too small and the runtime must reallocate and
  copy mid-operation.

:func:`plan_allocation` turns one (estimate, truth) pair into a decision
record; :class:`AllocationReport` aggregates records across a whole DAG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.observability.metrics import count, observe, record_residual
from repro.runtime.formats import (
    MatrixFormat,
    choose_format,
    memory_bytes,
    optimal_memory_bytes,
)


@dataclass(frozen=True)
class AllocationDecision:
    """One output-allocation decision and its evaluation against truth."""

    label: str
    shape: tuple[int, int]
    estimated_nnz: float
    true_nnz: float
    chosen_format: MatrixFormat
    optimal_format: MatrixFormat
    allocated_bytes: float
    required_bytes: float
    optimal_bytes: float

    @property
    def format_correct(self) -> bool:
        """Whether the estimator picked the format truth would pick."""
        return self.chosen_format is self.optimal_format

    @property
    def over_allocated_bytes(self) -> float:
        """Bytes allocated beyond what the truth-optimal layout needs
        (e.g. a dense buffer for a truly sparse output)."""
        return max(0.0, self.allocated_bytes - self.optimal_bytes)

    @property
    def under_allocated_bytes(self) -> float:
        """Missing bytes that force a mid-operation reallocation."""
        return max(0.0, self.required_bytes - self.allocated_bytes)

    @property
    def regret_bytes(self) -> float:
        """Bytes beyond the optimal allocation (waste plus the cost of
        growing an undersized buffer to the required size)."""
        return max(self.allocated_bytes, self.required_bytes) - self.optimal_bytes


def plan_allocation(
    label: str,
    shape: tuple[int, int],
    estimated_nnz: float,
    true_nnz: float,
    *,
    estimator: Optional[str] = None,
) -> AllocationDecision:
    """Make the allocation decision an estimator's output would cause.

    The format is chosen from the *estimated* sparsity, the buffer sized
    for the *estimated* count in that format; requirements are evaluated at
    the true count in the chosen format, and the optimum at the true count
    in the truth-optimal format.

    Every decision feeds the metrics registry: regret becomes a
    first-class ``runtime.regret_bytes`` observation (with over-/under-
    allocation and wrong-format counters), and the (estimate, truth) pair
    joins the accuracy residual ledger under ``source="allocator"`` —
    tagged with *estimator* when the caller knows which estimator produced
    the estimate.
    """
    m, n = shape
    cells = max(m * n, 1)
    estimated_nnz = min(max(estimated_nnz, 0.0), float(m * n))
    chosen = choose_format(estimated_nnz / cells if m and n else 0.0)
    optimal = choose_format(true_nnz / cells if m and n else 0.0)
    allocated = memory_bytes(m, n, estimated_nnz, chosen)
    required = memory_bytes(m, n, true_nnz, chosen)
    optimal_bytes = optimal_memory_bytes(m, n, true_nnz)
    decision = AllocationDecision(
        label=label, shape=(m, n),
        estimated_nnz=estimated_nnz, true_nnz=true_nnz,
        chosen_format=chosen, optimal_format=optimal,
        allocated_bytes=allocated, required_bytes=required,
        optimal_bytes=optimal_bytes,
    )
    count("runtime.allocations")
    observe("runtime.regret_bytes", decision.regret_bytes)
    if decision.over_allocated_bytes:
        count("runtime.over_allocated_bytes", decision.over_allocated_bytes)
    if decision.under_allocated_bytes:
        count(
            "runtime.under_allocated_bytes", decision.under_allocated_bytes
        )
    if not decision.format_correct:
        count("runtime.wrong_format")
    record_residual(
        source="allocator",
        estimator=estimator or "unknown",
        workload=label,
        op="alloc",
        estimate=estimated_nnz,
        truth=true_nnz,
    )
    return decision


@dataclass
class AllocationReport:
    """Aggregate decision quality over a set of operations."""

    decisions: List[AllocationDecision] = field(default_factory=list)

    def add(self, decision: AllocationDecision) -> None:
        """Record one decision."""
        self.decisions.append(decision)

    @property
    def total(self) -> int:
        return len(self.decisions)

    @property
    def wrong_format_count(self) -> int:
        """Operations where the estimator chose the wrong format."""
        return sum(1 for d in self.decisions if not d.format_correct)

    @property
    def over_allocated_bytes(self) -> float:
        return sum(d.over_allocated_bytes for d in self.decisions)

    @property
    def under_allocated_bytes(self) -> float:
        return sum(d.under_allocated_bytes for d in self.decisions)

    @property
    def regret_bytes(self) -> float:
        return sum(d.regret_bytes for d in self.decisions)

    @property
    def optimal_bytes(self) -> float:
        return sum(d.optimal_bytes for d in self.decisions)

    @property
    def regret_ratio(self) -> float:
        """Total regret relative to the optimal allocation (0 is perfect)."""
        if self.optimal_bytes == 0:
            return 0.0
        return self.regret_bytes / self.optimal_bytes
