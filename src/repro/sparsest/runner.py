"""SparsEst execution harness.

Runs estimators over use-case DAGs, computes ground truth once per distinct
expression structure (memoized on catalog fingerprints, so truths survive
expression rebuilds across seeds), and reports the paper's M1/M2 metrics.
Estimators that cannot express an operation (e.g. the layered graph on
element-wise operations, Table 1) yield an ``unsupported`` outcome, which
the report renders as the "x" the paper's figures show. Estimators whose
synopsis would exceed a configurable memory budget (the paper's
out-of-memory bitset cases) yield ``oom``.

The one entry point is :func:`execute`: it takes self-describing, picklable
:class:`EstimationRequest` objects and returns :class:`EstimationResult`
objects in request order, optionally fanning independent requests out to a
process pool (``workers``, default ``$REPRO_WORKERS`` or serial). The
legacy ``run_use_case`` / ``run_repeated`` / ``run_estimators`` signatures
remain as deprecation shims over it.

Determinism contract: a request whose ``estimator`` is a registry *name*
is materialized as a fresh, identically-configured instance per request,
in workers and in the serial path alike — so ``workers=N`` produces
bit-identical estimates to ``workers=1`` for any N (wall-clock ``seconds``
are physical measurements and naturally vary; compare outcomes with
:meth:`EstimateOutcome.deterministic_key`). Requests carrying estimator
*instances* (the shim path) share that instance's state across cells
exactly as the old API did, and therefore always run serially.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.catalog.fingerprint import fingerprint_expr
from repro.catalog.memo import EstimateMemo
from repro.errors import EstimatorOptionError, UnsupportedOperationError
from repro.estimators.base import SparsityEstimator
from repro.estimators.spec import AUTO_NAME, EstimatorSpec
from repro.estimators.bitset import BitsetEstimator
from repro.ir.estimate import estimate_root_nnz
from repro.ir.interpreter import evaluate
from repro.ir.nodes import Expr
from repro.observability.collector import get_collector
from repro.observability.metrics import count, observe, record_residual
from repro.observability.recording import unwrap_estimator
from repro.observability.trace import timed_span
from repro.opcodes import Op
from repro.parallel.engine import resolve_workers, run_tasks
from repro.sparsest.metrics import aggregate_relative_error, relative_error
from repro.sparsest.usecases import UseCase, get_use_case

#: Default synopsis budget: a bitset beyond this is treated as OOM, mirroring
#: the paper's 8 TB / 7.8 TB bitset failures at benchmark scale.
DEFAULT_MEMORY_BUDGET_BYTES = 2 * 1024**3

# Keyed by structural expression fingerprints (not object identity), so a
# ground truth computed for one DAG instance is reused when the expression
# is rebuilt — e.g. across per-seed reconstructions at the same scale. The
# memo is LRU-bounded, so long sweeps cannot grow it without limit.
_TRUTH_MEMO = EstimateMemo(max_entries=4096)

#: Estimator key under which ground truths are memoized.
_TRUTH_KEY = "exact"


@dataclass(frozen=True)
class EstimateOutcome:
    """Result of one (use case, estimator) execution."""

    use_case: str
    estimator: str
    true_nnz: float
    estimated_nnz: float
    relative_error: float
    seconds: float
    status: str  # "ok" | "unsupported" | "oom" | "failed"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def deterministic_key(self) -> tuple:
        """Everything but wall time: the fields a parallel run reproduces
        bit-identically. Two runs of the same request agree on this key
        regardless of worker count; ``seconds`` is a physical measurement
        and is excluded. NaN placeholders (unsupported/OOM cells) are
        mapped to a comparable sentinel, since ``nan != nan`` would make
        such outcomes never equal their own reproduction."""
        def comparable(value: float):
            return "nan" if math.isnan(value) else value

        return (
            self.use_case, self.estimator, comparable(self.true_nnz),
            comparable(self.estimated_nnz), comparable(self.relative_error),
            self.status,
        )


@dataclass(frozen=True)
class EstimationRequest:
    """Self-describing, picklable unit of SparsEst work.

    Args:
        use_case: use-case id (e.g. ``"B2.3"``, preferred) or a
            :class:`UseCase` instance (accepted for ad-hoc cases outside
            the registry; forces serial execution).
        estimator: registry name or ``"auto"`` (preferred — materialized
            fresh per request, safe to ship to workers), an
            :class:`~repro.estimators.spec.EstimatorSpec`, or a live
            estimator instance (legacy shims; forces serial execution,
            shares state across requests).
        estimator_options: deprecated — fold options into an
            :class:`EstimatorSpec` instead. Still honored: constructor
            keyword arguments for name-based estimators, as a sorted
            tuple of ``(key, value)`` pairs.
        scale: use-case dimension scale.
        seed: base data seed (also the adaptive router's base seed for
            ``"auto"`` requests).
        repetitions: > 1 aggregates seeds ``seed .. seed+repetitions-1``
            with the paper's additive rule (Section 5); a single
            unsupported/OOM repetition short-circuits.
        memory_budget_bytes: bitset OOM threshold.
        tolerance: maximum relative interval width for ``"auto"``
            requests; rejected for concrete estimators.
    """

    use_case: Union[str, UseCase]
    estimator: Union[str, EstimatorSpec, SparsityEstimator]
    estimator_options: Tuple[Tuple[str, Any], ...] = ()
    scale: float = 1.0
    seed: int = 0
    repetitions: int = 1
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES
    tolerance: Optional[float] = None

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError(
                f"repetitions must be positive, got {self.repetitions}"
            )
        if self.estimator_options:
            warnings.warn(
                "EstimationRequest.estimator_options is deprecated; pass an "
                "EstimatorSpec with options as the estimator instead",
                DeprecationWarning,
                stacklevel=3,
            )
        if self.tolerance is not None and not self.is_auto:
            raise EstimatorOptionError(
                "'tolerance' is only meaningful with estimator='auto' "
                f"(got estimator={self.estimator_label!r})"
            )

    @property
    def is_auto(self) -> bool:
        """Whether this request routes through the adaptive router."""
        if isinstance(self.estimator, EstimatorSpec):
            return self.estimator.is_auto
        return self.estimator == AUTO_NAME if isinstance(self.estimator, str) else False

    @property
    def portable(self) -> bool:
        """Whether this request can be shipped to a worker process: both
        the use case and the estimator are registry references (or a
        picklable spec), so the worker reconstructs them instead of
        sharing live objects."""
        return isinstance(self.estimator, (str, EstimatorSpec)) and isinstance(
            self.use_case, str
        )

    def resolve_use_case(self) -> UseCase:
        if isinstance(self.use_case, str):
            return get_use_case(self.use_case)
        return self.use_case

    @property
    def use_case_id(self) -> str:
        return self.use_case if isinstance(self.use_case, str) else self.use_case.id

    def estimator_spec(self) -> EstimatorSpec:
        """This request's estimator as a unified :class:`EstimatorSpec`.

        Only meaningful for name/spec requests (``portable`` ones); folds
        the deprecated ``estimator_options`` tuple and the request-level
        ``tolerance`` into the spec, and defaults the router seed for
        ``"auto"`` requests to the request's data ``seed`` so routed runs
        are reproducible from the request alone.
        """
        if isinstance(self.estimator, SparsityEstimator):
            raise EstimatorOptionError(
                "estimator instances have no spec; pass a registry name or "
                "an EstimatorSpec"
            )
        if isinstance(self.estimator, EstimatorSpec):
            spec = self.estimator
        else:
            spec = EstimatorSpec.parse(self.estimator)
        if self.estimator_options:
            merged = dict(spec.options_dict())
            merged.update(dict(self.estimator_options))
            spec = replace(spec, options=tuple(sorted(merged.items())))
        if self.tolerance is not None and spec.tolerance is None:
            spec = replace(spec, tolerance=self.tolerance)
        if spec.is_auto and spec.seed is None:
            spec = replace(spec, seed=self.seed)
        return spec

    def materialize_estimator(self) -> SparsityEstimator:
        """A fresh estimator for this request (instances pass through).

        Name/spec-based estimators are wrapped in the telemetry proxy when
        a collector is listening, matching what the CLI does for instances.
        ``"auto"`` requests have no single estimator — they are routed per
        cell by :func:`execute_request` instead.
        """
        if isinstance(self.estimator, SparsityEstimator):
            return self.estimator
        estimator = self.estimator_spec().make()
        if get_collector().enabled:
            from repro.observability.recording import RecordingEstimator

            return RecordingEstimator(estimator)
        return estimator

    @property
    def estimator_label(self) -> str:
        """Display name used in failed-outcome rows."""
        if isinstance(self.estimator, str):
            return self.estimator
        return self.estimator.name


@dataclass(frozen=True)
class EstimationResult:
    """One executed request: its outcome, plus the crash report if the
    request failed instead of completing."""

    request: EstimationRequest
    outcome: EstimateOutcome
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.outcome.ok


def _record_outcome(outcome: EstimateOutcome) -> EstimateOutcome:
    """Report *outcome* to the active collector (error-vs-time telemetry)
    and to the process-wide metrics registry / residual ledger.

    Ground truth is computed for every cell anyway (the paper's M1 needs
    it), so each ``ok`` outcome becomes an accuracy residual for free;
    failed/unsupported/OOM cells only bump status counters.
    """
    collector = get_collector()
    if collector.enabled:
        collector.record_outcome(asdict(outcome))
    count(f"sparsest.outcomes.{outcome.status}")
    if outcome.ok:
        record_residual(
            source="sparsest",
            estimator=outcome.estimator,
            workload=outcome.use_case,
            op="dag",
            estimate=outcome.estimated_nnz,
            truth=outcome.true_nnz,
            seconds=outcome.seconds,
        )
        observe("sparsest.seconds", outcome.seconds)
    return outcome


def true_nnz_of(root: Expr) -> float:
    """Ground-truth non-zero count of a DAG root.

    Memoized on the expression's structural fingerprint: rebuilding the
    same expression (even from different objects, as the per-seed use-case
    builders do) reuses the evaluated truth instead of re-running the full
    sparse computation.
    """
    fingerprint = fingerprint_expr(root)
    return _TRUTH_MEMO.memoize(
        fingerprint, _TRUTH_KEY, "nnz", lambda: float(evaluate(root).nnz)
    )


def _bitset_would_oom(root: Expr, budget_bytes: int) -> bool:
    """Whether any node's bitset synopsis exceeds the memory budget."""
    for node in root.postorder():
        m, n = node.shape
        if m * n / 8 > budget_bytes:
            return True
    return False


# ----------------------------------------------------------------------
# Execution core
# ----------------------------------------------------------------------

def _run_cell(
    use_case: UseCase,
    estimator: SparsityEstimator,
    scale: float,
    seed: int,
    memory_budget_bytes: int,
) -> EstimateOutcome:
    """One (use case, estimator, seed) cell — the paper's M1/M2 probe.

    The reported time covers synopsis construction, propagation, and root
    estimation (the paper's M2 "total estimation time").
    """
    root = use_case.build(scale=scale, seed=seed)
    truth = true_nnz_of(root)
    if isinstance(unwrap_estimator(estimator), BitsetEstimator) and (
        _bitset_would_oom(root, memory_budget_bytes)
    ):
        return _record_outcome(EstimateOutcome(
            use_case.id, estimator.name, truth, math.nan, math.inf, 0.0, "oom"
        ))
    with timed_span(
        "sparsest.run", use_case=use_case.id, estimator=estimator.name
    ) as span:
        try:
            estimate = estimate_root_nnz(root, estimator)
        except UnsupportedOperationError:
            return _record_outcome(EstimateOutcome(
                use_case.id, estimator.name, truth, math.nan, math.inf, 0.0,
                "unsupported",
            ))
    seconds = span.seconds
    error = relative_error(truth, estimate)
    return _record_outcome(EstimateOutcome(
        use_case.id, estimator.name, truth, estimate, error, seconds, "ok"
    ))


#: Outcome label for adaptively routed cells (the router picks a concrete
#: tier per cell; the aggregate row is labelled by the routing mode).
AUTO_LABEL = "Auto"


def _run_cell_routed(
    use_case: UseCase,
    router: Any,
    scale: float,
    seed: int,
) -> EstimateOutcome:
    """One routed (use case, seed) cell: the adaptive router starts at the
    cheapest admissible tier and escalates until the uncertainty width
    clears its tolerance.

    Besides the usual ``sparsest``-sourced residual (labelled
    ``AUTO_LABEL``), the cell credits a ``router``-sourced residual to the
    *chosen tier's* estimator label — that is the feedback signal
    :meth:`repro.router.RoutingPolicy.sync_from_registry` consumes to
    tighten or widen per-tier error bands over time.
    """
    root = use_case.build(scale=scale, seed=seed)
    truth = true_nnz_of(root)
    with timed_span(
        "sparsest.run", use_case=use_case.id, estimator=AUTO_LABEL
    ) as span:
        try:
            nnz, decision = router.route(root, workload=use_case.id)
        except UnsupportedOperationError:
            return _record_outcome(EstimateOutcome(
                use_case.id, AUTO_LABEL, truth, math.nan, math.inf, 0.0,
                "unsupported",
            ))
    seconds = span.seconds
    record_residual(
        source="router",
        estimator=decision.estimator,
        workload=use_case.id,
        op="dag",
        estimate=nnz,
        truth=truth,
        seconds=seconds,
    )
    error = relative_error(truth, nnz)
    return _record_outcome(EstimateOutcome(
        use_case.id, AUTO_LABEL, truth, nnz, error, seconds, "ok"
    ))


def execute_request(request: EstimationRequest) -> EstimateOutcome:
    """Execute one request to completion (the worker entry point).

    Single-repetition requests return the cell outcome directly; repeated
    requests aggregate per-seed outcomes with the paper's additive rule
    ("we additively aggregate ... and compute the final error as
    max(S, s*n) / min(S, s*n)"), with timings summed and a single
    unsupported/OOM repetition short-circuiting.

    ``"auto"`` requests route each cell through a fresh
    :class:`~repro.router.AdaptiveRouter` built from the request's spec.
    The router's policy starts empty (never synced mid-request), so a
    worker process and the serial path make identical tier choices.
    """
    use_case = request.resolve_use_case()
    if request.is_auto:
        from repro.router import AdaptiveRouter

        router = AdaptiveRouter.from_spec(request.estimator_spec())

        def cell(seed: int) -> EstimateOutcome:
            return _run_cell_routed(use_case, router, request.scale, seed)
    else:
        estimator = request.materialize_estimator()

        def cell(seed: int) -> EstimateOutcome:
            return _run_cell(
                use_case, estimator, request.scale, seed,
                request.memory_budget_bytes,
            )

    if request.repetitions == 1:
        return cell(request.seed)
    true_counts: List[float] = []
    estimates: List[float] = []
    seconds = 0.0
    label = request.estimator_label
    for seed in range(request.seed, request.seed + request.repetitions):
        outcome = cell(seed)
        if not outcome.ok:
            return outcome
        label = outcome.estimator
        true_counts.append(outcome.true_nnz)
        estimates.append(outcome.estimated_nnz)
        seconds += outcome.seconds
    return EstimateOutcome(
        use_case.id, label,
        sum(true_counts), sum(estimates),
        aggregate_relative_error(true_counts, estimates),
        seconds, "ok",
    )


def _failed_outcome(request: EstimationRequest) -> EstimateOutcome:
    return EstimateOutcome(
        request.use_case_id, request.estimator_label,
        math.nan, math.nan, math.inf, 0.0, "failed",
    )


def execute(
    requests: Sequence[EstimationRequest],
    *,
    workers: Optional[int] = None,
    on_error: str = "capture",
) -> List[EstimationResult]:
    """Execute *requests* and return results in request order.

    Args:
        requests: independent work items.
        workers: process count; ``None`` reads ``$REPRO_WORKERS``
            (default 1 — serial, deterministic, unchanged trace output).
            The pool is only used when every request is portable
            (name-based estimator); instance-carrying batches fall back to
            serial execution to preserve shared-state semantics.
        on_error: ``"capture"`` converts exceptions — including hard
            worker deaths in pool mode — into results with
            ``status="failed"`` and the crash text in ``error``;
            ``"raise"`` propagates the first exception (serial only, the
            legacy shim behavior).

    Returns:
        One :class:`EstimationResult` per request, in request order.
    """
    if on_error not in ("capture", "raise"):
        raise ValueError(f"on_error must be 'capture' or 'raise', got {on_error!r}")
    requests = list(requests)
    workers = resolve_workers(workers)
    parallel = (
        workers > 1
        and len(requests) > 1
        and all(request.portable for request in requests)
    )
    if not parallel:
        results: List[EstimationResult] = []
        for request in requests:
            if on_error == "raise":
                results.append(EstimationResult(request, execute_request(request)))
                continue
            try:
                results.append(EstimationResult(request, execute_request(request)))
            except Exception as exc:  # noqa: BLE001 - mirrored pool semantics
                results.append(EstimationResult(
                    request, _failed_outcome(request),
                    error=f"{type(exc).__name__}: {exc}",
                ))
        return results

    task_results = run_tasks(
        execute_request, requests, workers=workers, label="sparsest.execute"
    )
    results = []
    for request, task in zip(requests, task_results):
        if task.ok:
            results.append(EstimationResult(request, task.value))
        else:
            results.append(EstimationResult(
                request, _failed_outcome(request), error=str(task.failure)
            ))
    return results


def execute_outcomes(
    requests: Sequence[EstimationRequest],
    *,
    workers: Optional[int] = None,
) -> List[EstimateOutcome]:
    """:func:`execute`, unwrapped to the outcome list most callers want."""
    return [result.outcome for result in execute(requests, workers=workers)]


def requests_for(
    use_cases: Sequence[Union[UseCase, str]],
    estimators: Sequence[str],
    *,
    scale: float = 1.0,
    seed: int = 0,
    repetitions: int = 1,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
    tolerance: Optional[float] = None,
) -> List[EstimationRequest]:
    """Cartesian (use case x estimator) request list, use-case-major —
    the same cell order the legacy ``run_estimators`` produced.

    *tolerance* applies to ``"auto"`` entries only (concrete estimators
    reject it, so a mixed sweep keeps working).
    """
    return [
        EstimationRequest(
            use_case=case if isinstance(case, str) else case.id,
            estimator=name,
            scale=scale,
            seed=seed,
            repetitions=repetitions,
            memory_budget_bytes=memory_budget_bytes,
            tolerance=tolerance if name == AUTO_NAME else None,
        )
        for case in use_cases
        for name in estimators
    ]


# ----------------------------------------------------------------------
# Deprecated wrappers (the pre-request API)
# ----------------------------------------------------------------------

def _deprecated(old: str) -> None:
    warnings.warn(
        f"{old} is deprecated; build EstimationRequest objects and call "
        f"repro.sparsest.runner.execute instead",
        DeprecationWarning,
        stacklevel=3,
    )


def run_use_case(
    use_case: UseCase,
    estimator: SparsityEstimator,
    scale: float = 1.0,
    seed: int = 0,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
) -> EstimateOutcome:
    """Deprecated: one estimator on one use case (see :func:`execute`)."""
    _deprecated("run_use_case")
    request = EstimationRequest(
        use_case=use_case, estimator=estimator, scale=scale, seed=seed,
        memory_budget_bytes=memory_budget_bytes,
    )
    return execute([request], workers=1, on_error="raise")[0].outcome


def run_repeated(
    use_case: UseCase,
    estimator: SparsityEstimator,
    repetitions: int = 20,
    scale: float = 1.0,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
) -> EstimateOutcome:
    """Deprecated: aggregate *repetitions* seeds (see :func:`execute`)."""
    _deprecated("run_repeated")
    request = EstimationRequest(
        use_case=use_case, estimator=estimator, repetitions=repetitions,
        scale=scale, memory_budget_bytes=memory_budget_bytes,
    )
    return execute([request], workers=1, on_error="raise")[0].outcome


def run_estimators(
    use_cases: Sequence[UseCase],
    estimators: Iterable[SparsityEstimator],
    scale: float = 1.0,
    seed: int = 0,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
) -> List[EstimateOutcome]:
    """Deprecated: cartesian run of estimators over use cases (see
    :func:`execute`)."""
    _deprecated("run_estimators")
    requests = [
        EstimationRequest(
            use_case=use_case, estimator=estimator, scale=scale,
            seed=seed, memory_budget_bytes=memory_budget_bytes,
        )
        for use_case in use_cases
        for estimator in estimators
    ]
    return [
        result.outcome
        for result in execute(requests, workers=1, on_error="raise")
    ]


def supports_use_case(estimator: SparsityEstimator, root: Expr) -> bool:
    """Static capability check: does *estimator* implement every operation
    appearing in the DAG (propagation for inner nodes, estimation for the
    root)?"""
    for node in root.postorder():
        if node.op is Op.LEAF:
            continue
        if node is root:
            if not estimator.supports(node.op):
                return False
        elif not estimator.supports_propagation(node.op):
            return False
    return True


def clear_truth_cache() -> None:
    """Drop memoized ground-truth counts (mainly for tests)."""
    _TRUTH_MEMO.clear()
