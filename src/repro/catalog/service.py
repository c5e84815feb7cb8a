"""The :class:`EstimationService` facade: register once, estimate many times.

The paper's serving story — compute the MNC sketch once (possibly on a
cluster), then consult it throughout optimization — becomes an object here:

>>> service = EstimationService()                    # MNC by default
>>> service.register(matrix_x, name="X")
>>> cold = service.estimate(expr)                    # builds + caches
>>> warm = service.estimate(rebuilt_expr)            # pure cache hits
>>> warm["cached"]
True

The service composes the three catalog tables:

- leaf sketches live in a byte-budgeted :class:`~repro.catalog.store.SketchStore`
  (the canonical, persistable artifacts — warm-startable from a catalog
  directory, spillable to disk);
- propagated synopses and root results live in an
  :class:`~repro.catalog.memo.EstimateMemo` keyed on
  ``(fingerprint, estimator, tag)``, so structurally identical sub-DAGs are
  estimated once *across* requests, not just within one DAG walk;
- fingerprints come from :mod:`repro.catalog.fingerprint` and are purely
  structural, so a rebuilt-but-identical expression hits every cache.

One caveat worth knowing: cache identity is the estimator's ``name``. Two
instances of the same estimator class configured differently (e.g. density
maps with different block sizes) share a name — give them separate services
rather than sharing one catalog.
"""

from __future__ import annotations

import tempfile
import threading
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.catalog.fingerprint import (
    delta_fingerprint,
    fingerprint_dag,
    fingerprint_expr,
    fingerprint_matrix,
)
from repro.catalog.memo import EstimateMemo
from repro.catalog.store import SketchStore
from repro.core.sketch import MNCSketch
from repro.errors import ReproError, SketchError
from repro.estimators.base import SparsityEstimator, Synopsis, make_estimator
from repro.estimators.mnc import MNCEstimator, MNCSynopsis
from repro.estimators.spec import AUTO_NAME, EstimatorSpec
from repro.ir.nodes import Expr
from repro.matrix.conversion import MatrixLike
from repro.observability.recording import unwrap_estimator
from repro.observability.metrics import count
from repro.observability.trace import timed_span
from repro.opcodes import Op
from repro.parallel.engine import WorkerPool, resolve_workers, run_tasks
from repro.parallel.spill import PortableDag, load_dag, spill_dag


@dataclass(frozen=True)
class ServiceRequest:
    """One unit of :class:`EstimationService` work, for :meth:`~EstimationService.submit`.

    The request object is the service's single entry-point API: the three
    historical call shapes — one expression, a batch of expressions, a
    matrix-chain optimization — are ``kind`` values of the same request
    type, built with the :meth:`estimate`, :meth:`batch`, and
    :meth:`chain` constructors.
    """

    kind: str  # "estimate" | "estimate_many" | "optimize_chain"
    exprs: Tuple[Expr, ...] = ()
    matrices: Tuple[MatrixLike, ...] = ()
    include_intermediates: bool = False
    workers: Optional[int] = None
    rng: Any = None
    #: Per-request estimator override (``None`` = the service's own). An
    #: ``auto`` spec routes the request through the adaptive router.
    estimator: Optional[EstimatorSpec] = None

    @classmethod
    def estimate(
        cls,
        expr: Expr,
        *,
        include_intermediates: bool = False,
        estimator: Union[EstimatorSpec, str, Mapping, None] = None,
        tolerance: Optional[float] = None,
    ) -> "ServiceRequest":
        """Estimate one expression root."""
        return cls(kind="estimate", exprs=(expr,),
                   include_intermediates=include_intermediates,
                   estimator=_request_spec(estimator, tolerance))

    @classmethod
    def batch(
        cls,
        exprs: Sequence[Expr],
        *,
        workers: Optional[int] = None,
        estimator: Union[EstimatorSpec, str, Mapping, None] = None,
        tolerance: Optional[float] = None,
    ) -> "ServiceRequest":
        """Estimate a batch of expression roots, optionally in parallel."""
        return cls(kind="estimate_many", exprs=tuple(exprs), workers=workers,
                   estimator=_request_spec(estimator, tolerance))

    @classmethod
    def chain(cls, matrices: Sequence[MatrixLike], *, rng: Any = None,
              workers: Optional[int] = None) -> "ServiceRequest":
        """Sparsity-aware matrix-chain optimization."""
        return cls(kind="optimize_chain", matrices=tuple(matrices), rng=rng,
                   workers=workers)


def _request_spec(
    estimator: Union[EstimatorSpec, str, Mapping, None],
    tolerance: Optional[float],
) -> Optional[EstimatorSpec]:
    """Parse a per-request estimator override; a bare *tolerance* implies
    ``estimator="auto"`` (tolerance is a routing concept)."""
    if estimator is None and tolerance is None:
        return None
    default = AUTO_NAME if tolerance is not None else "mnc"
    return EstimatorSpec.parse(estimator, tolerance=tolerance, default=default)


class EstimationService:
    """Memoized sparsity estimation over a shared sketch catalog.

    Args:
        estimator: a registered estimator name, an
            :class:`~repro.estimators.spec.EstimatorSpec` (or the dict/str
            forms it parses — ``"auto"`` selects adaptive routing), or an
            estimator instance (default MNC).
        store: sketch store to use/share (any object speaking the
            :class:`SketchStore` protocol, including
            :class:`~repro.catalog.sharded.ShardedSketchStore`); a fresh
            in-memory :class:`SketchStore` by default.
        memo: result memo to use/share; fresh by default.
        pool: persistent :class:`~repro.parallel.engine.WorkerPool` for
            parallel batches; ``None`` keeps the historical per-call pool.
        policy: learned :class:`~repro.router.RoutingPolicy` for
            ``estimator="auto"``; defaults to the policy persisted next to
            the store's spill directory (when any), else a fresh one.
    """

    def __init__(
        self,
        estimator: Union[str, Mapping, EstimatorSpec, SparsityEstimator] = "mnc",
        store: Optional[SketchStore] = None,
        memo: Optional[EstimateMemo] = None,
        pool: Optional[WorkerPool] = None,
        policy: Optional["RoutingPolicy"] = None,
    ):
        self.store = store if store is not None else SketchStore()
        self.memo = memo if memo is not None else EstimateMemo()
        self.pool = pool
        self.router = None
        self.spec: Optional[EstimatorSpec] = None
        if isinstance(estimator, SparsityEstimator):
            self.estimator = estimator
        else:
            spec = EstimatorSpec.parse(estimator)
            self.spec = spec
            if spec.is_auto:
                from repro.router import AdaptiveRouter, RoutingPolicy

                if policy is None:
                    policy = RoutingPolicy.load(
                        getattr(self.store, "spill_dir", None)
                    )
                self.router = AdaptiveRouter.from_spec(spec, policy=policy)
                # Registration and chain optimization still go through the
                # canonical MNC sketch (the store's shareable artifact);
                # only estimation requests are routed.
                self.estimator = make_estimator("mnc")
            else:
                self.estimator = spec.make()
        #: Logical name -> fingerprint for matrices registered with a name.
        self.names: Dict[str, str] = {}
        # Counter lock: services are shared across server threads, and
        # unsynchronized += would drop increments under contention.
        self._counter_lock = threading.Lock()
        self._requests = 0
        self._hits = 0
        #: Per-request estimator overrides resolve to cached sibling
        #: services sharing this one's store/memo/pool/names.
        self._derived: Dict[str, "EstimationService"] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, matrix: MatrixLike, name: Optional[str] = None) -> str:
        """Fingerprint *matrix* and cache its leaf synopsis eagerly.

        Returns the fingerprint; with *name* given, the mapping is kept in
        :attr:`names` so later calls can resolve the logical name.
        """
        fingerprint = fingerprint_matrix(matrix)
        if name is not None:
            self.names[name] = fingerprint
        if self._builds_canonical_sketch(self.estimator):
            self.sketch_for(matrix)
        else:
            key = self._estimator_key(self.estimator)
            if self.memo.get(fingerprint, key, "synopsis") is None:
                self.memo.put(
                    fingerprint, key, "synopsis", self.estimator.build(matrix)
                )
        return fingerprint

    def register_sketched(
        self,
        matrix: MatrixLike,
        sketch: MNCSketch,
        name: Optional[str] = None,
    ) -> str:
        """Register *matrix* with a pre-built *sketch* as its leaf synopsis.

        The distributed-ingest entry point: when shards were sketched
        remotely and merged via :mod:`repro.core.distributed`, the merged
        sketch — not a locally rebuilt one — must be what estimation sees,
        because merging drops extension vectors along the merge axis and a
        rebuild would silently answer with different (tighter) bounds than
        the distributed pipeline that produced the catalog. The sketch is
        stored under the matrix's structural fingerprint unconditionally,
        replacing any cached sketch for the same non-zero pattern.
        """
        if sketch.shape != tuple(int(d) for d in matrix.shape):
            raise SketchError(
                f"sketch shape {sketch.shape} does not match matrix shape "
                f"{tuple(matrix.shape)}"
            )
        fingerprint = fingerprint_matrix(matrix)
        if name is not None:
            self.names[name] = fingerprint
        self.store.put(fingerprint, sketch)
        count("catalog.service.register_sketched")
        return fingerprint

    def sketch_for(self, matrix: MatrixLike) -> MNCSketch:
        """The canonical MNC sketch of *matrix*, built at most once.

        Goes through the store, so repeated calls — and the chain optimizer
        wired through :func:`~repro.optimizer.mmchain.optimize_chain_matrices`
        — reuse one sketch per distinct non-zero pattern.
        """
        fingerprint = fingerprint_matrix(matrix)
        sketch = self.store.get(fingerprint)
        if sketch is None:
            sketch = MNCSketch.from_matrix(matrix)
            self.store.put(fingerprint, sketch)
        return sketch

    def resolve(self, name: str) -> str:
        """Fingerprint registered under logical *name*."""
        try:
            return self.names[name]
        except KeyError:
            raise SketchError(f"no matrix registered under name {name!r}") from None

    def apply_update(self, name: str, incremental, delta) -> str:
        """Apply a streaming *delta* to the matrix registered as *name*.

        *incremental* is the caller-owned
        :class:`~repro.core.incremental.IncrementalSketch` tracking the
        matrix's structure. The delta is applied, the logical name is
        rebound to the delta-chained fingerprint (``O(|delta|)``, no
        structural rehash), and the old fingerprint is invalidated —
        including, via the memo's dependency index, every memoized result
        derived from the old structure, while entries over untouched
        leaves survive (partial invalidation). Returns the new
        fingerprint; the patched sketch is stored under it eagerly.
        """
        from repro.core.incremental import apply_update as _apply

        old_fingerprint = self.resolve(name)
        _apply(incremental, delta)
        new_fingerprint = delta_fingerprint(old_fingerprint, delta)
        self.store.discard(old_fingerprint)
        self.memo.invalidate(fingerprint=old_fingerprint)
        self.names[name] = new_fingerprint
        if self._builds_canonical_sketch(self.estimator):
            self.store.put(new_fingerprint, incremental.sketch())
        count("catalog.service.updates")
        return new_fingerprint

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------

    def submit(self, request: ServiceRequest) -> Any:
        """Execute one :class:`ServiceRequest` — the single entry point the
        historical ``estimate`` / ``estimate_many`` / ``optimize_chain``
        methods now delegate to.

        Returns the result dict for ``"estimate"``, a list of result dicts
        for ``"estimate_many"``, and the optimizer's plan object for
        ``"optimize_chain"``.
        """
        if request.estimator is not None:
            service = self._service_for(request.estimator)
            request = replace(request, estimator=None)
            if service is not self:
                return service.submit(request)
        count(f"catalog.service.requests.{request.kind}")
        if request.kind == "estimate":
            if len(request.exprs) != 1:
                raise ReproError(
                    "an 'estimate' request carries exactly one expression; "
                    f"got {len(request.exprs)} (use ServiceRequest.batch)"
                )
            return self._estimate_one(
                request.exprs[0],
                include_intermediates=request.include_intermediates,
            )
        if request.kind == "estimate_many":
            return self._estimate_batch(request.exprs, workers=request.workers)
        if request.kind == "optimize_chain":
            from repro.optimizer.mmchain import optimize_chain_matrices

            return optimize_chain_matrices(
                request.matrices, rng=request.rng, catalog=self,
                workers=request.workers,
            )
        raise ReproError(f"unknown ServiceRequest kind {request.kind!r}")

    def _service_for(self, spec: EstimatorSpec) -> "EstimationService":
        """The service answering requests for *spec*: this one when the
        spec matches, else a cached sibling sharing store/memo/pool/names
        (so every cross-estimator cache layer stays shared)."""
        if self.spec is not None and spec == self.spec:
            return self
        derived = self._derived.get(spec.key)
        if derived is None:
            shared_policy = None
            if spec.is_auto:
                # All auto routes against one service share one policy, no
                # matter which tolerance each request asked for.
                routers = [self.router] + [
                    d.router for d in self._derived.values()
                ]
                for router in routers:
                    if router is not None:
                        shared_policy = router.policy
                        break
            derived = EstimationService(
                estimator=spec, store=self.store, memo=self.memo,
                pool=self.pool, policy=shared_policy,
            )
            derived.names = self.names
            self._derived[spec.key] = derived
        return derived

    def estimate(
        self, expr: Expr, include_intermediates: bool = False
    ) -> Dict[str, Any]:
        """Estimate the root sparsity of *expr*, reusing every cached piece.

        Returns the :func:`~repro.ir.estimate.estimate_dag` result dict plus
        ``fingerprint`` (the root's structural fingerprint) and ``cached``
        (``True`` when the root estimate itself was memoized — the warm
        path performs no synopsis work at all).
        """
        return self.submit(ServiceRequest.estimate(
            expr, include_intermediates=include_intermediates
        ))

    def _estimate_one(
        self, expr: Expr, include_intermediates: bool = False
    ) -> Dict[str, Any]:
        from repro.ir.estimate import estimate_dag

        if self.router is not None:
            return self._estimate_routed(
                expr, include_intermediates=include_intermediates
            )
        root_fingerprint = fingerprint_expr(expr)
        estimator_key = self._estimator_key(self.estimator)
        with self._counter_lock:
            self._requests += 1
        with timed_span(
            "catalog.service.estimate", estimator=estimator_key
        ) as span:
            nnz = (
                None
                if include_intermediates
                else self.memo.get(root_fingerprint, estimator_key, "nnz")
            )
            intermediates = None
            if nnz is None:
                full = estimate_dag(
                    expr,
                    self.estimator,
                    include_intermediates=include_intermediates,
                    catalog=self,
                )
                nnz = full["nnz"]
                intermediates = full.get("intermediates")
                self.memo.put(
                    root_fingerprint, estimator_key, "nnz", nnz,
                    depends_on=_leaf_fingerprints(expr),
                )
                cached = False
                count("catalog.service.miss")
            else:
                with self._counter_lock:
                    self._hits += 1
                cached = True
                count("catalog.service.hit")
            span.annotate(cached=cached, result_nnz=float(nnz))
        m, n = expr.shape
        result: Dict[str, Any] = {
            "nnz": nnz,
            "sparsity": nnz / (m * n) if m and n else 0.0,
            "seconds": span.seconds,
            "fingerprint": root_fingerprint,
            "cached": cached,
        }
        if intermediates is not None:
            result["intermediates"] = intermediates
        return result

    def _estimate_routed(
        self, expr: Expr, include_intermediates: bool = False
    ) -> Dict[str, Any]:
        """Adaptive-router analogue of the single-expression path.

        Memoizes ``(nnz, router payload)`` under the spec's canonical key
        with the ``"route"`` tag, so an ``auto`` request at one tolerance
        never answers a request at another.
        """
        root_fingerprint = fingerprint_expr(expr)
        estimator_key = self.spec.key
        with self._counter_lock:
            self._requests += 1
        with timed_span(
            "catalog.service.estimate", estimator=estimator_key
        ) as span:
            cached_value = (
                None
                if include_intermediates
                else self.memo.get(root_fingerprint, estimator_key, "route")
            )
            intermediates = None
            if cached_value is None:
                nnz, decision = self.router.route(expr, catalog=self)
                router_meta = decision.to_payload()
                self.memo.put(
                    root_fingerprint, estimator_key, "route",
                    (nnz, router_meta), depends_on=_leaf_fingerprints(expr),
                )
                cached = False
                count("catalog.service.miss")
                if include_intermediates:
                    from repro.ir.estimate import estimate_dag

                    tier_estimator = self.router.make_tier_estimator(
                        expr, decision.tier
                    )
                    full = estimate_dag(
                        expr, tier_estimator, include_intermediates=True
                    )
                    intermediates = full.get("intermediates")
            else:
                nnz, router_meta = cached_value
                with self._counter_lock:
                    self._hits += 1
                cached = True
                count("catalog.service.hit")
            span.annotate(cached=cached, result_nnz=float(nnz))
        m, n = expr.shape
        result: Dict[str, Any] = {
            "nnz": nnz,
            "sparsity": nnz / (m * n) if m and n else 0.0,
            "seconds": span.seconds,
            "fingerprint": root_fingerprint,
            "cached": cached,
            "router": dict(router_meta),
        }
        if intermediates is not None:
            result["intermediates"] = intermediates
        return result

    def estimate_many(
        self, exprs: Sequence[Expr], workers: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Batched :meth:`estimate`.

        Serial batches (``workers`` unset/1) reuse synopses and results
        cached by earlier expressions in the batch. With ``workers > 1``,
        uncached roots fan out to worker processes over the shared-spill
        protocol: leaf matrices and resident sketches travel once through
        the catalog directory (the store's spill dir, or a temporary one),
        each worker rebuilds its expressions against a warm-started store,
        and root results flow back into this service's memo. Workers
        estimate with independent copies of the estimator, so estimators
        that consume randomness across calls (e.g. MNC's probabilistic
        rounding) may round differently than a serial batch would — results
        are deterministic for any fixed worker count > 1.
        """
        return self.submit(ServiceRequest.batch(exprs, workers=workers))

    def _estimate_batch(
        self, exprs: Sequence[Expr], workers: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        exprs = list(exprs)
        workers = resolve_workers(workers)
        with timed_span(
            "catalog.service.batch", size=len(exprs), workers=workers
        ):
            if workers <= 1 or len(exprs) <= 1:
                return [self._estimate_one(expr) for expr in exprs]
            return self._estimate_batch_parallel(exprs, workers)

    def _estimate_batch_parallel(
        self, exprs: List[Expr], workers: int
    ) -> List[Dict[str, Any]]:
        """Fan uncached roots out to worker processes via shared spill."""
        routed = self.router is not None
        tag = "route" if routed else "nnz"
        estimator_key = (
            self.spec.key if routed else self._estimator_key(self.estimator)
        )
        results: List[Optional[Dict[str, Any]]] = [None] * len(exprs)
        pending: List[Tuple[int, Expr, str]] = []
        for i, expr in enumerate(exprs):
            fingerprint = fingerprint_expr(expr)
            value = self.memo.get(fingerprint, estimator_key, tag)
            if value is None:
                pending.append((i, expr, fingerprint))
                continue
            # Warm path: answer from the parent memo without shipping.
            with self._counter_lock:
                self._requests += 1
                self._hits += 1
            count("catalog.service.hit")
            nnz, router_meta = value if routed else (value, None)
            m, n = expr.shape
            results[i] = {
                "nnz": nnz,
                "sparsity": nnz / (m * n) if m and n else 0.0,
                "seconds": 0.0,
                "fingerprint": fingerprint,
                "cached": True,
            }
            if router_meta is not None:
                results[i]["router"] = dict(router_meta)
        if not pending:
            return [result for result in results if result is not None]
        if len(pending) == 1:
            index, expr, _ = pending[0]
            results[index] = self._estimate_one(expr)
            return [result for result in results if result is not None]

        directory = self.store.spill_dir
        cleanup = None
        if directory is None:
            cleanup = tempfile.TemporaryDirectory(prefix="repro-spill-")
            directory = cleanup.name
        try:
            # Resident sketches travel to workers through the directory
            # (store.persist is a no-op for non-sketch estimators' services,
            # whose state lives in the memo instead).
            if len(self.store):
                self.store.persist(directory)
            portables = [
                (spill_dag(expr, directory), fingerprint)
                for _, expr, fingerprint in pending
            ]
            if routed:
                # Workers route against the frozen policy snapshot this
                # service would use, so parallel and serial batches take
                # bit-identical routes.
                shipped: Any = (
                    _AUTO_TASK, self.spec, self.router.policy.snapshot()
                )
            else:
                shipped = self.estimator
            tasks = [
                (shipped, str(directory), portable)
                for portable, _ in portables
            ]
            task_results = run_tasks(
                _estimate_worker, tasks, workers=workers,
                label="catalog.service.fanout", pool=self.pool,
            )
            for (index, expr, fingerprint), outcome in zip(pending, task_results):
                if not outcome.ok:
                    # Worker died: recover deterministically in-process
                    # (_estimate_one does its own counting and memoization).
                    count("catalog.service.fanout_retries")
                    results[index] = self._estimate_one(expr)
                    continue
                with self._counter_lock:
                    self._requests += 1
                count("catalog.service.miss")
                result = dict(outcome.value)
                value = (
                    (result["nnz"], result["router"]) if routed
                    else result["nnz"]
                )
                self.memo.put(
                    fingerprint, estimator_key, tag, value,
                    depends_on=_leaf_fingerprints(expr),
                )
                results[index] = result
        finally:
            if cleanup is not None:
                cleanup.cleanup()
        return [result for result in results if result is not None]

    def optimize_chain(self, matrices: Sequence[MatrixLike], rng=None,
                       workers: Optional[int] = None):
        """Sparsity-aware chain optimization over catalog-cached sketches."""
        return self.submit(ServiceRequest.chain(
            matrices, rng=rng, workers=workers
        ))

    # ------------------------------------------------------------------
    # Catalog protocol (used by repro.ir.estimate during DAG walks)
    # ------------------------------------------------------------------

    def node_synopsis_get(
        self, fingerprint: str, node: Expr, estimator: SparsityEstimator
    ) -> Optional[Synopsis]:
        """Cached synopsis for a DAG node, or ``None``."""
        key = self._estimator_key(estimator)
        synopsis = self.memo.get(fingerprint, key, "synopsis")
        if synopsis is not None:
            return synopsis
        if node.op is Op.LEAF and self._builds_canonical_sketch(estimator):
            sketch = self.store.get(fingerprint)
            if sketch is not None:
                return MNCSynopsis(sketch)
        return None

    def node_synopsis_put(
        self,
        fingerprint: str,
        node: Expr,
        estimator: SparsityEstimator,
        synopsis: Synopsis,
    ) -> None:
        """Cache a freshly built/propagated synopsis for a DAG node.

        Canonical leaf sketches go to the byte-budgeted store (persistable,
        spillable); everything else — propagated synopses and non-MNC leaf
        synopses — goes to the entry-bounded memo.
        """
        if (
            node.op is Op.LEAF
            and self._builds_canonical_sketch(estimator)
            and isinstance(synopsis, MNCSynopsis)
        ):
            self.store.put(fingerprint, synopsis.sketch)
            return
        self.memo.put(
            fingerprint, self._estimator_key(estimator), "synopsis", synopsis,
            depends_on=(
                _leaf_fingerprints(node) if node.op is not Op.LEAF else None
            ),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def warm(self, directory) -> List[str]:
        """Warm-start the store from a catalog directory of sketch files.

        A routing policy persisted alongside the sketches
        (``routing_policy.json``) is folded into the active router's
        policy, so routing keeps improving across sessions.
        """
        loaded = self.store.warm_start(directory)
        router = self._router()
        if router is not None:
            from repro.router import RoutingPolicy

            persisted = RoutingPolicy.load(str(directory))
            if persisted is not None:
                router.policy.merge(persisted)
        return loaded

    def persist(self, directory=None) -> int:
        """Write resident sketches out as a catalog directory (plus the
        routing policy, when this service routes). Returns the number of
        sketches written."""
        written = self.store.persist(directory)
        router = self._router()
        if router is not None:
            target = directory if directory is not None else getattr(
                self.store, "spill_dir", None
            )
            if target is not None:
                router.policy.save(str(target))
        return written

    def _router(self):
        """The active router: this service's, or the first derived one."""
        if self.router is not None:
            return self.router
        for derived in self._derived.values():
            if derived.router is not None:
                return derived.router
        return None

    def invalidate(self, target: Union[str, MatrixLike]) -> None:
        """Forget everything cached for a matrix, fingerprint, or name."""
        if isinstance(target, str):
            fingerprint = self.names.get(target, target)
        else:
            fingerprint = fingerprint_matrix(target)
        self.store.discard(fingerprint)
        self.memo.invalidate(fingerprint=fingerprint)

    def clear(self) -> None:
        """Drop all cached sketches and results (names are kept)."""
        self.store.clear()
        self.memo.clear()

    def stats(self) -> Dict[str, Any]:
        """Combined service/store/memo cache-effectiveness counters.

        Requests answered by derived (per-request estimator) siblings are
        folded in; a ``router`` section appears whenever adaptive routing
        is active on this service or any sibling.
        """
        requests = self._requests + sum(
            d._requests for d in self._derived.values()
        )
        hits = self._hits + sum(d._hits for d in self._derived.values())
        payload: Dict[str, Any] = {
            "service": {
                "requests": requests,
                "hits": hits,
                "hit_rate": hits / requests if requests else 0.0,
            },
            "store": self.store.stats().as_dict(),
            "memo": self.memo.stats(),
        }
        router = self._router()
        if router is not None:
            payload["router"] = router.describe()
        return payload

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _estimator_key(estimator: SparsityEstimator) -> str:
        return estimator.name

    @staticmethod
    def _builds_canonical_sketch(estimator: SparsityEstimator) -> bool:
        """Whether *estimator* builds the full-extension MNC leaf sketch the
        store treats as the canonical shareable artifact."""
        inner = unwrap_estimator(estimator)
        return isinstance(inner, MNCEstimator) and getattr(
            inner, "use_extensions", False
        )


def _leaf_fingerprints(expr: Expr) -> Tuple[str, ...]:
    """Distinct leaf fingerprints under *expr*, in first-visit order.

    The memo's ``depends_on`` payload: a streaming delta to any one of
    these leaves invalidates exactly the results derived from it. Cheap on
    the hot path — every per-node digest is already memoized on the Expr
    objects by :func:`fingerprint_dag`.
    """
    fingerprints = fingerprint_dag(expr)
    return tuple(
        dict.fromkeys(fingerprints[id(leaf)] for leaf in expr.leaves())
    )


#: Sentinel heading the shipped-estimator tuple for routed fan-out tasks.
_AUTO_TASK = "__auto__"


def _estimate_worker(
    task: Tuple[Any, str, PortableDag]
) -> Dict[str, Any]:
    """Worker entry point for the parallel ``estimate_many`` path.

    Rebuilds one spilled expression against a store warm-started from the
    shared catalog directory, estimates it with a private service, and
    returns the plain result dict. Routed tasks ship
    ``(_AUTO_TASK, spec, policy snapshot)`` in the estimator slot; the
    worker routes against that frozen snapshot, never its own ledger, so
    its route matches what the parent would have taken serially.
    """
    estimator, directory, portable = task
    store = SketchStore(spill_dir=directory)
    store.warm_start(directory)
    if isinstance(estimator, tuple) and estimator and estimator[0] == _AUTO_TASK:
        from repro.router import RoutingPolicy

        _, spec, policy_snapshot = estimator
        service = EstimationService(
            estimator=spec, store=store,
            policy=RoutingPolicy.from_snapshot(policy_snapshot),
        )
    else:
        service = EstimationService(estimator=estimator, store=store)
    expr = load_dag(portable, directory)
    return service._estimate_one(expr)
