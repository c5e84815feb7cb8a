"""Tests for the parallel execution engine and its integration points:
the pool engine itself (repro.parallel.engine), DAG spilling
(repro.parallel.spill), the request-based SparsEst API, the service's
parallel batch path, and the fuzz engine's chunked fan-out.

The expensive guarantees (workers=4 vs serial bit-identity over the full
suite, the speedup threshold) live in benchmarks/bench_parallel.py; here
we pin the same contracts on small inputs plus the failure-isolation
behavior a benchmark cannot exercise.
"""

from __future__ import annotations

import os

import pytest

from repro.catalog import EstimationService, ServiceRequest, SketchStore
from repro.errors import ReproError
from repro.estimators.mnc import MNCEstimator
from repro.ir.interpreter import evaluate
from repro.ir.nodes import leaf, matmul, transpose
from repro.matrix.random import random_sparse
from repro.observability.collector import RecordingCollector, using_collector
from repro.observability.metrics import (
    METRICS,
    count,
    record_residual,
)
from repro.parallel.engine import (
    WORKERS_ENV,
    TaskFailure,
    map_values,
    resolve_workers,
    run_tasks,
)
from repro.parallel.spill import load_dag, spill_dag
from repro.sparsest.runner import (
    EstimationRequest,
    execute,
    execute_outcomes,
    requests_for,
    run_use_case,
)
from repro.sparsest.usecases import get_use_case
from repro.verify.engine import FuzzEngine


# ----------------------------------------------------------------------
# Module-level task functions (workers must be able to import them).
# ----------------------------------------------------------------------

def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def _die_on_two(x):
    if x == 2:
        os._exit(13)  # hard death: no exception, no cleanup
    return x


def _bump_metric(x):
    count("test.pmerge.counter")
    record_residual(
        source="pmerge", estimator="E", workload=f"t{x}", op="op",
        estimate=float(x), truth=float(x),
    )
    return x


def _bump_then_fail(x):
    count("test.pfail.counter")
    if x == 3:
        raise ValueError("three is right out")
    return x


def _bump_or_die(x):
    if x == 2:
        os._exit(13)
    count("test.pcrash.counter")
    return x


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------

class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert resolve_workers(3) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5

    def test_unset_env_means_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_malformed_env_ignored(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "lots")
        assert resolve_workers(None) == 1

    def test_clamps_to_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1


class TestRunTasks:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_results_in_task_order(self, workers):
        results = run_tasks(_square, list(range(8)), workers=workers)
        assert [r.index for r in results] == list(range(8))
        assert all(r.ok for r in results)
        assert [r.value for r in results] == [i * i for i in range(8)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exception_becomes_failure_not_raise(self, workers):
        results = run_tasks(_fail_on_three, [1, 2, 3, 4], workers=workers)
        assert [r.ok for r in results] == [True, True, False, True]
        failure = results[2].failure
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "ValueError"
        assert "three" in failure.message

    def test_hard_worker_death_surfaces_as_failure(self):
        # os._exit kills the worker without raising; the pool reports
        # BrokenProcessPool. The engine must convert that into failed
        # results and still return a complete, ordered list — not hang.
        results = run_tasks(_die_on_two, [1, 2, 3, 4], workers=2)
        assert len(results) == 4
        assert any(
            not r.ok and r.failure.kind == "BrokenProcessPool" for r in results
        )

    def test_map_values_raises_on_failure(self):
        assert map_values(_square, [1, 2, 3], workers=1) == [1, 4, 9]
        with pytest.raises(RuntimeError, match="parallel task 2 failed"):
            map_values(_fail_on_three, [1, 2, 3], workers=1)

    def test_worker_traces_merge_into_parent(self):
        baseline = METRICS.snapshot()
        collector = RecordingCollector()
        with using_collector(collector):
            requests = requests_for(["B1.1"], ["mnc", "meta_wc"], scale=0.05)
            execute_outcomes(requests, workers=2)
        names = [span.name for span in collector.spans]
        assert "sparsest.execute" in names
        assert names.count("sparsest.run") == 2  # one per cell, from workers
        assert len(collector.outcomes) == 2
        delta = METRICS.snapshot().delta_since(baseline)
        assert delta.counters.get("parallel.pool_runs") == 1

    def test_traced_and_untraced_runs_add_identical_counters(self):
        # Worker counters reach the parent only through the payload's
        # metrics delta, so tracing must not change what the registry
        # gains — and must not count a worker counter twice.
        requests = requests_for(["B1.1"], ["mnc", "meta_wc"], scale=0.05)
        execute_outcomes(requests, workers=2)  # warm the dataset caches

        def run(collector):
            baseline = METRICS.snapshot()
            if collector is None:
                execute_outcomes(requests, workers=2)
            else:
                with using_collector(collector):
                    execute_outcomes(requests, workers=2)
            return METRICS.snapshot().delta_since(baseline)

        untraced = run(None)
        collector = RecordingCollector()
        traced = run(collector)
        assert traced.counters == untraced.counters
        assert {
            name: state["count"] for name, state in traced.histograms.items()
        } == {
            name: state["count"] for name, state in untraced.histograms.items()
        }
        assert traced.counters["parallel.tasks"] == 2.0
        assert traced.counters["sparsest.outcomes.ok"] == 2.0
        assert traced.counters["residual.count.sparsest.MNC"] == 1.0
        assert traced.counters["hotpath.validated_constructions"] >= 1.0
        names = [span.name for span in collector.spans]
        assert names.count("sparsest.run") == 2
        assert len(collector.outcomes) == 2


# ----------------------------------------------------------------------
# Metric merge-back (PR 6): worker deltas fold into the parent registry
# ----------------------------------------------------------------------

class TestMetricMergeBack:
    def _counter(self, name):
        return METRICS.snapshot().counters.get(name, 0.0)

    def test_worker_metric_deltas_merge_in_task_order(self):
        before = self._counter("test.pmerge.counter")
        seen_before = len(METRICS.residuals())
        results = run_tasks(_bump_metric, list(range(4)), workers=2)
        assert all(r.ok for r in results)
        assert self._counter("test.pmerge.counter") - before == 4.0
        # Residual ledger entries arrive in task order — deterministic
        # regardless of which worker finished first.
        tail = METRICS.residuals()[seen_before:]
        assert [r.workload for r in tail if r.source == "pmerge"] == [
            "t0", "t1", "t2", "t3",
        ]

    def test_merged_totals_identical_across_runs(self):
        first = self._counter("test.pmerge.counter")
        run_tasks(_bump_metric, list(range(5)), workers=3)
        second = self._counter("test.pmerge.counter")
        run_tasks(_bump_metric, list(range(5)), workers=3)
        third = self._counter("test.pmerge.counter")
        assert second - first == third - second == 5.0

    def test_failed_tasks_still_ship_their_metrics(self):
        # An in-worker exception is caught as a TaskFailure; the metric
        # delta accumulated before the raise still merges back.
        before = self._counter("test.pfail.counter")
        results = run_tasks(_bump_then_fail, [1, 2, 3, 4], workers=2)
        assert [r.ok for r in results] == [True, True, False, True]
        assert self._counter("test.pfail.counter") - before == 4.0

    def test_crashed_workers_contribute_nothing(self):
        # A hard worker death ships no payload: the merged snapshot is
        # exactly the sum of the tasks that completed (ok or failed),
        # never a corrupt partial state.
        before = self._counter("test.pcrash.counter")
        results = run_tasks(_bump_or_die, [1, 2, 3, 4], workers=2)
        assert len(results) == 4
        merged = self._counter("test.pcrash.counter") - before
        survivors = sum(1 for r in results if r.ok)
        assert merged == float(survivors)
        assert merged < 4.0  # the dead task really contributed nothing

    def test_serial_path_writes_metrics_directly(self):
        before = self._counter("test.pmerge.counter")
        run_tasks(_bump_metric, [7], workers=1)
        assert self._counter("test.pmerge.counter") - before == 1.0


# ----------------------------------------------------------------------
# SparsEst request API
# ----------------------------------------------------------------------

class TestExecuteDeterminism:
    def test_parallel_outcomes_bit_identical_to_serial(self):
        requests = requests_for(
            ["B1.1", "B1.2"], ["mnc", "sampling", "meta_wc"], scale=0.05,
        )
        serial = execute_outcomes(requests, workers=1)
        parallel = execute_outcomes(requests, workers=4)
        assert (
            [o.deterministic_key() for o in serial]
            == [o.deterministic_key() for o in parallel]
        )

    def test_unknown_estimator_fails_without_poisoning_batch(self):
        requests = [
            EstimationRequest(use_case="B1.1", estimator="mnc", scale=0.05),
            EstimationRequest(use_case="B1.1", estimator="no_such", scale=0.05),
        ]
        for workers in (1, 2):
            results = execute(requests, workers=workers)
            assert results[0].ok
            assert not results[1].ok
            assert results[1].outcome.status == "failed"
            assert "no_such" in results[1].error

    def test_instance_requests_never_pooled(self):
        # An estimator instance cannot be reconstructed in a worker; the
        # batch must silently run serially and still produce results.
        request = EstimationRequest(
            use_case="B1.1", estimator=MNCEstimator(), scale=0.05,
        )
        results = execute([request, request], workers=4)
        assert all(r.ok for r in results)

    def test_repetitions_must_be_positive(self):
        with pytest.raises(ValueError, match="repetitions"):
            EstimationRequest(use_case="B1.1", estimator="mnc", repetitions=0)

    def test_estimator_options_forwarded(self):
        request = EstimationRequest(
            use_case="B1.1", estimator="mnc",
            estimator_options=(("use_extensions", False),), scale=0.05,
        )
        assert execute([request])[0].ok

    def test_legacy_shim_warns_and_matches_execute(self):
        case = get_use_case("B1.1")
        with pytest.warns(DeprecationWarning, match="run_use_case"):
            old = run_use_case(case, MNCEstimator(), scale=0.05)
        new = execute_outcomes(
            [EstimationRequest(use_case="B1.1", estimator="mnc", scale=0.05)]
        )[0]
        assert old.deterministic_key() == new.deterministic_key()


# ----------------------------------------------------------------------
# DAG spill
# ----------------------------------------------------------------------

class TestSpill:
    def test_roundtrip_preserves_structure_and_sharing(self, tmp_path):
        a = random_sparse(30, 20, 0.2, seed=5)
        shared = leaf(a, name="A")
        root = matmul(shared, transpose(shared))
        portable = spill_dag(root, tmp_path)
        # One distinct leaf → one spilled file, one fingerprint.
        assert len(set(portable.leaf_keys)) == 1
        rebuilt = load_dag(portable, tmp_path)
        assert rebuilt.op is root.op
        assert rebuilt.shape == root.shape
        assert abs(evaluate(rebuilt) - evaluate(root)).nnz == 0
        # Post-order sharing: both children resolve to the same object.
        assert rebuilt.inputs[0] is rebuilt.inputs[1].inputs[0]

    def test_missing_leaf_raises(self, tmp_path):
        a = random_sparse(10, 10, 0.3, seed=6)
        portable = spill_dag(leaf(a), tmp_path)
        for spilled in (tmp_path / "leaves").glob("*.npz"):
            spilled.unlink()
        with pytest.raises(ReproError, match="missing"):
            load_dag(portable, tmp_path)


# ----------------------------------------------------------------------
# Service submit / parallel batch
# ----------------------------------------------------------------------

class TestServiceSubmit:
    def _exprs(self, count=3):
        mats = [random_sparse(40, 30, 0.15, seed=i) for i in range(count)]
        other = random_sparse(30, 25, 0.2, seed=99)
        return [matmul(leaf(m), leaf(other)) for m in mats]

    def test_submit_dispatches_estimate(self):
        expr = self._exprs(1)[0]
        service = EstimationService()
        answer = service.submit(ServiceRequest.estimate(expr))
        assert answer["nnz"] == service.estimate(expr)["nnz"]

    def test_submit_rejects_unknown_kind(self):
        with pytest.raises(ReproError, match="unknown"):
            EstimationService().submit(ServiceRequest(kind="transmogrify"))

    def test_submit_estimate_requires_single_expr(self):
        with pytest.raises(ReproError):
            EstimationService().submit(ServiceRequest(kind="estimate", exprs=()))

    def test_parallel_batch_matches_serial(self, tmp_path):
        exprs = self._exprs(3)
        serial = EstimationService(
            store=SketchStore(spill_dir=tmp_path / "serial")
        ).estimate_many(exprs, workers=1)
        parallel = EstimationService(
            store=SketchStore(spill_dir=tmp_path / "parallel")
        ).estimate_many(exprs, workers=2)
        assert [a["nnz"] for a in serial] == [a["nnz"] for a in parallel]
        assert [a["fingerprint"] for a in serial] == [
            a["fingerprint"] for a in parallel
        ]

    def test_parallel_batch_populates_parent_memo(self):
        exprs = self._exprs(2)
        service = EstimationService()
        service.estimate_many(exprs, workers=2)
        again = service.estimate_many(exprs, workers=2)
        assert all(answer["cached"] for answer in again)


# ----------------------------------------------------------------------
# Fuzz engine chunking
# ----------------------------------------------------------------------

class TestFuzzEngineWorkers:
    CELLS = ["mnc:*:*"]

    def test_report_independent_of_worker_count(self):
        def run(workers):
            return FuzzEngine(
                budget=6, seed=3, cell_patterns=self.CELLS, workers=workers,
            ).run()

        serial, parallel = run(1), run(2)
        assert serial.checked == parallel.checked
        assert serial.skipped == parallel.skipped
        assert set(serial.cells) == set(parallel.cells)
        assert serial.summary_rows() == parallel.summary_rows()

    def test_zero_budget_still_lists_cells(self):
        report = FuzzEngine(
            budget=0, seed=0, cell_patterns=self.CELLS, workers=2,
        ).run()
        assert report.cells
        assert report.checked == 0


# ----------------------------------------------------------------------
# Keyword-only estimator construction
# ----------------------------------------------------------------------

class TestKeywordOnlySignatures:
    def test_positional_construction_rejected(self):
        from repro.estimators.bitset import BitsetEstimator
        from repro.estimators.density_map import DensityMapEstimator
        from repro.estimators.hashing import HashEstimator
        from repro.estimators.layered_graph import LayeredGraphEstimator
        from repro.estimators.quadtree import QuadTreeEstimator

        for cls, arg in [
            (MNCEstimator, True),
            (BitsetEstimator, "vectorized"),
            (DensityMapEstimator, 64),
            (QuadTreeEstimator, 64),
            (LayeredGraphEstimator, 2),
            (HashEstimator, 1024),
        ]:
            with pytest.raises(TypeError):
                cls(arg)

    def test_keyword_construction_accepted(self):
        assert MNCEstimator(use_extensions=False, seed=1).name == "MNC"


class TestWorkerPool:
    """Persistent executor reuse (the serving tier's amortization hook)."""

    def test_pool_reused_across_run_tasks_calls(self):
        from repro.parallel.engine import WorkerPool

        with WorkerPool(workers=2) as pool:
            first = run_tasks(_square, [1, 2, 3, 4], pool=pool)
            executor = pool._executor
            assert executor is not None
            second = run_tasks(_square, [5, 6, 7, 8], pool=pool)
            assert pool._executor is executor  # same executor, no respawn
        assert [r.value for r in first] == [1, 4, 9, 16]
        assert [r.value for r in second] == [25, 36, 49, 64]

    def test_pool_workers_supply_default_count(self):
        from repro.parallel.engine import WorkerPool

        with WorkerPool(workers=2) as pool:
            results = run_tasks(_square, [1, 2, 3], pool=pool)
        assert all(result.ok for result in results)

    def test_broken_pool_recovers_on_next_use(self):
        from repro.parallel.engine import WorkerPool

        with WorkerPool(workers=2) as pool:
            crashed = run_tasks(_die_on_two, [1, 2, 3], pool=pool)
            assert any(not result.ok for result in crashed)
            # The broken executor was discarded; the next batch works.
            healthy = run_tasks(_square, [1, 2, 3, 4], pool=pool)
            assert [r.value for r in healthy] == [1, 4, 9, 16]

    def test_serial_fallback_ignores_pool(self):
        from repro.parallel.engine import WorkerPool

        with WorkerPool(workers=1) as pool:
            results = run_tasks(_square, [1, 2, 3], pool=pool)
            assert pool._executor is None  # never spawned
        assert [r.value for r in results] == [1, 4, 9]

    def test_close_is_idempotent(self):
        from repro.parallel.engine import WorkerPool

        pool = WorkerPool(workers=2)
        run_tasks(_square, [1, 2], pool=pool)
        pool.close()
        pool.close()
