"""Tests for the PR-6 observability layer: the process-wide metrics
registry, the accuracy residual ledger, snapshot algebra
(delta/merge), the JSONL and Prometheus exporters, exception-safe
spans, the flight recorder, atexit flush durability, and the
multi-file ``repro stats`` CLI.

(``tests/test_metrics.py`` covers the *accuracy* metrics of the
SparsEst harness — this module covers the telemetry registry.)
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.observability import (
    FLIGHT,
    METRICS,
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    MetricsSnapshot,
    ResidualRecord,
    count,
    merge_trace_data,
    metric_set,
    metrics_snapshot,
    observe,
    prometheus_exposition,
    read_metrics_jsonl,
    read_trace,
    record_residual,
    reset_metrics,
    residual_table,
    write_metrics_jsonl,
    write_trace,
)
from repro.observability.collector import RecordingCollector, using_collector
from repro.observability.metrics import _Histogram, _relative_error
from repro.observability.trace import timed_span


@pytest.fixture(autouse=True)
def _clean_slate():
    """Each test starts from an empty registry and a disarmed recorder."""
    reset_metrics()
    FLIGHT.clear()
    FLIGHT.arm(None)
    yield
    reset_metrics()
    FLIGHT.clear()
    FLIGHT.arm(None)


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------

class TestRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 2.5)
        registry.inc("b", 4)
        snapshot = registry.snapshot()
        assert snapshot.counters == {"a": 3.5, "b": 4.0}

    def test_gauges_last_writer_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 10)
        registry.set_gauge("g", 7)
        assert registry.snapshot().gauges == {"g": 7.0}

    def test_module_helpers_hit_global_registry(self):
        count("helper.counter", 2)
        metric_set("helper.gauge", 5)
        observe("helper.hist", 3.0)
        snapshot = metrics_snapshot()
        assert snapshot.counters["helper.counter"] == 2.0
        assert snapshot.gauges["helper.gauge"] == 5.0
        assert snapshot.histograms["helper.hist"]["count"] == 1

    def test_count_feeds_registry_without_tracing(self):
        count("untraced.counter", 3)
        assert metrics_snapshot().counters["untraced.counter"] == 3.0

    def test_hotpath_counters_absorbed_as_deltas(self):
        from repro.core.sketch import MNCSketch
        from repro.matrix.random import random_sparse

        key = "hotpath.validated_constructions"
        before = metrics_snapshot()
        MNCSketch.from_matrix(random_sparse(30, 30, 0.1, seed=1))
        first = metrics_snapshot()
        assert first.delta_since(before).counters[key] >= 1
        # Snapshotting is a read: a second one reports the same value.
        second = metrics_snapshot()
        assert second.counters[key] == first.counters[key]
        assert key not in second.delta_since(first).counters

    def test_hotpath_slots_merge_and_reset(self):
        key = "hotpath.trusted_constructions"
        before = metrics_snapshot().counters.get(key, 0.0)
        METRICS.merge(MetricsSnapshot(counters={key: 3.0}))
        assert metrics_snapshot().counters[key] == before + 3.0
        assert METRICS.hotpath.trusted_constructions == before + 3
        reset_metrics()
        assert key not in metrics_snapshot().counters
        assert METRICS.hotpath.trusted_constructions == 0

    def test_ledger_capacity_is_validated(self):
        with pytest.raises(ValueError, match="ledger_capacity"):
            MetricsRegistry(ledger_capacity=0)


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------

class TestHistogram:
    def test_exact_count_sum_min_max(self):
        histogram = _Histogram()
        for value in [0.5, 4.0, 4.5, 100.0]:
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == pytest.approx(109.0)
        assert histogram.min == 0.5
        assert histogram.max == 100.0

    def test_quantiles_bucket_resolved_and_clamped(self):
        histogram = _Histogram()
        for _ in range(99):
            histogram.observe(3.0)  # bucket [2, 4)
        histogram.observe(1000.0)
        # p50 lands in the [2,4) bucket; midpoint 2^1.5 ~ 2.83, within
        # one octave of the true median and clamped into [min, max].
        assert 2.0 <= histogram.quantile(50.0) <= 4.0
        # The top quantile resolves to the 1000.0 observation's bucket
        # (one-octave error bound: within [512, 1024)).
        assert 512.0 <= histogram.quantile(99.9) <= 1000.0

    def test_zeros_bucket(self):
        histogram = _Histogram()
        histogram.observe(0.0)
        histogram.observe(-1.0)
        histogram.observe(8.0)
        assert histogram.zeros == 2
        assert histogram.quantile(50.0) <= 0.0
        state = histogram.state()
        assert _Histogram.from_state(state).summary() == histogram.summary()

    def test_nan_observations_ignored(self):
        histogram = _Histogram()
        histogram.observe(math.nan)
        assert histogram.count == 0


# ----------------------------------------------------------------------
# Snapshot algebra: delta_since / merge
# ----------------------------------------------------------------------

class TestSnapshotAlgebra:
    def test_delta_plus_baseline_equals_final(self):
        registry = MetricsRegistry()
        registry.inc("x", 2)
        registry.observe("h", 3.0)
        baseline = registry.snapshot()
        registry.inc("x", 5)
        registry.inc("y")
        registry.observe("h", 9.0)
        registry.record_residual(ResidualRecord(
            "s", "e", "w", "op", 10.0, 12.0, 1.2,
        ))
        final = registry.snapshot()
        delta = final.delta_since(baseline)
        assert delta.counters == {"x": 5.0, "y": 1.0}
        assert len(delta.residuals) == 1
        rebuilt = baseline.merge(delta)
        assert rebuilt.counters == final.counters
        assert rebuilt.histograms["h"]["count"] == 2
        assert rebuilt.histograms["h"]["sum"] == pytest.approx(12.0)

    def test_unchanged_gauges_excluded_from_delta(self):
        registry = MetricsRegistry()
        registry.set_gauge("stable", 4)
        registry.set_gauge("moving", 1)
        baseline = registry.snapshot()
        registry.set_gauge("moving", 2)
        delta = registry.snapshot().delta_since(baseline)
        assert delta.gauges == {"moving": 2.0}

    def test_merge_adds_counters_and_concatenates_ledgers(self):
        one = MetricsSnapshot(
            counters={"a": 1.0},
            residuals=[ResidualRecord("s", "e", "w1", "op", 1, 1, 1.0)],
            residuals_seen=1,
        )
        two = MetricsSnapshot(
            counters={"a": 2.0, "b": 3.0},
            residuals=[ResidualRecord("s", "e", "w2", "op", 2, 2, 1.0)],
            residuals_seen=1,
        )
        merged = one.merge(two)
        assert merged.counters == {"a": 3.0, "b": 3.0}
        assert [r.workload for r in merged.residuals] == ["w1", "w2"]
        assert merged.residuals_seen == 2

    def test_empty_property(self):
        assert MetricsSnapshot().empty
        assert not MetricsSnapshot(counters={"a": 1.0}).empty


# ----------------------------------------------------------------------
# Residual ledger
# ----------------------------------------------------------------------

class TestResidualLedger:
    def test_record_residual_computes_m1(self):
        record = record_residual(
            source="test", estimator="E", workload="w", op="matmul",
            estimate=200.0, truth=100.0,
        )
        assert record.relative_error == pytest.approx(2.0)
        snapshot = metrics_snapshot()
        assert snapshot.counters["residual.count.test.E"] == 1.0
        assert "residual.relative_error.test" in snapshot.histograms

    def test_nonfinite_residuals_counted_separately(self):
        record = record_residual(
            source="test", estimator="E", workload="w", op="matmul",
            estimate=5.0, truth=0.0,
        )
        assert math.isinf(record.relative_error)
        snapshot = metrics_snapshot()
        assert snapshot.counters["residual.nonfinite.test.E"] == 1.0
        assert "residual.relative_error.test" not in snapshot.histograms

    def test_relative_error_conventions(self):
        assert _relative_error(0.0, 0.0) == 1.0
        assert math.isinf(_relative_error(0.0, 3.0))
        assert _relative_error(10.0, 5.0) == 2.0
        assert _relative_error(5.0, 10.0) == 2.0

    def test_ledger_is_bounded_and_counts_drops(self):
        registry = MetricsRegistry(ledger_capacity=4)
        for index in range(10):
            registry.record_residual(ResidualRecord(
                "s", "e", f"w{index}", "op", 1, 1, 1.0,
            ))
        snapshot = registry.snapshot()
        assert len(snapshot.residuals) == 4
        assert snapshot.residuals_seen == 10
        assert snapshot.residuals_dropped == 6
        assert [r.workload for r in snapshot.residuals] == [
            "w6", "w7", "w8", "w9",
        ]

    def test_residual_table_renders_groups(self):
        records = [
            ResidualRecord("sparsest", "MNC", "B1.1", "dag", 10, 10, 1.0, 0.1),
            ResidualRecord("sparsest", "MNC", "B1.2", "dag", 0, 5, math.inf),
        ]
        table = residual_table(records, title="ledger")
        assert "sparsest" in table and "MNC" in table


# ----------------------------------------------------------------------
# Producers: sparsest runner, verify engine, runtime allocator
# ----------------------------------------------------------------------

class TestResidualProducers:
    def test_sparsest_runner_records_residuals(self):
        from repro.sparsest.runner import execute_outcomes, requests_for

        execute_outcomes(requests_for(["B1.1"], ["mnc"], scale=0.05))
        residuals = [
            r for r in METRICS.residuals() if r.source == "sparsest"
        ]
        assert residuals
        assert all(r.estimator == "MNC" for r in residuals)
        assert all(r.op == "dag" for r in residuals)
        snapshot = metrics_snapshot()
        assert snapshot.counters.get("sparsest.outcomes.ok", 0) >= 1

    def test_verify_engine_records_residuals(self):
        from repro.verify.engine import FuzzEngine

        FuzzEngine(budget=2, seed=0, cell_patterns=["mnc:*:*"]).run()
        residuals = [r for r in METRICS.residuals() if r.source == "verify"]
        assert residuals
        assert all("#" in r.workload for r in residuals)

    def test_allocator_records_regret_and_residual(self):
        from repro.runtime.allocator import plan_allocation

        plan_allocation("node", (100, 100), 900.0, 500.0, estimator="MNC")
        snapshot = metrics_snapshot()
        assert snapshot.counters["runtime.allocations"] == 1.0
        assert "runtime.regret_bytes" in snapshot.histograms
        residuals = [
            r for r in METRICS.residuals() if r.source == "allocator"
        ]
        assert len(residuals) == 1
        assert residuals[0].op == "alloc"
        assert residuals[0].estimator == "MNC"


# ----------------------------------------------------------------------
# Schema versioning + JSONL round-trip
# ----------------------------------------------------------------------

class TestSerialization:
    def test_snapshot_roundtrips_through_dict(self):
        count("rt.counter", 3)
        metric_set("rt.gauge", 9)
        observe("rt.hist", 2.5)
        snapshot = metrics_snapshot()
        decoded = MetricsSnapshot.from_dict(snapshot.to_dict())
        assert decoded.version == METRICS_SCHEMA_VERSION
        assert decoded.counters == snapshot.counters
        assert decoded.gauges == snapshot.gauges
        assert decoded.histograms == {
            name: _Histogram.from_state(state).state()
            for name, state in snapshot.histograms.items()
        }

    def test_future_schema_version_rejected(self):
        payload = MetricsSnapshot().to_dict()
        payload["schema"] = METRICS_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="future"):
            MetricsSnapshot.from_dict(payload)

    def test_jsonl_roundtrip_with_residuals(self, tmp_path):
        count("file.counter", 7)
        record_residual(
            source="test", estimator="E", workload="w", op="matmul",
            estimate=4.0, truth=8.0, seconds=0.25,
        )
        path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(path, metrics_snapshot())
        decoded = read_metrics_jsonl(path)
        assert decoded.counters["file.counter"] == 7.0
        assert len(decoded.residuals) == 1
        restored = decoded.residuals[0]
        assert restored.relative_error == pytest.approx(2.0)
        assert restored.seconds == pytest.approx(0.25)

    def test_read_metrics_jsonl_requires_metrics_record(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"type": "counter", "name": "x", "value": 1}\n')
        with pytest.raises(ValueError, match="no metrics record"):
            read_metrics_jsonl(path)

    def test_write_trace_embeds_metrics(self, tmp_path):
        count("traced.counter")
        collector = RecordingCollector()
        with using_collector(collector):
            count("span.counter")
        path = tmp_path / "trace.jsonl"
        write_trace(path, collector, metrics=metrics_snapshot())
        data = read_trace(path)
        assert data.metrics is not None
        assert data.metrics.counters["traced.counter"] == 1.0
        # A counter bumped under a collector travels in the metrics record.
        assert data.metrics.counters["span.counter"] == 1.0
        kinds = {json.loads(line)["type"] for line in path.read_text().splitlines()}
        assert kinds == {"metrics"}


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------

#: Every non-comment exposition line: name{labels} value
_PROM_LINE = re.compile(
    r"^[a-zA-Z_][a-zA-Z0-9_]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (\+Inf|-Inf|NaN|-?[0-9.e+-]+)$"
)


class TestPrometheus:
    def test_every_line_parses(self):
        count("prom.counter", 3)
        metric_set("prom.gauge", 1.5)
        observe("prom.hist", 0.0)
        observe("prom.hist", 12.0)
        record_residual(
            source="verify", estimator="Meta-AC", workload="w", op="matmul",
            estimate=3.0, truth=6.0, seconds=0.5,
        )
        exposition = prometheus_exposition(metrics_snapshot())
        assert exposition.endswith("\n")
        for line in exposition.strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# TYPE [a-zA-Z_][a-zA-Z0-9_]* \w+$", line)
            else:
                assert _PROM_LINE.match(line), f"unparseable line: {line!r}"

    def test_counters_get_total_suffix_and_prefix(self):
        count("some.counter")
        exposition = prometheus_exposition(metrics_snapshot())
        assert "repro_some_counter_total 1" in exposition

    def test_histogram_buckets_are_cumulative(self):
        observe("h", 0.0)
        observe("h", 3.0)   # bucket [2, 4) -> le="4"
        observe("h", 3.5)
        exposition = prometheus_exposition(metrics_snapshot())
        assert 'repro_h_bucket{le="0"} 1' in exposition
        assert 'repro_h_bucket{le="4"} 3' in exposition
        assert 'repro_h_bucket{le="+Inf"} 3' in exposition
        assert "repro_h_count 3" in exposition

    def test_residual_ledger_exported_with_labels(self):
        record_residual(
            source="sparsest", estimator="MNC", workload="B1.1", op="dag",
            estimate=10.0, truth=20.0, seconds=0.125,
        )
        exposition = prometheus_exposition(metrics_snapshot())
        assert (
            'repro_residual_ledger_count{source="sparsest",estimator="MNC"} 1'
            in exposition
        )
        assert (
            'repro_residual_ledger_error_mean'
            '{source="sparsest",estimator="MNC"} 2'
            in exposition
        )


# ----------------------------------------------------------------------
# Exception-safe spans (satellite: timed_span error flag)
# ----------------------------------------------------------------------

class TestExceptionSafeSpans:
    def test_timed_span_records_error_flag_untraced(self):
        span = timed_span("boom.op")
        with pytest.raises(RuntimeError):
            with span:
                raise RuntimeError("kaboom")
        # The span body raised, yet the span was still timed and flagged.
        assert span.seconds is not None and span.seconds >= 0.0
        assert span.attrs["error"] == "RuntimeError"
        kinds = [e["kind"] for e in FLIGHT.events()]
        assert "span_error" in kinds

    def test_traced_error_span_reaches_collector(self):
        collector = RecordingCollector()
        with pytest.raises(ValueError):
            with using_collector(collector):
                with timed_span("traced.boom"):
                    raise ValueError("nope")
        assert len(collector.spans) == 1
        recorded = collector.spans[0]
        assert recorded.name == "traced.boom"
        assert recorded.attrs["error"] == "ValueError"
        assert recorded.seconds is not None

    def test_error_span_triggers_armed_dump(self, tmp_path):
        dump = tmp_path / "postmortem.json"
        FLIGHT.arm(dump)
        with pytest.raises(RuntimeError):
            with timed_span("armed.boom"):
                raise RuntimeError("dump me")
        assert dump.exists()
        report = json.loads(dump.read_text())
        assert report["trigger"] == "span_error"
        assert report["context"]["span"] == "armed.boom"
        assert report["metrics"]["schema"] == METRICS_SCHEMA_VERSION

    def test_successful_span_does_not_dump(self, tmp_path):
        dump = tmp_path / "postmortem.json"
        FLIGHT.arm(dump)
        with timed_span("fine.op"):
            pass
        assert not dump.exists()


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------

class TestFlightRecorder:
    def test_ring_is_bounded(self):
        from repro.observability import FlightRecorder

        recorder = FlightRecorder(capacity=3)
        for index in range(10):
            recorder.record("metric", f"m{index}")
        events = recorder.events()
        assert len(events) == 3
        assert [e["name"] for e in events] == ["m7", "m8", "m9"]

    def test_unarmed_trigger_still_counts(self):
        FLIGHT.trigger_dump("unit_test")
        snapshot = metrics_snapshot()
        assert snapshot.counters["flight.trigger.unit_test"] == 1.0

    def test_estimator_exception_dumps_postmortem(self, tmp_path):
        from repro.estimators.base import SparsityEstimator, Synopsis
        from repro.opcodes import Op

        class _BoomSynopsis(Synopsis):
            @property
            def shape(self):
                return (2, 2)

            @property
            def nnz_estimate(self):
                return 1.0

        class _BoomEstimator(SparsityEstimator):
            name = "Boom"

            def build(self, matrix):
                return _BoomSynopsis()

            def _estimate_matmul(self, *operands, **params):
                raise ZeroDivisionError("synthetic crash")

        dump = tmp_path / "crash.json"
        FLIGHT.arm(dump)
        estimator = _BoomEstimator()
        operands = [_BoomSynopsis(), _BoomSynopsis()]
        with pytest.raises(ZeroDivisionError):
            estimator.estimate_nnz(Op.MATMUL, operands)
        assert dump.exists()
        report = json.loads(dump.read_text())
        assert report["trigger"] == "estimator_exception"
        assert report["context"]["estimator"] == "Boom"
        assert report["context"]["op"] == "matmul"
        assert (
            metrics_snapshot().counters["estimator.exceptions.Boom"] == 1.0
        )

    def test_unsupported_operation_is_not_a_crash(self):
        from repro.errors import UnsupportedOperationError
        from repro.estimators import make_estimator
        from repro.opcodes import Op

        from repro.estimators import available_estimators

        estimator, unsupported = next(
            (candidate, op)
            for candidate in map(make_estimator, available_estimators())
            for op in Op
            if op is not Op.LEAF and not candidate.supports(op)
        )
        with pytest.raises(UnsupportedOperationError):
            estimator.estimate_nnz(unsupported, [])
        assert f"estimator.exceptions.{estimator.name}" not in (
            metrics_snapshot().counters
        )


# ----------------------------------------------------------------------
# Flush durability (satellite: atexit + explicit flush)
# ----------------------------------------------------------------------

class TestFlush:
    def test_explicit_flush_to_file(self, tmp_path):
        from repro.observability import flush

        count("flush.counter", 2)
        target = tmp_path / "dump.jsonl"
        written = flush(target)
        assert written == target
        assert read_metrics_jsonl(target).counters["flush.counter"] == 2.0

    def test_flush_to_directory_is_per_pid(self, tmp_path):
        from repro.observability import flush

        count("flush.dir")
        written = flush(tmp_path)
        assert written == tmp_path / f"metrics-{os.getpid()}.jsonl"
        assert written.exists()

    def test_flush_without_destination_is_noop(self, monkeypatch):
        from repro.observability import flush
        from repro.observability.metrics import METRICS_DUMP_ENV

        monkeypatch.delenv(METRICS_DUMP_ENV, raising=False)
        assert flush() is None

    def test_atexit_flush_survives_mid_run_exit(self, tmp_path):
        # A worker that dies via sys.exit mid-run must still leave its
        # counters on disk thanks to the atexit-registered flush.
        target = tmp_path / "exit-dump.jsonl"
        script = (
            "import sys\n"
            "from repro.observability import count, record_residual\n"
            "count('subprocess.counter', 5)\n"
            "record_residual(source='sub', estimator='E', workload='w',\n"
            "                op='matmul', estimate=2.0, truth=4.0)\n"
            "sys.exit(3)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_METRICS_DUMP"] = str(target)
        result = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 3
        snapshot = read_metrics_jsonl(target)
        assert snapshot.counters["subprocess.counter"] == 5.0
        assert snapshot.counters["residual.count.sub.E"] == 1.0
        assert len(snapshot.residuals) == 1


# ----------------------------------------------------------------------
# Multi-file stats CLI (satellite: merge several trace/metric files)
# ----------------------------------------------------------------------

class TestStatsCli:
    def _write_snapshot(self, path, counter, value):
        registry = MetricsRegistry()
        registry.inc(counter, value)
        write_metrics_jsonl(path, registry.snapshot())

    def test_merges_multiple_files(self, tmp_path, capsys):
        from repro.cli import main

        one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        self._write_snapshot(one, "shared.counter", 2)
        self._write_snapshot(two, "shared.counter", 3)
        assert main(["stats", str(one), str(two)]) == 0
        out = capsys.readouterr().out
        assert "shared.counter = 5" in out

    def test_format_json(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "metrics.jsonl"
        self._write_snapshot(path, "json.counter", 4)
        assert main(["stats", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["counters"]["json.counter"] == 4.0

    def test_prometheus_output_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "metrics.jsonl"
        prom = tmp_path / "prom.txt"
        self._write_snapshot(path, "prom.cli.counter", 1)
        assert main(["stats", str(path), "--prometheus", str(prom)]) == 0
        assert "repro_prom_cli_counter_total 1" in prom.read_text()

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2

    def test_merge_trace_data_combines_residuals(self, tmp_path):
        paths = []
        for index in range(2):
            registry = MetricsRegistry()
            registry.record_residual(ResidualRecord(
                "s", "e", f"w{index}", "op", 1, 1, 1.0,
            ))
            registry.inc("m", 1)
            path = tmp_path / f"part{index}.jsonl"
            write_metrics_jsonl(path, registry.snapshot())
            paths.append(path)
        data = merge_trace_data([read_trace(p) for p in paths])
        assert data.metrics.counters["m"] == 2.0
        assert sorted(r.workload for r in data.residuals) == ["w0", "w1"]
