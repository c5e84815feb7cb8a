"""Tests for the fuzz engine and shrinker (repro.verify.engine)."""

from __future__ import annotations

import pytest

from repro.verify import (
    EstimatorSpec,
    FuzzEngine,
    get_contract,
    injected_fault_selftest,
)
from repro.verify.engine import CellKey, FaultyOracle


def test_small_clean_run():
    engine = FuzzEngine(
        specs=[EstimatorSpec(name="exact"), EstimatorSpec(name="mnc")],
        generators=["uniform"],
        budget=8,
        seed=0,
    )
    report = engine.run()
    assert report.violations == []
    assert report.checked > 0


def test_runs_are_deterministic():
    def snapshot():
        report = FuzzEngine(
            specs=[EstimatorSpec(name="mnc"), EstimatorSpec(name="meta_wc")],
            generators=["uniform", "adversarial"],
            budget=6,
            seed=5,
        ).run()
        return (report.checked, report.skipped,
                sorted(str(k) for k in report.cells))

    assert snapshot() == snapshot()


def test_cell_patterns_select_subset():
    engine = FuzzEngine(
        generators=["uniform"],
        budget=2,
        cell_patterns=["mnc:bounds:*"],
    )
    report = engine.run()
    assert set(report.cells) == {CellKey("mnc", "bounds", "uniform")}


def test_injected_fault_is_found_and_shrunk():
    record = injected_fault_selftest()
    m, n = record.shrunk.root.shape
    assert m <= 8 and n <= 8
    assert record.shrink_steps > 0
    assert "estimate" in record.shrunk_message


def test_shrunk_case_still_violates():
    record = injected_fault_selftest()
    contract = get_contract("exact_oracle")
    spec = EstimatorSpec(name="faulty_exact", factory=FaultyOracle)
    assert contract.applies(spec, record.shrunk)
    assert contract.check(spec, record.shrunk) is not None


def test_report_summary_rows_aggregate_generators():
    engine = FuzzEngine(
        specs=[EstimatorSpec(name="exact")],
        contracts=[get_contract("bounds")],
        generators=["uniform", "structured"],
        budget=3,
    )
    report = engine.run()
    rows = report.summary_rows()
    assert len(rows) == 1
    estimator, contract, checked, skipped, bad = rows[0]
    assert (estimator, contract, bad) == ("exact", "bounds", 0)
    assert checked == report.checked


def test_no_shrink_mode_reports_original_case():
    engine = FuzzEngine(
        specs=[EstimatorSpec(name="faulty_exact", factory=FaultyOracle)],
        contracts=[get_contract("exact_oracle")],
        generators=["uniform"],
        budget=6,
        shrink=False,
    )
    report = engine.run()
    assert report.violations
    for violation in report.violations:
        assert violation.shrink_steps == 0
        assert violation.shrunk is violation.case


def test_engine_counts_flow_through_observability():
    from repro.observability import (
        METRICS,
        RecordingCollector,
        reset_metrics,
        using_collector,
    )

    reset_metrics()
    collector = RecordingCollector()
    with using_collector(collector):
        FuzzEngine(
            specs=[EstimatorSpec(name="exact")],
            contracts=[get_contract("bounds")],
            generators=["uniform"],
            budget=2,
        ).run()
    counters = METRICS.snapshot().counters
    assert counters.get("verify.cases", 0) > 0
    assert "verify.violations" in counters


@pytest.mark.fuzz
def test_full_matrix_small_budget_is_clean():
    """The full (estimator x contract x generator) matrix, small budget.

    This is the CI fuzz job's in-process mirror of
    ``python -m repro verify --budget 25 --seed 0``.
    """
    report = FuzzEngine(budget=25, seed=0).run()
    messages = [v.describe() for v in report.violations]
    assert not messages, "\n".join(messages)
