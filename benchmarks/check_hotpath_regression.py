"""Tolerance-based hot-path perf-regression checker (docs/PERFORMANCE.md).

Compares the latest ``benchmarks/results/BENCH_hotpath.json`` (produced by
``bench_hotpath.py``) against the committed baseline
``benchmarks/baselines/hotpath_baseline.json``. Raw seconds are never
compared across machines directly: both files carry the time of a fixed
numpy calibration workload, and every baseline number is rescaled by the
``current_calibration / baseline_calibration`` ratio first.

A benchmark regresses when::

    current_seconds > tolerance * baseline_seconds * calibration_ratio

with ``tolerance`` defaulting to 2.0 (override with ``--tolerance`` or the
``REPRO_PERF_TOLERANCE`` environment variable). The generous default keeps
CI runners' noise out of the signal while still catching the kind of 2x+
regressions this harness exists for (accidentally re-validating per
construction, re-materializing summaries, allocation regressions).

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py
    python benchmarks/check_hotpath_regression.py
    python benchmarks/check_hotpath_regression.py --update-baseline

The baseline records its scale; a scale mismatch is an error (timings at
different input sizes are not comparable), so CI pins ``REPRO_BENCH_SCALE``
for both the run and the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent
RESULTS_FILE = BENCH_DIR / "results" / "BENCH_hotpath.json"
BASELINE_FILE = BENCH_DIR / "baselines" / "hotpath_baseline.json"

DEFAULT_TOLERANCE = 2.0


def _load(path: Path, label: str) -> dict:
    if not path.exists():
        raise SystemExit(
            f"error: {label} not found at {path} "
            f"(run benchmarks/bench_hotpath.py first)"
        )
    return json.loads(path.read_text())


def _strip(benchmarks: dict) -> dict:
    return {
        name: {"seconds_per_op": result["seconds_per_op"]}
        for name, result in benchmarks.items()
    }


def update_baseline() -> int:
    """Overwrite the committed baseline from the latest results (the
    format bench_metrics.py also reads)."""
    payload = _load(RESULTS_FILE, "benchmark results")
    baseline = {
        "scale": payload["scale"],
        "dims": payload["dims"],
        "calibration_seconds": payload["calibration_seconds"],
        "benchmarks": _strip(payload["benchmarks"]),
    }
    BASELINE_FILE.parent.mkdir(exist_ok=True)
    BASELINE_FILE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(f"baseline updated: {BASELINE_FILE} (scale={baseline['scale']:g})")
    return 0


def check(tolerance: float) -> int:
    payload = _load(RESULTS_FILE, "benchmark results")
    baseline = _load(BASELINE_FILE, "committed baseline")

    if f"{payload['scale']:g}" != f"{baseline['scale']:g}":
        raise SystemExit(
            f"error: scale mismatch — results at {payload['scale']:g}, "
            f"baseline at {baseline['scale']:g}; timings are not comparable"
        )

    calibration_ratio = (
        payload["calibration_seconds"] / baseline["calibration_seconds"]
    )
    print(
        f"hot-path regression check (scale={payload['scale']:g}, "
        f"tolerance={tolerance:g}x, calibration ratio "
        f"{calibration_ratio:.2f}x)"
    )
    print(f"{'bench':<36}{'baseline us':>14}{'current us':>14}{'ratio':>9}")

    failures = []

    for name, base in sorted(baseline["benchmarks"].items()):
        current = payload["benchmarks"].get(name)
        if current is None:
            failures.append(f"{name}: missing from current results")
            continue
        allowed = base["seconds_per_op"] * calibration_ratio
        ratio = current["seconds_per_op"] / allowed
        flag = "  FAIL" if ratio > tolerance else ""
        print(
            f"{name:<36}{allowed * 1e6:>14.1f}"
            f"{current['seconds_per_op'] * 1e6:>14.1f}{ratio:>8.2f}x{flag}"
        )
        if ratio > tolerance:
            failures.append(
                f"{name}: {ratio:.2f}x the machine-normalized baseline "
                f"(tolerance {tolerance:g}x)"
            )

    if failures:
        print()
        for failure in failures:
            print(f"REGRESSION {failure}")
        return 1
    print("ok: no hot-path regressions")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPRO_PERF_TOLERANCE", DEFAULT_TOLERANCE)),
        help="allowed slowdown factor vs the normalized baseline "
        "(default 2.0, env REPRO_PERF_TOLERANCE)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="overwrite the committed baseline with the latest results",
    )
    args = parser.parse_args(argv)
    if args.update_baseline:
        return update_baseline()
    return check(args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
