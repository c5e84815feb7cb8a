"""Smoke test of the served benchmark at tiny sizes.

Run from the repository root::

    python -m pytest perfbench/test_smoke.py -q

Each workload runs for half a second on tiny inputs, untraced and traced.
Every metric ``BENCHMARK.json`` names must be emitted with its unit, every
answer must pass the output check (``failed`` is 0), and the traced run
must pass its coverage check. A copy of the benchmark without the sources
must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_every_answer_checked(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["failed"] == 0, json.loads(done.stdout.splitlines()[-2])["info"]["problems"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
        if not trace:
            assert emitted["value"] > 0, metric["name"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_latency_groups_merge_a_short_tail():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from runner import GROUP_SAMPLES, Window, latency_ms

    def window(latencies):
        records = [
            SimpleNamespace(op=SimpleNamespace(kind="estimate"), latency=value)
            for value in latencies
        ]
        return Window(records, wall=1.0, server_cpu=0.0, steal=0.0)

    full = [window([0.001] * GROUP_SAMPLES), window([0.003] * GROUP_SAMPLES)]
    # Three full groups at 1, 3 and 5 ms, then a short tail at 100 ms that
    # must join the last group instead of standing alone or replacing one.
    windows = full + [window([0.005] * GROUP_SAMPLES), window([0.1] * 5)]
    assert latency_ms(windows, "estimate", 50) == 3.0
    assert latency_ms(full + [window([0.1] * 5)], "estimate", 50) == 2.0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
