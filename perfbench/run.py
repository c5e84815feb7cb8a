"""Served benchmark: one ``repro serve`` process per run, driven over HTTP.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload warm-hits --seed 1 --seconds 15 --trace 0

Workloads: ``warm-hits``, ``update-mix``, ``chain-plans``. See README.md
next to this file for what each measures and for every metric.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}; run from the "
              "root of a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    from runner import main
    from wire import BenchError

    try:
        raise SystemExit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
