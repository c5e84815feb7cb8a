"""Launch ``repro serve`` for the benchmark.

Usage::

    python perfbench/serve_boot.py [--cpu N] [--trace-out FILE] -- serve ARGS...

Pins the process to CPU *N* before anything else runs, optionally installs
the per-layer span wrappers from ``layers.py`` (the traced run), then hands
the remaining arguments to the repro CLI exactly as ``python -m repro``
would. With ``--trace-out`` the recorded spans are written to FILE when the
server exits.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="serve_boot.py")
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv[:split])
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    tracer = None
    if args.trace_out is not None:
        import layers

        tracer = layers.install()

    from repro.cli import main as cli_main

    try:
        return cli_main(argv[split + 1:])
    finally:
        if tracer is not None:
            tracer.dump(Path(args.trace_out))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
