"""Per-layer spans for the traced run, recorded from benchmark-owned code.

Two halves share the span names below:

- :func:`install` runs inside the server process (``serve_boot.py``)
  before ``repro serve`` starts. It wraps each layer's public functions:
  class methods are patched on the class, and free functions are patched
  in their defining module *and* in every loaded ``repro.*`` module that
  imported them by name. A wrapper keeps one span per call in memory
  (name, request id, start, end, self time, parent, and a small integer of
  call-specific info); :meth:`Tracer.dump` writes them when the server
  exits. No ``src/`` file changes.
- :func:`per_layer_metrics` runs in the generator. It joins those spans
  to the generator's own request records through the ``trace_id`` every
  request body carries (the decoders read only their known keys, so the
  tag is ignored by the program): the wrapper of
  ``decode_estimate_request``/``decode_update_request`` reads it and tags
  every later span on that thread. Both processes time with
  ``time.perf_counter`` (CLOCK_MONOTONIC, shared by all processes on
  Linux), so ingress and egress need no clock sync.

Self time is a span's duration minus the time its wrapped children took.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import statistics
import sys
import threading
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# ----------------------------------------------------------------------
# What is wrapped
# ----------------------------------------------------------------------


def _hit(args, kwargs, result) -> int:
    return int(result is not None)


def _root_hit(args, kwargs, result) -> int:
    """EstimateMemo.get(fingerprint, estimator, tag): a hit on tag 'nnz'
    is a root memo hit; 'synopsis' lookups are per-node."""
    tag = args[3] if len(args) > 3 else kwargs.get("tag")
    return int(tag == "nnz" and result is not None)


def _inner_dim(args, kwargs, result) -> int:
    h_a = args[0] if args else kwargs["h_a"]
    return int(h_a.ncols)


#: (module, attribute, span name, info) for free functions.
FUNCTIONS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("repro.serve.protocol", name, f"serve.protocol.{name}", None)
    for name in (
        "decode_matrix", "encode_matrix", "decode_expr", "canonical_expr_key",
        "encode_estimate_result", "encode_chain_solution",
        "decode_estimate_request", "decode_update_request",
        "decode_register_request",
    )
] + [
    ("repro.catalog.fingerprint", "fingerprint_expr", "catalog.fingerprint_expr", None),
    ("repro.catalog.fingerprint", "fingerprint_matrix", "catalog.fingerprint_matrix", None),
    ("repro.ir.estimate", "estimate_dag", "ir.estimate_dag", None),
    ("repro.core.estimate", "estimate_product_nnz", "core.estimate_product_nnz", _inner_dim),
    ("repro.core.propagate", "propagate_product", "core.propagate_product", _inner_dim),
    ("repro.core.incremental", "apply_update", "core.incremental.apply_update", None),
    ("repro.optimizer.mmchain", "optimize_chain_sparse", "optimizer.optimize_chain_sparse", None),
    ("repro.optimizer.cost", "sparse_matmul_flops", "optimizer.sparse_matmul_flops", None),
]

#: (module, class, attribute, span name, info) for methods.
METHODS: List[Tuple[str, str, str, str, Optional[Callable]]] = [
    ("repro.serve.registry", "MatrixRegistry", "apply_update", "serve.registry.apply_update", None),
    ("repro.catalog.service", "EstimationService", "submit", "catalog.submit", None),
    ("repro.catalog.service", "EstimationService", "sketch_for", "catalog.sketch_for", None),
    ("repro.catalog.service", "EstimationService", "apply_update", "catalog.apply_update", None),
    ("repro.catalog.service", "EstimationService", "node_synopsis_get", "catalog.node_synopsis_get", _hit),
    ("repro.catalog.memo", "EstimateMemo", "get", "catalog.memo.get", _root_hit),
    ("repro.catalog.memo", "EstimateMemo", "invalidate", "catalog.memo.invalidate", None),
    ("repro.core.sketch", "MNCSketch", "from_matrix", "core.sketch.from_matrix", None),
    ("repro.core.incremental", "IncrementalSketch", "to_matrix", "core.incremental.to_matrix", None),
]

#: Counted, not timed: one timestamp per call.
METRIC_WRITES = [
    ("repro.observability.metrics", "MetricsRegistry", name)
    for name in ("inc", "observe", "set_gauge")
]

#: Decoders whose body carries the request's ``trace_id``.
REQUEST_ENTRY = ("serve.protocol.decode_estimate_request", "serve.protocol.decode_update_request")

NAMES: List[str] = [entry[2] for entry in FUNCTIONS] + [entry[3] for entry in METHODS]

# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------


class Tracer:
    """In-memory span log of one server process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.writes = array("d")
        self.local = threading.local()

    def wrap(self, name: str, fn: Callable, info: Optional[Callable]) -> Callable:
        index = NAMES.index(name)
        spans, local = self.spans, self.local
        sets_request = name in REQUEST_ENTRY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if sets_request:
                body = args[0] if args else kwargs.get("body")
                local.rid = body.get("trace_id", 0) if isinstance(body, dict) else 0
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent = -1
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
            spans.append((
                index, getattr(local, "rid", 0), start, end,
                duration - frame[1], parent,
                info(args, kwargs, result) if info is not None else 0,
            ))
            return result

        return wrapper

    def count(self, fn: Callable) -> Callable:
        writes = self.writes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            writes.append(perf_counter())
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "names": NAMES, "spans": self.spans, "writes": self.writes.tolist(),
        }))


def _import_all_repro_modules() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)


def install() -> Tracer:
    """Wrap every function in the tables; call before the server starts."""
    _import_all_repro_modules()
    tracer = Tracer()
    loaded = [
        module for name, module in sys.modules.items()
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    for module_name, attribute, name, info in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attribute)
        wrapped = tracer.wrap(name, original, info)
        for module in loaded:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    for module_name, class_name, attribute, name, info in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        raw = cls.__dict__[attribute]
        if isinstance(raw, classmethod):
            setattr(cls, attribute, classmethod(tracer.wrap(name, raw.__func__, info)))
        else:
            setattr(cls, attribute, tracer.wrap(name, raw, info))
    for module_name, class_name, attribute in METRIC_WRITES:
        cls = getattr(importlib.import_module(module_name), class_name)
        setattr(cls, attribute, tracer.count(cls.__dict__[attribute]))
    return tracer


# ----------------------------------------------------------------------
# Generator side
# ----------------------------------------------------------------------

#: Span -> workloads whose timed phase must call it (the coverage check).
DRIVERS: Dict[str, Tuple[str, ...]] = {
    "serve.protocol.decode_estimate_request": ("warm-hits", "update-mix", "chain-plans"),
    "serve.protocol.canonical_expr_key": ("warm-hits",),
    "serve.protocol.encode_estimate_result": ("warm-hits", "update-mix"),
    "serve.protocol.encode_chain_solution": ("chain-plans",),
    "serve.protocol.decode_update_request": ("update-mix",),
    "serve.protocol.decode_expr": ("update-mix",),
    "serve.registry.apply_update": ("update-mix",),
    "catalog.submit": ("warm-hits", "update-mix", "chain-plans"),
    "catalog.fingerprint_expr": ("warm-hits", "update-mix"),
    "catalog.fingerprint_matrix": ("update-mix", "chain-plans"),
    "catalog.memo.get": ("warm-hits", "update-mix"),
    "catalog.node_synopsis_get": ("update-mix",),
    "catalog.memo.invalidate": ("update-mix",),
    "catalog.apply_update": ("update-mix",),
    "catalog.sketch_for": ("chain-plans",),
    "ir.estimate_dag": ("update-mix",),
    "core.estimate_product_nnz": ("update-mix", "chain-plans"),
    "core.propagate_product": ("update-mix", "chain-plans"),
    "core.incremental.apply_update": ("update-mix",),
    "core.incremental.to_matrix": ("update-mix",),
    "optimizer.optimize_chain_sparse": ("chain-plans",),
    "optimizer.sparse_matmul_flops": ("chain-plans",),
}

#: Spans the workload's timed phase must never reach (bypass predictions).
BYPASSED: Dict[str, Tuple[str, ...]] = {
    "warm-hits": (
        "serve.protocol.decode_expr", "ir.estimate_dag",
        "core.estimate_product_nnz", "core.propagate_product",
        "core.sketch.from_matrix", "optimizer.optimize_chain_sparse",
        "optimizer.sparse_matmul_flops", "serve.registry.apply_update",
    ),
    "update-mix": (
        "optimizer.optimize_chain_sparse", "optimizer.sparse_matmul_flops",
    ),
    "chain-plans": (
        "serve.protocol.decode_expr", "ir.estimate_dag",
        "catalog.memo.invalidate", "serve.registry.apply_update",
    ),
}

#: Exact ratio predictions: every warm-hits read is a root memo hit and a
#: parse-cache hit; every update-mix read is a root memo miss.
PREDICTED: Dict[str, Dict[str, float]] = {
    "warm-hits": {"catalog.memo_hit_ratio": 1.0, "serve.parse_cache_hit_ratio": 1.0},
    "update-mix": {"catalog.memo_hit_ratio": 0.0},
}

_PROTOCOL = "serve.protocol."
_FINGERPRINT = ("catalog.fingerprint_expr", "catalog.fingerprint_matrix")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    workload: str,
    trace: Dict[str, Any],
    timed: Sequence[Any],
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of one traced timed phase, plus coverage failures.

    *timed* are the generator's records of the timed phase (``trace_id``,
    ``op.kind``, ``sent``, ``done``).
    """
    names = trace["names"]
    ids = {record.trace_id for record in timed}
    first_send = min(record.sent for record in timed)
    last_done = max(record.done for record in timed)
    ops = len(timed)
    estimates = sum(1 for record in timed if record.op.kind == "estimate")
    updates = sum(1 for record in timed if record.op.kind == "update")

    calls: Dict[str, int] = {name: 0 for name in names}
    total: Dict[str, float] = {name: 0.0 for name in names}
    self_time: Dict[str, float] = {name: 0.0 for name in names}
    info: Dict[str, int] = {name: 0 for name in names}
    entry: Dict[int, float] = {}
    last_end: Dict[int, float] = {}
    covered: Dict[int, float] = {}
    top_decode_expr = 0
    outer_fingerprint = 0.0
    setup_sketch_build = 0.0
    for index, rid, start, end, own, parent, extra in trace["spans"]:
        name = names[index]
        if rid not in ids:
            if name == "core.sketch.from_matrix" and end <= first_send:
                setup_sketch_build += end - start
            continue
        parent_name = names[parent] if parent >= 0 else None
        calls[name] += 1
        total[name] += end - start
        self_time[name] += own
        info[name] += extra
        if name in REQUEST_ENTRY:
            entry.setdefault(rid, start)
        last_end[rid] = max(last_end.get(rid, end), end)
        if parent < 0:
            covered[rid] = covered.get(rid, 0.0) + (end - start)
        if name == "serve.protocol.decode_expr" and parent_name != name:
            top_decode_expr += 1
        if name in _FINGERPRINT and parent_name not in _FINGERPRINT:
            outer_fingerprint += end - start

    ingress = [entry[r.trace_id] - r.sent for r in timed if r.trace_id in entry]
    egress = [r.done - last_end[r.trace_id] for r in timed if r.trace_id in last_end]
    latency = sum(r.done - r.sent for r in timed)
    alg1, propagate = "core.estimate_product_nnz", "core.propagate_product"
    writes = sum(1 for stamp in trace["writes"] if first_send <= stamp <= last_done)
    metrics = {
        "serve.ingress_ms_p50": 1e3 * statistics.median(ingress) if ingress else 0.0,
        "serve.egress_ms_p50": 1e3 * statistics.median(egress) if egress else 0.0,
        "serve.unattributed_share": 1.0 - _ratio(sum(covered.values()), latency),
        "serve.protocol_us": 1e6 * _ratio(
            sum(v for k, v in self_time.items() if k.startswith(_PROTOCOL)), ops
        ),
        "serve.parse_cache_hit_ratio": (
            1.0 - _ratio(top_decode_expr, estimates) if estimates else 0.0
        ),
        "serve.registry_update_self_ms": 1e3 * _ratio(
            self_time["serve.registry.apply_update"], updates
        ),
        "catalog.submit_self_us": 1e6 * _ratio(self_time["catalog.submit"], ops),
        "catalog.fingerprint_us": 1e6 * _ratio(outer_fingerprint, ops),
        "catalog.memo_hit_ratio": _ratio(info["catalog.memo.get"], estimates),
        "catalog.node_reuse_ratio": _ratio(
            info["catalog.node_synopsis_get"], calls["catalog.node_synopsis_get"]
        ),
        "catalog.invalidate_us": 1e6 * _ratio(total["catalog.memo.invalidate"], updates),
        "catalog.sketch_for_us": 1e6 * _ratio(total["catalog.sketch_for"], ops),
        "ir.estimate_dag_self_ms": 1e3 * _ratio(self_time["ir.estimate_dag"], ops),
        "core.alg1_calls": _ratio(calls[alg1], ops),
        "core.alg1_self_us": 1e6 * _ratio(self_time[alg1], calls[alg1]),
        "core.propagate_calls": _ratio(calls[propagate], ops),
        "core.propagate_self_us": 1e6 * _ratio(self_time[propagate], calls[propagate]),
        "core.lanes": _ratio(info[alg1] + info[propagate], ops),
        "core.sketch_build_ms": 1e3 * setup_sketch_build,
        "core.incremental_apply_ms": 1e3 * _ratio(
            total["core.incremental.apply_update"], updates
        ),
        "core.incremental_to_matrix_ms": 1e3 * _ratio(
            total["core.incremental.to_matrix"], updates
        ),
        "optimizer.dp_self_ms": 1e3 * _ratio(
            self_time["optimizer.optimize_chain_sparse"], ops
        ),
        "optimizer.cost_calls": _ratio(calls["optimizer.sparse_matmul_flops"], ops),
        "observability.metric_writes": _ratio(writes, ops),
    }

    failures = [
        f"{name} recorded no calls on {workload}, its driver workload"
        for name, drivers in DRIVERS.items()
        if workload in drivers and calls[name] == 0
    ]
    if setup_sketch_build == 0.0:
        failures.append("core.sketch.from_matrix recorded no calls during set-up")
    if writes == 0:
        failures.append("MetricsRegistry recorded no writes in the timed phase")
    failures += [
        f"{name} was called {calls[name]} times on {workload}, which bypasses it"
        for name in BYPASSED.get(workload, ())
        if calls[name]
    ]
    failures += [
        f"{name} = {metrics[name]:.6g} on {workload}, predicted {value}"
        for name, value in PREDICTED.get(workload, {}).items()
        if metrics[name] != value
    ]
    return metrics, failures


def load_trace(path: Path) -> Dict[str, Any]:
    return json.loads(path.read_text())
