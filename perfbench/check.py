"""Output check and answer quality, computed after the timed phase.

:class:`Replay` feeds the run's ops, in order, to an in-process
``EstimationService`` + ``MatrixRegistry`` configured like ``repro
serve`` (the direct path ``benchmarks/bench_serve.py`` compares against)
and compares every served answer with it bit for bit:

- estimates: ``nnz``, ``sparsity``, ``fingerprint``, ``cached``;
- chain plans: ``plan``, ``cost``;
- updates: ``fingerprint``, ``shape``, ``nnz``.

A read repeated while none of the matrices it reads has been updated is
answered from the replay's own cache instead of being recomputed (a
repeated estimate is a memo hit, so its expected ``cached`` is true);
that keeps the check of a 50k-op warm-hits run to a second.

Answer quality uses ground truth that is cached on disk per workload and
seed, keyed by the request and the fingerprints of the matrices it reads:

- ``rel_error_mean``: the paper's M1 relative error
  (``repro.sparsest.metrics.relative_error``) of served estimates against
  exact nnz, over distinct (request, matrix state) answers, at most
  ``QUALITY_ANSWERS`` in issue order;
- ``plan_cost_ratio``: over distinct chain answers,
  ``plan_cost_true(returned plan) / plan_cost_true(dense DP plan)``.

Both are deterministic for a seed.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.catalog.service import EstimationService, ServiceRequest
from repro.catalog.sharded import ShardedSketchStore
from repro.catalog.store import DEFAULT_BUDGET_BYTES
from repro.ir.interpreter import evaluate
from repro.optimizer.cost import plan_cost_true
from repro.optimizer.mmchain import optimize_chain_dense
from repro.serve.protocol import (
    decode_expr,
    decode_matrix,
    decode_update_request,
    encode_chain_solution,
    encode_estimate_result,
)
from repro.serve.registry import MatrixRegistry
from repro.sparsest.metrics import relative_error

from workloads import CHAIN, ESTIMATE, UPDATE, Op

#: Distinct estimate answers that enter ``rel_error_mean``.
QUALITY_ANSWERS = 288
#: ``repro serve``'s default store shard count.
SERVE_SHARDS = 8

_COMPARED = {
    ESTIMATE: ("nnz", "sparsity", "fingerprint", "cached"),
    CHAIN: ("plan", "cost"),
    UPDATE: ("fingerprint", "shape", "nnz"),
}


class TruthCache:
    """Exact nnz and true plan costs, persisted as one JSON file."""

    def __init__(self, path: Path):
        self.path = path
        self.values: Dict[str, float] = {}
        if path.exists():
            self.values = json.loads(path.read_text())
        self.dirty = False

    def get(self, parts: Sequence[Any], compute) -> float:
        key = hashlib.blake2b(
            json.dumps(parts, sort_keys=True).encode(), digest_size=16
        ).hexdigest()
        value = self.values.get(key)
        if value is None:
            value = float(compute())
            self.values[key] = value
            self.dirty = True
        return value

    def save(self) -> None:
        if self.dirty:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(self.values))


class Replay:
    """The in-process reference the served answers must equal."""

    def __init__(self, matrices: Sequence[Tuple[str, Dict]], truth: TruthCache):
        store = ShardedSketchStore(num_shards=SERVE_SHARDS, budget_bytes=DEFAULT_BUDGET_BYTES)
        self.service = EstimationService("mnc", store=store)
        self.registry = MatrixRegistry(self.service)
        for name, payload in matrices:
            self.registry.register(name, decode_matrix(payload))
        self.truth = truth
        #: op key -> (expected answer, names of the matrices it reads).
        self.reads: Dict[str, Tuple[Dict, set]] = {}
        self.mismatches: List[str] = []
        self.rel_errors: List[float] = []
        self.plan_ratios: List[float] = []

    def check(self, op: Op, status: int, reply: Any) -> bool:
        """Advance the reference by *op*; True when *reply* equals it."""
        expected = self._expected(op)
        if status != 200 or not isinstance(reply, dict):
            self.mismatches.append(f"{op.kind} {op.path}: status {status}")
            return False
        wrong = [f for f in _COMPARED[op.kind] if reply.get(f) != expected[f]]
        if wrong:
            self.mismatches.append(
                f"{op.kind} {op.key[:120]}: "
                + ", ".join(f"{f} {reply.get(f)!r} != {expected[f]!r}" for f in wrong)
            )
            return False
        if expected.get("_first"):
            self._score(op, reply)
        return True

    def _expected(self, op: Op) -> Dict:
        if op.kind == UPDATE:
            name = op.path.split("/")[2]
            self.reads = {
                key: entry for key, entry in self.reads.items() if name not in entry[1]
            }
            fingerprint = self.registry.fingerprint(name)
            for delta in decode_update_request(op.body):
                fingerprint = self.registry.apply_update(name, delta)
            matrix = self.registry.matrix(name)
            return {
                "fingerprint": fingerprint,
                "shape": [int(d) for d in matrix.shape],
                "nnz": int(matrix.nnz),
            }
        seen = self.reads.get(op.key)
        if seen is not None:
            return dict(seen[0], cached=True) if op.kind == ESTIMATE else seen[0]
        if op.kind == ESTIMATE:
            names = leaf_names(op.body["expr"])
            expr = decode_expr(op.body["expr"], self.registry.resolve)
            expected = encode_estimate_result(
                self.service.submit(ServiceRequest.estimate(expr))
            )
        else:
            names = op.body["chain"]
            matrices = [self.registry.matrix(name) for name in names]
            expected = encode_chain_solution(self.service.submit(ServiceRequest.chain(
                matrices, rng=np.random.default_rng(op.body["seed"])
            )))
        self.reads[op.key] = (expected, set(names))
        return dict(expected, _first=True)

    def _score(self, op: Op, reply: Dict) -> None:
        """Quality of the first answer to a read in this matrix state."""
        if op.kind == ESTIMATE:
            if len(self.rel_errors) >= QUALITY_ANSWERS:
                return
            expr = decode_expr(op.body["expr"], self.registry.resolve)
            exact = self.truth.get(
                ["nnz", op.body["expr"], self._fingerprints(op.body["expr"])],
                lambda: evaluate(expr).nnz,
            )
            self.rel_errors.append(relative_error(exact, reply["nnz"]))
            return
        names = op.body["chain"]
        matrices = [self.registry.matrix(name) for name in names]
        state = [self.registry.fingerprint(name) for name in names]
        dense_plan = optimize_chain_dense([m.shape for m in matrices]).plan
        returned = self.truth.get(
            ["plan", reply["plan"], state],
            lambda: plan_cost_true(reply["plan"], matrices),
        )
        reference = self.truth.get(
            ["plan", dense_plan, state],
            lambda: plan_cost_true(dense_plan, matrices),
        )
        self.plan_ratios.append(returned / reference)

    def _fingerprints(self, expr: Dict) -> List[str]:
        return [self.registry.fingerprint(name) for name in leaf_names(expr)]

    def quality(self) -> Dict[str, Optional[float]]:
        return {
            "rel_error_mean": statistics.fmean(self.rel_errors) if self.rel_errors else None,
            "plan_cost_ratio": statistics.fmean(self.plan_ratios) if self.plan_ratios else None,
        }


def leaf_names(expr: Dict) -> List[str]:
    """Matrix names a wire expression reads, left to right."""
    if "ref" in expr:
        return [expr["ref"]]
    return [name for child in expr["inputs"] for name in leaf_names(child)]
