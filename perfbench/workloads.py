"""Seeded inputs and op sequences for the three served workloads.

A workload is everything the generator sends to one ``repro serve``
process: the matrices it registers, the priming ops that run before the
timed phase (set-up), the closed-loop op streams of the timed phase (one
per keep-alive connection), and the probe ops sent between its windows.
The same
seed always yields the same matrices and the same op sequences; the server
sees only the generated wire payloads.

Every op is a plain wire request (path + JSON body), so the generator, the
output check and the smoke test all share one description of the traffic.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro.core.incremental import BlockUpdate, delta_to_payload
from repro.matrix.random import power_law_columns, random_sparse
from repro.serve.protocol import encode_matrix

ESTIMATE = "estimate"
CHAIN = "chain"
UPDATE = "update"


@dataclass(frozen=True)
class Op:
    """One wire request: ``kind`` in {estimate, chain, update, register}."""

    kind: str
    path: str
    body: Dict
    #: Canonical JSON of ``(path, body)``: equal keys are equal requests.
    key: str
    #: The body as sent, encoded once.
    encoded: bytes

    @classmethod
    def make(cls, kind: str, path: str, body: Dict) -> "Op":
        key = json.dumps([path, body], sort_keys=True, separators=(",", ":"))
        encoded = json.dumps(body, separators=(",", ":")).encode()
        return cls(kind, path, body, key, encoded)


def estimate_op(expr: Dict) -> Op:
    return Op.make(ESTIMATE, "/estimate", {"expr": expr})


def chain_op(names: List[str], seed: int) -> Op:
    return Op.make(CHAIN, "/estimate", {"chain": list(names), "seed": int(seed)})


def update_op(name: str, delta: BlockUpdate) -> Op:
    return Op.make(
        UPDATE, f"/matrices/{name}/updates", {"deltas": [delta_to_payload(delta)]}
    )


def ref(name: str) -> Dict:
    return {"ref": name}


def matmul(left: Dict, right: Dict) -> Dict:
    return {"op": "matmul", "inputs": [left, right]}


def transpose(node: Dict) -> Dict:
    return {"op": "transpose", "inputs": [node]}


@dataclass
class Workload:
    """Inputs and traffic of one workload at one seed."""

    name: str
    connections: int
    #: ``(name, wire matrix payload)`` in registration order.
    matrices: List[Tuple[str, Dict]]
    #: Sequential ops sent after registration, before timing.
    priming: List[Op]
    #: ``stream(connection)`` -> endless iterator of timed ops.
    stream: Callable[[int], Iterator[Op]]
    #: Update-latency probe for workloads whose mix has no writes: sent in
    #: chunks between timed windows (end-to-end runs only). It updates only
    #: the probe matrix, which no other op reads.
    probe: List[Op]
    #: Untimed ops re-sent after each probe chunk to restore warm state the
    #: chunk flushed (an update empties the server's parse cache).
    reprime: List[Op]
    #: The op kind whose latency is ``latency_p50_ms``/``latency_p90_ms``.
    read_kind: str


@dataclass(frozen=True)
class Sizes:
    """Every size knob; ``FULL`` is the benchmark, ``SMOKE`` the self-test."""

    hits_side: int = 500
    hits_density: float = 0.01
    hits_matrices: int = 8
    hits_pool: int = 64
    hits_probe_window: int = 4
    update_side: int = 4000
    update_matrices: int = 6
    update_uniform_per_row: float = 2.0
    update_zipf_per_row: float = 8.0
    update_block: int = 16
    update_block_nnz: float = 2.0
    chain_side: int = 1000
    chain_matrices: int = 16
    chain_window: int = 10
    chain_log_density: Tuple[float, float] = (-3.3, -1.7)
    probe_updates: int = 512


FULL = Sizes()
SMOKE = Sizes(
    hits_side=60, hits_density=0.05, hits_matrices=4, hits_pool=8,
    hits_probe_window=3, update_side=200, update_matrices=4,
    update_block=8, chain_side=80, chain_matrices=6, chain_window=4,
    chain_log_density=(-2.0, -1.0), probe_updates=40,
)


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *tags])


def _block_update(
    rng: np.random.Generator, shape: Tuple[int, int], block: int, nnz: float
) -> BlockUpdate:
    """A shape-preserving ``block x block`` overwrite at a random origin,
    holding about *nnz* cells so the matrix density stays put."""
    pattern = rng.random((block, block)) < nnz / (block * block)
    return BlockUpdate(
        int(rng.integers(0, shape[0] - block + 1)),
        int(rng.integers(0, shape[1] - block + 1)),
        pattern,
    )


PROBE_MATRIX = "P"


def _update_probe(
    seed: int, side: int, density: float, sizes: Sizes
) -> Tuple[Tuple[str, Dict], List[Op]]:
    """The probe matrix and the block updates the probe sends to it."""
    rng = _rng(seed, 99)
    matrix = random_sparse(side, side, density, seed=int(rng.integers(0, 2**31)))
    ops = [
        update_op(PROBE_MATRIX, _block_update(
            rng, (side, side), sizes.update_block, sizes.update_block_nnz
        ))
        for _ in range(sizes.probe_updates)
    ]
    return (PROBE_MATRIX, encode_matrix(matrix)), ops


def _window_chains(
    rng: np.random.Generator, names: List[str], length: int
) -> List[Op]:
    """One seeded chain request per cyclic window of *length* names."""
    count = len(names)
    return [
        chain_op(
            [names[(start + i) % count] for i in range(length)],
            int(rng.integers(0, 2**31)),
        )
        for start in range(count)
    ]


def _shuffled_laps(
    seed: int, tag: int, ops: List[Op]
) -> Callable[[int], Iterator[Op]]:
    """Each connection sends every op once per lap, in a fresh seeded order,
    so any stretch of the stream holds an even mix of the ops."""
    def stream(connection: int) -> Iterator[Op]:
        rng = _rng(seed, tag, connection)
        while True:
            for index in rng.permutation(len(ops)):
                yield ops[int(index)]

    return stream


def warm_hits(seed: int, sizes: Sizes = FULL) -> Workload:
    """Memo and parse-cache hits only: serve transport + catalog hit path."""
    rng = _rng(seed, 1)
    side = sizes.hits_side
    names = [f"H{i}" for i in range(sizes.hits_matrices)]
    matrices = [
        (name, encode_matrix(random_sparse(
            side, side, sizes.hits_density, seed=int(rng.integers(0, 2**31))
        )))
        for name in names
    ]
    # The pool's shape mix is fixed (a third each of A.B, (A.B).C and
    # A.(B.C); every fourth transposed) so only matrix picks vary by seed.
    pool: Dict[str, Op] = {}
    while len(pool) < sizes.hits_pool:
        position = len(pool)
        a, b, c = (ref(names[int(i)]) for i in rng.integers(0, len(names), size=3))
        expr = [matmul(a, b), matmul(matmul(a, b), c), matmul(a, matmul(b, c))][position % 3]
        if position % 4 == 3:
            expr = transpose(expr)
        op = estimate_op(expr)
        pool.setdefault(op.key, op)
    ops = list(pool.values())
    chains = _window_chains(_rng(seed, 2), names, sizes.hits_probe_window)
    probe_matrix, probe = _update_probe(seed, side, sizes.hits_density, sizes)
    return Workload(
        name="warm-hits",
        connections=2,
        matrices=matrices + [probe_matrix],
        priming=ops + chains,
        stream=_shuffled_laps(seed, 3, ops),
        probe=probe,
        reprime=ops,
        read_kind=ESTIMATE,
    )


def update_mix(seed: int, sizes: Sizes = FULL) -> Workload:
    """One ordered session: a block update, then three estimates over it."""
    rng = _rng(seed, 11)
    side = sizes.update_side
    names = [f"U{i}" for i in range(sizes.update_matrices)]
    matrices = []
    for i, name in enumerate(names):
        matrix_seed = int(rng.integers(0, 2**31))
        if i % 2 == 0:
            matrix = random_sparse(
                side, side, sizes.update_uniform_per_row / side, seed=matrix_seed
            )
        else:
            matrix = power_law_columns(
                side, side, int(sizes.update_zipf_per_row * side), seed=matrix_seed
            )
        matrices.append((name, encode_matrix(matrix)))

    def step(step_rng: np.random.Generator, leaf: int, left_deep: bool) -> List[Op]:
        # B and C are fixed per A, so every lap over the leaves sends the
        # same mix of uniform/Zipf pairings whatever the seed.
        a, b, c = (names[(leaf + k) % len(names)] for k in range(3))
        update = update_op(a, _block_update(
            step_rng, (side, side), sizes.update_block, sizes.update_block_nnz
        ))
        if left_deep:
            triple = matmul(matmul(ref(a), ref(b)), ref(c))
        else:
            triple = matmul(ref(a), matmul(ref(b), ref(c)))
        return [
            update,
            estimate_op(matmul(ref(a), ref(b))),
            estimate_op(matmul(ref(b), ref(a))),
            estimate_op(triple),
        ]

    # Priming: the chain probes (read-only, before any write), then one
    # step per leaf so every name already has its incremental tracker.
    prime_rng = _rng(seed, 13)
    priming = _window_chains(_rng(seed, 12), names, 3)
    priming += _window_chains(_rng(seed, 12), names, 4)
    for leaf in range(len(names)):
        priming += step(prime_rng, leaf, leaf % 2 == 0)

    def stream(connection: int) -> Iterator[Op]:
        # Laps over the leaves in a fresh seeded order; the association of
        # A.B.C alternates from one lap to the next.
        step_rng = _rng(seed, 14, connection)
        for lap in itertools.count():
            for leaf in step_rng.permutation(len(names)):
                yield from step(step_rng, int(leaf), (lap + int(leaf)) % 2 == 0)

    return Workload(
        name="update-mix",
        connections=1,
        matrices=matrices,
        priming=priming,
        stream=stream,
        probe=[],
        reprime=[],
        read_kind=ESTIMATE,
    )


def chain_plans(seed: int, sizes: Sizes = FULL) -> Workload:
    """Seeded chain plans over fixed windows: optimizer DP + propagation."""
    rng = _rng(seed, 21)
    side = sizes.chain_side
    names = [f"C{i}" for i in range(sizes.chain_matrices)]
    # Densities sit on a fixed log-uniform grid in a fixed arrangement, so
    # every seed plans chains of the same sparsity profile; the seed picks
    # the non-zero cells, the lap order and the propagation seeds.
    low, high = sizes.chain_log_density
    grid = 10 ** (low + (high - low) * (np.arange(len(names)) + 0.5) / len(names))
    densities = grid[np.random.default_rng(0).permutation(len(names))]
    matrices = [
        (name, encode_matrix(random_sparse(
            side, side, float(density), seed=int(rng.integers(0, 2**31))
        )))
        for name, density in zip(names, densities)
    ]
    windows = _window_chains(_rng(seed, 22), names, sizes.chain_window)
    pairs = [
        estimate_op(matmul(ref(names[i]), ref(names[(i + 1) % len(names)])))
        for i in range(len(names))
    ]
    probe_matrix, probe = _update_probe(seed, side, float(np.median(grid)), sizes)
    return Workload(
        name="chain-plans",
        connections=2,
        matrices=matrices + [probe_matrix],
        priming=pairs + windows,
        stream=_shuffled_laps(seed, 23, windows),
        probe=probe,
        reprime=[],
        read_kind=CHAIN,
    )


WORKLOADS = {
    "warm-hits": warm_hits,
    "update-mix": update_mix,
    "chain-plans": chain_plans,
}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    return WORKLOADS[name](seed, SMOKE if smoke else FULL)
