"""Probabilistic rounding shared by all sketch-propagation rules.

Deterministic rounding of fractional count vectors introduces systematic
bias for ultra-sparse matrices: a vector whose entries are all 0.4 rounds to
all-zero, which propagates into an (incorrectly) empty intermediate. The
paper instead rounds entry ``x`` up with probability ``frac(x)``, which is
unbiased (``E[round(x)] = x``) with minimal variance.

The kernels are allocation-aware: the uniform draws are generated straight
into reused per-thread scratch with ``Generator.random(out=...)`` (the same
stream, and therefore the same rounding decisions, as the naive
formulation) and handed to :func:`prob_round_into`, which clamps, floors,
and applies the Bernoulli bumps in scratch without touching the generator.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.scratch import ScratchBuffer

SeedLike = Union[int, np.random.Generator, None]

_DRAW_SCRATCH = ScratchBuffer(np.float64)
#: Temporaries of prob_round_into / scale_round_into (one per role).
_CLIP_SCRATCH = ScratchBuffer(np.float64)
_FLOOR_SCRATCH = ScratchBuffer(np.float64)
_BUMP_SCRATCH = ScratchBuffer(np.bool_)
_SCALED_SCRATCH = ScratchBuffer(np.float64)


def resolve_rng(seed: SeedLike) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for *seed* (pass-through for
    generators, fresh default generator for ``None``)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def prob_round_into(
    values: np.ndarray, draws: np.ndarray, maximum: int, out: np.ndarray
) -> None:
    """``out[i] = min(floor(max(values[i], 0)) + (draws[i] < frac), maximum)``.

    *draws* are uniform [0, 1) variates already consumed from the caller's
    generator (one per entry); ``maximum < 0`` disables the cap; *out* is
    int64 and must not alias the scratch used here.
    """
    n = values.shape[0]
    clipped = _CLIP_SCRATCH.get(n)
    np.maximum(values, 0.0, out=clipped)
    floor = _FLOOR_SCRATCH.get(n)
    np.floor(clipped, out=floor)
    np.subtract(clipped, floor, out=clipped)
    bump = _BUMP_SCRATCH.get(n)
    np.less(draws, clipped, out=bump)
    np.copyto(out, floor, casting="unsafe")
    out += bump
    if maximum >= 0:
        np.minimum(out, maximum, out=out)


def scale_round_into(
    histogram: np.ndarray,
    factor: float,
    draws: np.ndarray,
    maximum: int,
    out: np.ndarray,
) -> None:
    """Eq 11 scale of an int64 *histogram* by *factor*, then
    :func:`prob_round_into` (``int64 -> float64`` is exact for counts)."""
    scaled = _SCALED_SCRATCH.get(histogram.shape[0])
    np.multiply(histogram, factor, out=scaled)
    prob_round_into(scaled, draws, maximum, out)


def probabilistic_round(
    values: np.ndarray,
    rng: SeedLike = None,
    maximum: Optional[int] = None,
) -> np.ndarray:
    """Round non-negative *values* to integers without systematic bias.

    Each entry ``x`` becomes ``floor(x) + Bernoulli(x - floor(x))``, so the
    expectation is preserved exactly. Negative inputs (which can arise from
    floating-point noise in subtraction-based formulas) are clamped to zero
    first.

    Args:
        values: float vector of estimated counts.
        rng: seed or generator driving the Bernoulli draws.
        maximum: optional per-entry cap (e.g. the row length), applied after
            rounding so a count can never exceed the physically possible one.

    Returns:
        int64 vector of the same shape (always freshly allocated; the
        internal temporaries come from reused scratch buffers).
    """
    generator = resolve_rng(rng)
    values = np.asarray(values, dtype=np.float64)
    shape = values.shape
    values = np.ascontiguousarray(values).reshape(-1)
    n = values.size
    # The draws land in scratch via Generator.random(out=...), which
    # consumes the stream identically to Generator.random(shape).
    draws = _DRAW_SCRATCH.get(n)
    generator.random(out=draws)
    result = np.empty(n, dtype=np.int64)
    prob_round_into(
        values, draws, -1 if maximum is None else int(maximum), result
    )
    return result.reshape(shape)
