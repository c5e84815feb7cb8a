"""Sketch propagation for matrix products (paper Section 3.3).

For chains of products, sketches of intermediates are derived rather than
constructed: the output sparsity is estimated with Algorithm 1, and the input
row/column histograms are scaled to the new total (Eq 11) with probabilistic
rounding to avoid the ultra-sparse rounding bias. When one operand is fully
diagonal and square, the other operand's sketch is propagated unchanged
(Eq 12) — the product's structure is guaranteed identical.

Hot-path notes (docs/PERFORMANCE.md): derived sketches are built through
the trusted tier (:meth:`MNCSketch.trusted` — scaling and reconciliation
re-establish every invariant by construction), Eq 11 scale-and-round runs
in scratch with the rounding draws taken from the caller's generator, the
deterministic reconciliation rounds are applied in closed form, and
tracing spans are entered only when a collector listens.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimate import estimate_product_nnz
from repro.core.rounding import SeedLike, resolve_rng, scale_round_into
from repro.core.scratch import ScratchBuffer
from repro.core.sketch import MNCSketch
from repro.errors import ShapeError
from repro.observability.trace import trace, tracing_enabled

#: Scratch for the Eq 11 rounding draws (one per call site; the scale
#: itself runs in ``scale_round_into``'s own scratch).
_SCALE_DRAW_SCRATCH = ScratchBuffer(np.float64)


def scale_histogram(
    histogram: np.ndarray,
    target_total: float,
    maximum: int,
    rng: SeedLike = None,
) -> np.ndarray:
    """Scale a count histogram to a new total, preserving its shape (Eq 11).

    Entries are multiplied by ``target_total / sum(histogram)`` and rounded
    probabilistically; zero entries stay zero so empty rows/columns remain
    empty through propagation.

    Args:
        histogram: current int64 count vector.
        target_total: desired (estimated) sum after scaling.
        maximum: physical cap per entry (the opposing dimension size).
        rng: randomness for probabilistic rounding.
    """
    current_total = float(histogram.sum())
    if current_total <= 0 or target_total <= 0:
        return np.zeros_like(histogram)
    generator = resolve_rng(rng)
    n = histogram.size
    # Draws come from the caller's generator exactly as the unfused
    # scale-then-round formulation consumed them (one uniform per entry),
    # so fusing the multiply into the rounding changes no rounding decision.
    draws = _SCALE_DRAW_SCRATCH.get(n)
    generator.random(out=draws)
    result = np.empty(n, dtype=np.int64)
    scale_round_into(
        histogram, float(target_total) / current_total, draws, int(maximum), result
    )
    return result


def _propagate_product_impl(
    h_a: MNCSketch,
    h_b: MNCSketch,
    rng,
    use_extensions: bool,
    use_bounds: bool,
) -> tuple[MNCSketch, float]:
    generator = resolve_rng(rng)
    m, l = h_a.nrows, h_b.ncols
    nnz_estimate = estimate_product_nnz(
        h_a, h_b, use_extensions=use_extensions, use_bounds=use_bounds
    )
    hr_c = scale_histogram(h_a.hr, nnz_estimate, maximum=l, rng=generator)
    hc_c = scale_histogram(h_b.hc, nnz_estimate, maximum=m, rng=generator)
    _reconcile_totals(hr_c, hc_c, generator)
    exact = h_a.exact and h_b.exact and (h_a.max_hr <= 1 or h_b.max_hc <= 1)
    sketch = MNCSketch.trusted(
        shape=(m, l), hr=hr_c, hc=hc_c, her=None, hec=None,
        fully_diagonal=False, exact=exact,
    )
    return sketch, nnz_estimate


def propagate_product(
    h_a: MNCSketch,
    h_b: MNCSketch,
    rng: SeedLike = None,
    use_extensions: bool = True,
    use_bounds: bool = True,
) -> MNCSketch:
    """Derive the sketch of ``C = A B`` from the sketches of A and B.

    Runs in ``O(m + n + l)``. Extension vectors are not propagated (they are
    only kept when exactly preserved, which a generic product does not
    guarantee); the fully-diagonal special case propagates the full sketch of
    the other operand, extensions included.

    Args:
        h_a, h_b: operand sketches.
        rng: randomness for probabilistic rounding.
        use_extensions, use_bounds: forwarded to
            :func:`~repro.core.estimate.estimate_product_nnz` for the "MNC
            Basic" ablation.
    """
    if h_a.ncols != h_b.nrows:
        raise ShapeError(
            f"product requires inner dimensions to agree: {h_a.shape} x {h_b.shape}"
        )
    if h_b.fully_diagonal and h_a.ncols == h_b.nrows:
        return h_a
    if h_a.fully_diagonal and h_a.ncols == h_b.nrows:
        return h_b

    if not tracing_enabled():
        sketch, _ = _propagate_product_impl(
            h_a, h_b, rng, use_extensions, use_bounds
        )
        return sketch
    with trace(
        "mnc.propagate.matmul",
        operand_shapes=(h_a.shape, h_b.shape),
        operand_nnz=(h_a.total_nnz, h_b.total_nnz),
    ) as span:
        sketch, nnz_estimate = _propagate_product_impl(
            h_a, h_b, rng, use_extensions, use_bounds
        )
        span.annotate(result_nnz=nnz_estimate)
        return sketch


def _reconcile_totals(
    hr: np.ndarray, hc: np.ndarray, rng: np.random.Generator
) -> None:
    """Make ``sum(hr) == sum(hc)`` after independent probabilistic rounding.

    Probabilistic rounding of the two histograms is independent, so their
    totals can differ by a small random amount; the sketch invariant requires
    equality. We adjust the histogram with the larger total downwards by
    decrementing randomly chosen positive entries — an O(diff) correction
    that leaves the distribution essentially untouched.
    """
    diff = int(hr.sum() - hc.sum())
    if diff == 0:
        return
    target = hr if diff > 0 else hc
    remaining = abs(diff)
    # sum(target) == sum(other) + remaining >= remaining, so there are always
    # enough units among the positive entries to remove `remaining` of them.
    #
    # Removing units one round at a time (decrement every positive entry by
    # one, repeat) degenerates to an O(diff) loop when Eq 11's per-entry cap
    # truncated the two histograms by very different amounts. The full
    # rounds are deterministic — a round that touches *every* positive entry
    # needs no random choice — so reconcile_bulk applies them at once.
    # Only the final partial round draws randomness.
    remaining = reconcile_bulk(target, remaining)
    if remaining > 0:
        positive = np.flatnonzero(target > 0)
        chosen = rng.choice(positive, size=remaining, replace=False)
        target[chosen] -= 1


def reconcile_bulk(target: np.ndarray, remaining: int) -> int:
    """Apply the deterministic full rounds of :func:`_reconcile_totals`.

    After ``r`` full rounds each entry of the int64 *target* holds
    ``max(v - r, 0)`` and ``f(r) = sum(min(v, r))`` units are gone. This
    finds the largest ``r`` with ``f(r) <= remaining`` in closed form,
    applies it in place, and returns the units still to remove.

    ``f`` is piecewise linear with knots at the sorted positive values
    ``s_0 <= ... <= s_{n-1}``: ``f(s_i) = C_i + s_i * (n - 1 - i)`` with
    ``C`` their running sum. If the first ``k`` knots fit, ``r`` lies in
    ``[s_{k-1}, s_k)`` where ``f(r) = C_{k-1} + r * (n - k)``. Everything
    is integer arithmetic, so the result is exact.
    """
    values = np.sort(target[target > 0])
    n = values.size
    if n == 0:
        return int(remaining)
    cumsum = np.cumsum(values)
    knots = cumsum + values * np.arange(n - 1, -1, -1)
    k = int(np.searchsorted(knots, remaining, side="right"))
    if k == n:
        rounds = int(values[-1])
        removed = int(cumsum[-1])
    else:
        below = int(cumsum[k - 1]) if k else 0
        rounds = (int(remaining) - below) // (n - k)
        removed = below + rounds * (n - k)
    if rounds > 0:
        remaining -= removed
        np.subtract(target, rounds, out=target)
        np.maximum(target, 0, out=target)
    return int(remaining)
