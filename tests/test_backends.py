"""The plain-numpy hot-path kernels, held against plain-Python references.

The drivers (Algorithm 1's density map, Eq 11 rounding, total
reconciliation, the bitset popcounts and block OR) run plain numpy
kernels. Each is checked here against a scalar reference written with
``math`` and Python integers. The density map is ``np.log1p`` +
``np.sum``, and numpy builds differ in the last ulp of their
transcendentals, so density-map results are held to within a few ulp of
a ``math.log1p`` + ``math.fsum`` reference. Everything else is integer
arithmetic or given the same draws, so it must match exactly. The
closed-form ``reconcile_bulk`` is also held against the binary search it
replaced.
"""

import math

import numpy as np
import pytest

from repro.core.estimate import density_map_vector_estimate, estimate_product_nnz
from repro.core.propagate import propagate_product, reconcile_bulk, scale_histogram
from repro.core.rounding import prob_round_into, probabilistic_round, scale_round_into
from repro.core.sketch import MNCSketch
from repro.estimators.bitset import BitsetEstimator, BitsetSynopsis, pack_matrix
from repro.matrix.random import random_sparse

ULP_BOUND = 4


def _ulps(got, expected):
    if got == expected:
        return 0.0
    return abs(got - expected) / np.spacing(max(abs(expected), abs(got)))


class PythonReference:
    """Scalar versions of the kernels: ``math``, Python ints, per-entry loops."""

    @staticmethod
    def density_map(v_a, v_b, cells):
        # Same per-slice arguments as the kernel, so only log1p and the
        # sum differ.
        if cells <= 0:
            return 0.0
        neg_inv_cells = -1.0 / cells
        probs = [(float(a) * float(b)) * neg_inv_cells for a, b in zip(v_a, v_b)]
        if probs and min(probs) <= -1.0:
            return float(cells)
        return float(cells) * -math.expm1(math.fsum(math.log1p(p) for p in probs))

    @staticmethod
    def prob_round(values, draws, maximum):
        out = []
        for value, draw in zip(values, draws):
            x = max(float(value), 0.0)
            whole = math.floor(x)
            rounded = int(whole) + (1 if draw < x - whole else 0)
            out.append(min(rounded, maximum) if maximum >= 0 else rounded)
        return np.array(out, dtype=np.int64)

    @staticmethod
    def scale_histogram(histogram, target_total, maximum, generator):
        counts = [int(v) for v in histogram]
        total = float(sum(counts))
        if total <= 0 or target_total <= 0:
            return np.zeros(len(counts), dtype=np.int64)
        draws = generator.random(len(counts))
        factor = float(target_total) / total
        return PythonReference.prob_round(
            [float(c) * factor for c in counts], draws, maximum
        )

    @staticmethod
    def reconcile(target, remaining):
        """Full rounds one at a time: every positive entry loses one unit."""
        while True:
            positive = [i for i, v in enumerate(target) if v > 0]
            if not positive or remaining < len(positive):
                return remaining
            for i in positive:
                target[i] -= 1
            remaining -= len(positive)

    @staticmethod
    def popcount(bits):
        return sum(bin(int(byte)).count("1") for byte in np.ravel(bits))

    @staticmethod
    def packed_bool_product(a_dense, b_dense):
        """Rows as Python int bit masks (bit j = column j), OR-combined."""
        l = b_dense.shape[1]
        words = max((l + 7) // 8, 1)
        b_rows = [
            sum(1 << j for j in range(l) if b_dense[t, j])
            for t in range(b_dense.shape[0])
        ]
        rows = []
        for i in range(a_dense.shape[0]):
            mask = 0
            for t in range(a_dense.shape[1]):
                if a_dense[i, t]:
                    mask |= b_rows[t]
            rows.append(list(mask.to_bytes(words, "little")))
        return np.array(rows, dtype=np.uint8).reshape(a_dense.shape[0], words)


#: References the drivers are held against, by the name in the test id.
REFERENCES = {"python": PythonReference}


@pytest.fixture(params=sorted(REFERENCES))
def reference(request):
    return REFERENCES[request.param]


def _density_inputs(rng, n, kind):
    """(v_a, v_b, cells) whose per-slice probabilities follow *kind*."""
    if kind == "uniform":
        p = rng.random(n)
    elif kind == "tiny":
        p = rng.random(n) * 10.0 ** float(rng.integers(-12, 0))
    elif kind == "near_saturation":
        p = 1.0 - rng.random(n) * 1e-6 - 1e-9
    else:  # "zeros": all-zero slices, plus some mixed runs
        p = np.zeros(n) if rng.random() < 0.5 else np.where(
            rng.random(n) < 0.3, 0.0, rng.random(n)
        )
    cells = 1000.0
    return p * cells, np.ones(n), cells


def _binary_search_reconcile(target, remaining):
    """The bisection ``reconcile_bulk`` used before its closed form."""
    values = target[target > 0]
    lo, hi = 0, int(values.max()) if values.size else 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if int(np.minimum(values, mid).sum()) <= remaining:
            lo = mid
        else:
            hi = mid - 1
    if lo > 0:
        remaining -= int(np.minimum(values, lo).sum())
        np.subtract(target, lo, out=target)
        np.maximum(target, 0, out=target)
    return int(remaining)


class TestPrimitiveIdentity:
    """Each kernel against its plain-Python reference."""

    def test_dot_and_subtract(self):
        rng = np.random.default_rng(0)
        ref = PythonReference
        # Theorem 3.1: at most one non-zero per row of A makes the dot exact.
        for trial in range(10):
            rows = rng.integers(0, 40, 60)
            keep = rng.random(60) < 0.7
            a = np.zeros((60, 40))
            a[np.flatnonzero(keep), rows[keep]] = 1.0
            b = random_sparse(40, 50, 0.2, seed=trial)
            h_a, h_b = MNCSketch.from_matrix(a), MNCSketch.from_matrix(b)
            expected = sum(int(x) * int(y) for x, y in zip(h_a.hc, h_b.hr))
            assert estimate_product_nnz(h_a, h_b) == float(expected)
            assert expected == np.count_nonzero(a @ b.toarray())
        # Extension case: exact dots over the extension vectors plus the
        # density map over the residual count vectors (Eq 8-9).
        hit = 0
        for trial in range(20):
            h_a = MNCSketch.from_matrix(random_sparse(50, 40, 0.05, seed=trial))
            h_b = MNCSketch.from_matrix(random_sparse(40, 45, 0.05, seed=trial + 50))
            if h_a.max_hr <= 1 or h_b.max_hc <= 1 or not (
                h_a.has_extensions or h_b.has_extensions
            ):
                continue
            hit += 1
            hc_a, hr_b = [int(v) for v in h_a.hc], [int(v) for v in h_b.hr]
            hec_a = [int(v) for v in h_a.hec_or_zeros()]
            her_b = [int(v) for v in h_b.her_or_zeros()]
            resid_a = [x - e for x, e in zip(hc_a, hec_a)]
            resid_b = [y - e for y, e in zip(hr_b, her_b)]
            exact = sum(e * y for e, y in zip(hec_a, hr_b)) + sum(
                r * e for r, e in zip(resid_a, her_b)
            )
            cells = 50.0 * 45.0
            expected = min(exact + ref.density_map(resid_a, resid_b, cells), cells)
            got = estimate_product_nnz(h_a, h_b, use_bounds=False)
            assert _ulps(got, expected) <= ULP_BOUND, (trial, got, expected)
        assert hit >= 5

    @pytest.mark.parametrize(
        "seed, kind",
        list(enumerate(["uniform", "tiny", "near_saturation", "zeros"])),
    )
    def test_dm_collision_log1p_elementwise(self, seed, kind):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            n = int(rng.integers(1, 500))
            v_a, v_b, cells = _density_inputs(rng, n, kind)
            got = density_map_vector_estimate(v_a, v_b, cells)
            expected = PythonReference.density_map(v_a, v_b, cells)
            assert _ulps(got, expected) <= ULP_BOUND, (kind, n, got, expected)

    def test_dm_collision_log1p_saturates(self):
        v = np.array([0.5, 8.0, 0.25])
        # One slice at probability exactly 1, then one above it.
        assert density_map_vector_estimate(v, np.ones(3), 8.0) == 8.0
        assert density_map_vector_estimate(v, np.ones(3), 7.5) == 7.5

    def test_dm_log1p_matches_math_log1p_closely(self):
        """One slice: the estimate is ``cells * -expm1(log1p(-p))``."""
        rng = np.random.default_rng(3)
        cells = 1000.0
        for p in rng.random(2000) * 0.999:
            got = density_map_vector_estimate(np.array([p * cells]), np.ones(1), cells)
            expected = cells * -math.expm1(math.log1p((p * cells) * (-1.0 / cells)))
            assert got == pytest.approx(expected, rel=1e-14, abs=1e-300)

    def test_all_zero_counts_estimate_zero(self):
        assert density_map_vector_estimate(np.zeros(40), np.ones(40), 9.0) == 0.0

    def test_prob_round_given_same_draws(self):
        rng = np.random.default_rng(2)
        for maximum in (-1, 0, 3, 10**9):
            n = 400
            values = rng.random(n) * 20.0 - 1.0  # includes negatives
            draws = rng.random(n)
            out = np.empty(n, dtype=np.int64)
            prob_round_into(values, draws, maximum, out)
            expected = PythonReference.prob_round(values, draws, maximum)
            assert np.array_equal(out, expected)

    def test_scale_round_given_same_draws(self):
        rng = np.random.default_rng(4)
        n = 300
        histogram = rng.integers(0, 10**6, n)
        draws = rng.random(n)
        for factor in (0.0, 1e-9, 0.5, 1.0, 3.75):
            out = np.empty(n, dtype=np.int64)
            scale_round_into(histogram, factor, draws, 10**5, out)
            expected = PythonReference.prob_round(
                [float(int(h)) * factor for h in histogram], draws, 10**5
            )
            assert np.array_equal(out, expected)

    def test_reconcile_bulk(self):
        rng = np.random.default_rng(5)
        cases = 0
        while cases < 10_000:
            n = int(rng.integers(0, 60))
            high = int(rng.choice([2, 10, 1_000, 10**9]))
            base = rng.integers(0, high, n)
            if rng.random() < 0.3:
                base[rng.random(n) < 0.5] = 0
            total = int(base.sum())
            for remaining in {
                0, 1, total // 2, max(total - 1, 0), total, total + 5,
                int(rng.integers(0, total + 1)),
            }:
                got_target = base.copy()
                want_target = base.copy()
                got = reconcile_bulk(got_target, remaining)
                want = _binary_search_reconcile(want_target, remaining)
                assert got == want, (base, remaining)
                assert np.array_equal(got_target, want_target), (base, remaining)
                assert int(base.sum() - got_target.sum()) == remaining - got
                cases += 1

    def test_reconcile_bulk_matches_round_by_round(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            base = rng.integers(0, 12, int(rng.integers(0, 30)))
            remaining = int(rng.integers(0, int(base.sum()) + 2))
            target = base.copy()
            expected_target = [int(v) for v in base]
            left = reconcile_bulk(target, remaining)
            assert left == PythonReference.reconcile(expected_target, remaining)
            assert target.tolist() == expected_target

    def test_leftover_is_less_than_positive_entries(self):
        target = np.array([5, 0, 3, 9, 1], dtype=np.int64)
        left = reconcile_bulk(target, 11)
        # Three full rounds remove 1 + 3 + 3 + 3 = 10 units; one is left
        # for the random partial round over the two still-positive entries.
        assert target.tolist() == [2, 0, 0, 6, 0]
        assert left == 1

    def test_popcounts(self):
        rng = np.random.default_rng(6)
        estimator = BitsetEstimator()
        for shape in ((0, 3), (1, 1), (5, 4), (64, 16)):
            bits = rng.integers(0, 256, shape).astype(np.uint8)
            synopsis = BitsetSynopsis((shape[0], 8 * shape[1]), bits)
            assert synopsis.nnz_estimate == PythonReference.popcount(bits)
            merged = 0
            for row in bits:
                merged |= int.from_bytes(bytes(row), "little")
            assert estimator._estimate_col_sums(synopsis) == bin(merged).count("1")

    def test_bitset_block_or(self):
        rng = np.random.default_rng(7)
        a_dense = rng.random((10, 40)) < 0.2
        a_dense[3] = False  # an empty row leaves its output row zero
        b_dense = rng.random((40, 37)) < 0.1
        expected = PythonReference.packed_bool_product(a_dense, b_dense)
        for kernel in ("vectorized", "scalar"):
            synopsis = BitsetEstimator(kernel=kernel)._propagate_matmul(
                pack_matrix(a_dense.astype(float)), pack_matrix(b_dense.astype(float))
            )
            assert synopsis.shape == (10, 37)
            assert np.array_equal(synopsis.bits, expected), kernel


class TestDriverIdentity:
    """End to end through the estimation drivers."""

    def test_density_map_estimate_matches_reference(self, reference):
        rng = np.random.default_rng(11)
        for trial in range(10):
            n = int(rng.integers(1, 800))
            v_a = rng.integers(0, 50, n).astype(np.float64)
            v_b = rng.integers(0, 50, n).astype(np.float64)
            cells = float(rng.integers(1, 10**6))
            got = density_map_vector_estimate(v_a, v_b, cells)
            expected = reference.density_map(v_a, v_b, cells)
            assert _ulps(got, expected) <= ULP_BOUND, (trial, got, expected)

    def test_propagate_product_bytes_match(self, reference):
        h_a = MNCSketch.from_matrix(random_sparse(60, 45, 0.1, seed=1))
        h_b = MNCSketch.from_matrix(random_sparse(45, 50, 0.2, seed=2))
        got = propagate_product(h_a, h_b, rng=123)
        # Same estimate, same draw order: rows of A's histogram, then
        # columns of B's, then the partial reconciliation round.
        generator = np.random.default_rng(123)
        nnz = estimate_product_nnz(h_a, h_b)
        hr = reference.scale_histogram(h_a.hr, nnz, 50, generator)
        hc = reference.scale_histogram(h_b.hc, nnz, 60, generator)
        diff = int(hr.sum() - hc.sum())
        if diff:
            target = hr if diff > 0 else hc
            values = [int(v) for v in target]
            left = reference.reconcile(values, abs(diff))
            target[:] = values
            if left:
                chosen = generator.choice(
                    np.flatnonzero(target > 0), size=left, replace=False
                )
                target[chosen] -= 1
        assert got.shape == (60, 50)
        assert got.hr.tobytes() == hr.tobytes()
        assert got.hc.tobytes() == hc.tobytes()

    def test_probabilistic_round_matches_and_preserves_stream(self, reference):
        values = np.random.default_rng(8).random(500) * 7.0
        got = probabilistic_round(values, rng=42, maximum=5)
        draws = np.random.default_rng(42).random(values.size)
        assert np.array_equal(got, reference.prob_round(values, draws, 5))
        # The driver draws exactly one uniform per entry: the generator
        # state afterwards equals a fresh generator's after len(values)
        # uniforms.
        generator = np.random.default_rng(42)
        probabilistic_round(values, rng=generator, maximum=5)
        fresh = np.random.default_rng(42)
        fresh.random(values.size)
        assert generator.random() == fresh.random()

    def test_scale_histogram_matches(self, reference):
        histogram = np.random.default_rng(9).integers(0, 40, 120)
        got = scale_histogram(histogram, 321.5, maximum=30, rng=7)
        expected = reference.scale_histogram(
            histogram, 321.5, 30, np.random.default_rng(7)
        )
        assert np.array_equal(got, expected)

    def test_bitset_estimator_matches(self, reference):
        a = random_sparse(70, 30, 0.15, seed=3)
        b = random_sparse(30, 40, 0.25, seed=4)
        synopsis = BitsetEstimator()._propagate_matmul(pack_matrix(a), pack_matrix(b))
        expected = reference.packed_bool_product(
            a.toarray() != 0, b.toarray() != 0
        )
        assert synopsis.bits.tobytes() == expected.tobytes()
        assert synopsis.nnz_estimate == np.count_nonzero((a @ b).toarray())


class TestScratchSemantics:
    """Scratch reuse across kernel calls must never corrupt results."""

    def test_round_results_survive_scratch_reuse(self):
        first = probabilistic_round(np.full(300, 2.5), rng=0)
        first_copy = first.copy()
        second = probabilistic_round(np.full(300, 7.25), rng=1)
        # Results are freshly allocated: reusing the draw scratch for the
        # second call must not alias or clobber the first.
        assert np.array_equal(first, first_copy)
        assert not np.shares_memory(first, second)
        assert set(np.unique(first)) <= {2, 3}
        assert set(np.unique(second)) <= {7, 8}

    def test_numpy_log1p_scratch_does_not_alias_driver_out(self):
        rng = np.random.default_rng(10)
        buffer = np.empty(900)
        # Grow then shrink: the second call reads a sliced scratch view.
        for n in (900, 40, 513, 7):
            v_a = buffer[:n]
            v_a[:] = rng.integers(0, 30, n)
            v_b = rng.integers(0, 30, n).astype(np.float64)
            before = v_a.copy()
            got = density_map_vector_estimate(v_a, v_b, 1e5)
            assert np.array_equal(v_a, before)
            assert got == density_map_vector_estimate(before, v_b, 1e5)
            expected = PythonReference.density_map(before, v_b, 1e5)
            assert _ulps(got, expected) <= ULP_BOUND

    def test_interleaved_sizes_stay_identical(self, reference):
        rng = np.random.default_rng(12)
        sizes = [513, 7, 1024, 64, 1]
        inputs = [
            (rng.integers(0, 30, n).astype(np.float64),
             rng.integers(0, 30, n).astype(np.float64))
            for n in sizes
        ]
        first = [density_map_vector_estimate(a, b, 1e5) for a, b in inputs]
        # Replaying in reverse order resizes the scratch differently.
        again = [density_map_vector_estimate(a, b, 1e5) for a, b in inputs[::-1]]
        assert first == again[::-1]
        for (a, b), got in zip(inputs, first):
            assert _ulps(got, reference.density_map(a, b, 1e5)) <= ULP_BOUND
