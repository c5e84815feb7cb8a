"""Naive bitset estimator ``E_bmm`` (paper Section 2.1, Eq 3).

Boolean matrices are stored bit-packed (8 cells per byte, little bit order)
and the estimator performs an exact boolean matrix multiplication: bitwise
AND is multiply, bitwise OR is sum. The estimate is always exact, but the
synopsis is dense — ``m*n/8`` bytes — which is the estimator's downfall on
ultra-sparse inputs (Figures 9 and 11 in the paper).

Two product kernels are provided: the default vectorized kernel OR-combines
whole row blocks per output row, while ``kernel="scalar"`` ORs one operand
row at a time from the interpreter loop. The paper's Appendix B studies a
multi-threaded bitset; in this single-process reproduction the vectorized vs
scalar pair plays that role (roughly an order of magnitude apart).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.estimators.base import SparsityEstimator, Synopsis, register_estimator
from repro.matrix import ops as mops
from repro.matrix.conversion import MatrixLike, as_csr

_CHUNK_ROWS = 2048


class BitsetSynopsis(Synopsis):
    """Bit-packed boolean structure of a matrix."""

    __slots__ = ("_shape", "_bits", "_nnz")

    def __init__(self, shape: tuple[int, int], bits: np.ndarray):
        self._shape = (int(shape[0]), int(shape[1]))
        self._bits = bits
        self._nnz = int(np.bitwise_count(bits).sum())

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz_estimate(self) -> float:
        return float(self._nnz)

    @property
    def bits(self) -> np.ndarray:
        """The packed ``uint8`` bit matrix of shape ``(m, ceil(n/8))``."""
        return self._bits

    def size_bytes(self) -> int:
        return self._bits.nbytes

    def to_bool_rows(self, start: int, stop: int) -> np.ndarray:
        """Unpack rows ``start:stop`` to a dense boolean block."""
        n = self._shape[1]
        unpacked = np.unpackbits(
            self._bits[start:stop], axis=1, count=n, bitorder="little"
        )
        return unpacked.astype(bool)

    def to_csr(self) -> sp.csr_array:
        """Materialize the full boolean structure as a 0/1 CSR matrix."""
        m, n = self._shape
        blocks = []
        for start in range(0, max(m, 1), _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, m)
            if start >= stop:
                break
            blocks.append(sp.csr_array(self.to_bool_rows(start, stop).astype(np.int8)))
        if not blocks:
            return sp.csr_array((m, n))
        return sp.csr_array(sp.vstack(blocks, format="csr"))


def pack_matrix(matrix: MatrixLike) -> BitsetSynopsis:
    """Pack the non-zero structure of *matrix* into a bitset synopsis."""
    csr = as_csr(matrix)
    m, n = csr.shape
    words = (n + 7) // 8
    bits = np.zeros((m, max(words, 1)), dtype=np.uint8)
    coo = csr.tocoo()
    byte_col = coo.col >> 3
    bit_values = np.left_shift(
        np.uint8(1), (coo.col & 7).astype(np.uint8), dtype=np.uint8
    )
    np.bitwise_or.at(bits, (coo.row, byte_col), bit_values)
    return BitsetSynopsis((m, n), bits)


@register_estimator("bitset")
class BitsetEstimator(SparsityEstimator):
    """Exact boolean-matrix-multiply estimator.

    Args:
        kernel: ``"vectorized"`` (default) or ``"scalar"`` — see module doc.
    """

    name = "Bitset"
    contract_tags = frozenset({"exact"})

    def __init__(self, *, kernel: str = "vectorized"):
        if kernel not in ("vectorized", "scalar"):
            raise ValueError(f"unknown bitset kernel {kernel!r}")
        self.kernel = kernel

    def build(self, matrix: MatrixLike) -> BitsetSynopsis:
        return pack_matrix(matrix)

    # -- products -------------------------------------------------------

    def _propagate_matmul(self, a: BitsetSynopsis, b: BitsetSynopsis) -> BitsetSynopsis:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
        m = a.shape[0]
        l = b.shape[1]
        out_words = b.bits.shape[1]
        out = np.zeros((m, out_words), dtype=np.uint8)
        b_bits = b.bits
        for start in range(0, m, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, m)
            block = a.to_bool_rows(start, stop)
            for offset in range(stop - start):
                k_indices = np.flatnonzero(block[offset])
                if k_indices.size == 0:
                    continue
                if self.kernel == "vectorized":
                    out[start + offset] = np.bitwise_or.reduce(
                        b_bits[k_indices], axis=0
                    )
                    continue
                accumulator = out[start + offset]
                for k in k_indices:
                    np.bitwise_or(accumulator, b_bits[k], out=accumulator)
        return BitsetSynopsis((m, l), out)

    def _estimate_matmul(self, a: BitsetSynopsis, b: BitsetSynopsis) -> float:
        return self._propagate_matmul(a, b).nnz_estimate

    # -- element-wise (exact bit operations) ------------------------------

    def _propagate_ewise_add(self, a: BitsetSynopsis, b: BitsetSynopsis) -> BitsetSynopsis:
        if a.shape != b.shape:
            raise ShapeError(f"ewise_add shape mismatch: {a.shape} vs {b.shape}")
        return BitsetSynopsis(a.shape, np.bitwise_or(a.bits, b.bits))

    def _estimate_ewise_add(self, a: BitsetSynopsis, b: BitsetSynopsis) -> float:
        return self._propagate_ewise_add(a, b).nnz_estimate

    def _propagate_ewise_mult(self, a: BitsetSynopsis, b: BitsetSynopsis) -> BitsetSynopsis:
        if a.shape != b.shape:
            raise ShapeError(f"ewise_mult shape mismatch: {a.shape} vs {b.shape}")
        return BitsetSynopsis(a.shape, np.bitwise_and(a.bits, b.bits))

    def _estimate_ewise_mult(self, a: BitsetSynopsis, b: BitsetSynopsis) -> float:
        return self._propagate_ewise_mult(a, b).nnz_estimate

    # -- reorganizations (exact via materialization) -----------------------

    def _rebuild(self, structure: sp.csr_array) -> BitsetSynopsis:
        return pack_matrix(structure)

    def _propagate_transpose(self, a: BitsetSynopsis) -> BitsetSynopsis:
        return self._rebuild(mops.transpose(a.to_csr()))

    def _estimate_transpose(self, a: BitsetSynopsis) -> float:
        return a.nnz_estimate

    def _propagate_reshape(self, a: BitsetSynopsis, *, rows: int, cols: int) -> BitsetSynopsis:
        return self._rebuild(mops.reshape_rowwise(a.to_csr(), rows, cols))

    def _estimate_reshape(self, a: BitsetSynopsis, *, rows: int, cols: int) -> float:
        if rows * cols != a.cells:
            raise ShapeError(
                f"cannot reshape {a.shape} into {rows}x{cols}: cell counts differ"
            )
        return a.nnz_estimate

    def _propagate_diag_v2m(self, a: BitsetSynopsis) -> BitsetSynopsis:
        return self._rebuild(mops.diag_matrix(a.to_csr()))

    def _estimate_diag_v2m(self, a: BitsetSynopsis) -> float:
        return a.nnz_estimate

    def _propagate_diag_m2v(self, a: BitsetSynopsis) -> BitsetSynopsis:
        return self._rebuild(mops.diag_extract(a.to_csr()))

    def _estimate_diag_m2v(self, a: BitsetSynopsis) -> float:
        return self._propagate_diag_m2v(a).nnz_estimate

    def _propagate_rbind(self, a: BitsetSynopsis, b: BitsetSynopsis) -> BitsetSynopsis:
        if a.shape[1] != b.shape[1]:
            raise ShapeError(f"rbind shape mismatch: {a.shape} vs {b.shape}")
        return BitsetSynopsis(
            (a.shape[0] + b.shape[0], a.shape[1]),
            np.vstack([a.bits, b.bits]),
        )

    def _estimate_rbind(self, a: BitsetSynopsis, b: BitsetSynopsis) -> float:
        return a.nnz_estimate + b.nnz_estimate

    def _propagate_cbind(self, a: BitsetSynopsis, b: BitsetSynopsis) -> BitsetSynopsis:
        return self._rebuild(mops.cbind(a.to_csr(), b.to_csr()))

    def _estimate_cbind(self, a: BitsetSynopsis, b: BitsetSynopsis) -> float:
        return a.nnz_estimate + b.nnz_estimate

    def _propagate_neq_zero(self, a: BitsetSynopsis) -> BitsetSynopsis:
        return a

    def _estimate_neq_zero(self, a: BitsetSynopsis) -> float:
        return a.nnz_estimate

    def _propagate_eq_zero(self, a: BitsetSynopsis) -> BitsetSynopsis:
        m, n = a.shape
        inverted = np.bitwise_not(a.bits)
        # Mask out padding bits beyond column n in the last byte.
        tail_bits = n & 7
        if tail_bits and inverted.shape[1]:
            mask = np.uint8((1 << tail_bits) - 1)
            inverted[:, -1] &= mask
        return BitsetSynopsis((m, n), inverted)

    def _estimate_eq_zero(self, a: BitsetSynopsis) -> float:
        return a.cells - a.nnz_estimate

    def _propagate_row_sums(self, a: BitsetSynopsis) -> BitsetSynopsis:
        return self._rebuild(mops.row_sums(a.to_csr()))

    def _estimate_row_sums(self, a: BitsetSynopsis) -> float:
        # Exact from the packed bits: a row is non-empty iff any word is set.
        return float(np.count_nonzero(a.bits.any(axis=1)))

    def _propagate_col_sums(self, a: BitsetSynopsis) -> BitsetSynopsis:
        return self._rebuild(mops.col_sums(a.to_csr()))

    def _estimate_col_sums(self, a: BitsetSynopsis) -> float:
        # Exact from the packed bits, mirroring the row-sums twin: a column
        # is non-empty iff its bit survives an OR over all rows. Padding
        # bits beyond column n are zero in every row, so they stay zero.
        if a.bits.shape[0] == 0:
            return 0.0
        merged = np.bitwise_or.reduce(a.bits, axis=0)
        return float(np.bitwise_count(merged).sum())
