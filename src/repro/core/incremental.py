"""Incremental MNC sketch maintenance for dynamic matrices.

Every estimator in the library assumes build-once matrices: you sketch a
matrix with :meth:`MNCSketch.from_matrix` and the sketch is immutable.
Production traffic mutates data — rows are appended to feature matrices,
sliding-window graphs drop old vertices, recommender blocks are rewritten
in place. Rebuilding an ``O(nnz)`` sketch for an ``O(delta)`` change wastes
almost all of its work: the paper's row/column histograms are cheaply
patchable per delta, and only the *extension vectors* (``her``/``hec``,
Section 3.1) need a repair rule because they couple the two axes.

:class:`IncrementalSketch` holds the evolving non-zero *structure* (MNC
never looks at values) and maintains the sketch ingredients under five
delta kinds:

- :class:`AppendRows` / :class:`AppendCols` — new trailing rows/columns
  with explicit non-zero patterns,
- :class:`DeleteRows` / :class:`DeleteCols` — drop rows/columns by
  position (later positions shift down, as in a database compaction),
- :class:`BlockUpdate` — overwrite the structure of a contiguous
  submatrix with a new boolean pattern.

Internally rows and columns live in *slots*: monotonically increasing
ids that are never renumbered while alive (appends take fresh ids,
deletes only flip an alive bit). Because appends always allocate past
the current maximum, ascending slot order equals ascending *position*
order at all times, and compaction to position space is a single fancy
index per axis. Adjacency is kept per-slot with lazy hygiene — deleted
slots linger in neighbour lists and are filtered through the alive masks
on read — so a delete is ``O(delta)`` instead of ``O(nnz)``.

The extension repair rule (the paper's ``e_max`` analogue) is lazy and
local, in the spirit of Du et al.'s sampled probes (PAPERS.md): a row
``r`` is ``her``-dirty when its own structure changed or when some
column it intersects crossed the ``hc == 1`` boundary; symmetrically for
``hec``. Dirty entries are recomputed only at materialization time and
only from their own adjacency. :meth:`IncrementalSketch.sketch` performs
the repair and returns an :class:`MNCSketch` *field-identical* to
``MNCSketch.from_matrix`` on the rebuilt matrix (the differential
``incremental_equals_rebuild`` verify contract fuzzes exactly this
equivalence); :meth:`IncrementalSketch.peek` skips the repair and
returns a degraded sketch with extensions dropped and ``exact=False``
whenever a delta made them stale.

See docs/STREAMING.md for the delta model, the repair rule, and how
deltas chain into catalog delta-fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.core.sketch import MNCSketch
from repro.errors import ShapeError, SketchError
from repro.matrix.conversion import MatrixLike, as_csc, as_csr
from repro.observability.metrics import count

__all__ = [
    "AppendCols",
    "AppendRows",
    "BlockUpdate",
    "Delta",
    "DeleteCols",
    "DeleteRows",
    "IncrementalSketch",
    "apply_update",
    "apply_updates",
    "delta_from_payload",
    "delta_to_payload",
    "random_deltas",
]

_INT = np.int64


def _positions(values, axis_name: str) -> np.ndarray:
    """Normalize *values* to a sorted, unique int64 position vector."""
    arr = np.asarray(values, dtype=_INT).reshape(-1)
    if arr.size and arr.min() < 0:
        raise SketchError(f"{axis_name} positions must be non-negative")
    return np.unique(arr)


def _pattern_tuple(patterns, axis_name: str) -> tuple[np.ndarray, ...]:
    return tuple(_positions(p, axis_name) for p in patterns)


@dataclass(frozen=True, eq=False)
class AppendRows:
    """Append ``len(patterns)`` rows; each pattern lists its non-zero columns."""

    patterns: tuple[np.ndarray, ...]

    def __init__(self, patterns: Iterable) -> None:
        object.__setattr__(
            self, "patterns", _pattern_tuple(patterns, "column")
        )


@dataclass(frozen=True, eq=False)
class AppendCols:
    """Append ``len(patterns)`` columns; each pattern lists its non-zero rows."""

    patterns: tuple[np.ndarray, ...]

    def __init__(self, patterns: Iterable) -> None:
        object.__setattr__(self, "patterns", _pattern_tuple(patterns, "row"))


@dataclass(frozen=True, eq=False)
class DeleteRows:
    """Delete rows by current position (later rows shift up)."""

    positions: np.ndarray

    def __init__(self, positions) -> None:
        object.__setattr__(self, "positions", _positions(positions, "row"))


@dataclass(frozen=True, eq=False)
class DeleteCols:
    """Delete columns by current position (later columns shift left)."""

    positions: np.ndarray

    def __init__(self, positions) -> None:
        object.__setattr__(self, "positions", _positions(positions, "column"))


@dataclass(frozen=True, eq=False)
class BlockUpdate:
    """Overwrite the structure of a submatrix with a boolean pattern.

    The block spans rows ``[row_start, row_start + pattern.shape[0])`` and
    columns ``[col_start, col_start + pattern.shape[1])`` in *position*
    space; cells inside the block take exactly the pattern's structure,
    cells outside are untouched.
    """

    row_start: int
    col_start: int
    pattern: np.ndarray

    def __init__(self, row_start: int, col_start: int, pattern) -> None:
        pat = np.ascontiguousarray(np.asarray(pattern) != 0)
        if pat.ndim != 2:
            raise SketchError(
                f"block pattern must be 2-D, got shape {pat.shape}"
            )
        if row_start < 0 or col_start < 0:
            raise SketchError("block origin must be non-negative")
        object.__setattr__(self, "row_start", int(row_start))
        object.__setattr__(self, "col_start", int(col_start))
        object.__setattr__(self, "pattern", pat)


Delta = Union[AppendRows, AppendCols, DeleteRows, DeleteCols, BlockUpdate]

_DELTA_KINDS = {
    AppendRows: "append_rows",
    AppendCols: "append_cols",
    DeleteRows: "delete_rows",
    DeleteCols: "delete_cols",
    BlockUpdate: "block",
}


def delta_to_payload(delta: Delta) -> dict:
    """Encode *delta* as a JSON-safe dict (the serve wire format)."""
    if isinstance(delta, (AppendRows, AppendCols)):
        return {
            "kind": _DELTA_KINDS[type(delta)],
            "patterns": [p.tolist() for p in delta.patterns],
        }
    if isinstance(delta, (DeleteRows, DeleteCols)):
        return {
            "kind": _DELTA_KINDS[type(delta)],
            "positions": delta.positions.tolist(),
        }
    if isinstance(delta, BlockUpdate):
        return {
            "kind": "block",
            "row_start": delta.row_start,
            "col_start": delta.col_start,
            "pattern": delta.pattern.astype(np.uint8).tolist(),
        }
    raise SketchError(f"unknown delta type {type(delta).__name__}")


def delta_from_payload(obj: object) -> Delta:
    """Decode a dict produced by :func:`delta_to_payload`.

    Raises :class:`SketchError` on malformed payloads; the serve protocol
    layer maps that to a 400.
    """
    if not isinstance(obj, dict):
        raise SketchError("delta payload must be an object")
    kind = obj.get("kind")
    try:
        if kind == "append_rows":
            return AppendRows(obj["patterns"])
        if kind == "append_cols":
            return AppendCols(obj["patterns"])
        if kind == "delete_rows":
            return DeleteRows(obj["positions"])
        if kind == "delete_cols":
            return DeleteCols(obj["positions"])
        if kind == "block":
            return BlockUpdate(
                obj["row_start"], obj["col_start"], obj["pattern"]
            )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SketchError):
            raise
        raise SketchError(f"malformed {kind!r} delta payload: {exc}") from exc
    raise SketchError(f"unknown delta kind {kind!r}")


def _segment_counts(bases: list, predicate) -> np.ndarray:
    """Per-segment count of ``predicate`` hits over concatenated *bases*.

    One vectorized pass instead of one numpy round trip per segment —
    the repair loop calls this for every dirty row/column batch.
    """
    sizes = np.fromiter((b.size for b in bases), dtype=_INT, count=len(bases))
    bounds = np.zeros(len(bases) + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    if not bounds[-1]:
        return np.zeros(len(bases), dtype=_INT)
    hits = np.concatenate(([0], np.cumsum(predicate(np.concatenate(bases)))))
    return (hits[bounds[1:]] - hits[bounds[:-1]]).astype(_INT)


def _grow(arr: np.ndarray, need: int) -> np.ndarray:
    if need <= arr.size:
        return arr
    new = np.zeros(max(need, 2 * arr.size, 16), dtype=arr.dtype)
    new[: arr.size] = arr
    return new


class IncrementalSketch:
    """Mutable MNC sketch over an evolving sparse structure.

    The instance owns the structure: construct it from a matrix, feed it
    deltas via :func:`apply_update`, and materialize immutable
    :class:`MNCSketch` snapshots with :meth:`sketch` (exact, repaired) or
    :meth:`peek` (cheap, possibly degraded). ``O(m + n + delta)`` per
    update/materialization cycle versus ``O(nnz)`` for a rebuild.

    Not thread-safe; callers serialize updates (the serve registry holds
    one per matrix behind its own lock).
    """

    def __init__(self, matrix: MatrixLike) -> None:
        csr = as_csr(matrix)
        csc = as_csc(csr)
        m, n = csr.shape
        indices = csr.indices.astype(_INT, copy=False)
        cindices = csc.indices.astype(_INT, copy=False)
        self._rows: list[np.ndarray] = (
            np.split(indices, csr.indptr[1:-1]) if m else []
        )
        self._cols: list[np.ndarray] = (
            np.split(cindices, csc.indptr[1:-1]) if n else []
        )
        self._hr = np.diff(csr.indptr).astype(_INT)
        self._hc = np.diff(csc.indptr).astype(_INT)
        # Full extension vectors, valid everywhere at construction (the
        # from_matrix gating — drop when all-zero or max counts <= 1 —
        # is applied at materialization, not here).
        single_cols = self._hc == 1
        row_ids = np.repeat(np.arange(m), self._hr)
        self._her = np.bincount(
            row_ids[single_cols[indices]], minlength=m
        ).astype(_INT)
        single_rows = self._hr == 1
        col_ids = np.repeat(np.arange(n), self._hc)
        self._hec = np.bincount(
            col_ids[single_rows[cindices]], minlength=n
        ).astype(_INT)
        self._row_alive = np.ones(m, dtype=bool)
        self._col_alive = np.ones(n, dtype=bool)
        self._row_top = m
        self._col_top = n
        self._m = m
        self._n = n
        self._nnz = int(csr.nnz)
        # Lazy adjacency hygiene: cells added after construction live in
        # the extra sets, cells removed by block updates in the removed
        # sets; reads merge them. Row-side removals are never needed —
        # block updates rewrite row bases wholesale and column deletes
        # are handled by the alive mask.
        self._row_extra: dict[int, set[int]] = {}
        self._col_extra: dict[int, set[int]] = {}
        self._col_removed: dict[int, set[int]] = {}
        # Col-side cells from appended rows, kept as whole (rows, cols)
        # batches: appends are the streaming hot path, so they must not
        # pay per-cell dict/set work. Reads merge these lazily; a batch
        # entry is superseded by the alive masks and ``_col_removed`` the
        # same way base cells are, and compaction folds them away.
        self._col_pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._her_dirty: set[int] = set()
        self._hec_dirty: set[int] = set()
        self._alive_rows_cache: Optional[np.ndarray] = None
        self._alive_cols_cache: Optional[np.ndarray] = None
        self._cached_sketch: Optional[MNCSketch] = None
        self._pending_cells = 0
        self._updates_applied = 0
        self._compactions = 0

    @classmethod
    def from_matrix(cls, matrix: MatrixLike) -> IncrementalSketch:
        """Build the incremental sketch of *matrix* (alias of the ctor)."""
        return cls(matrix)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self._m, self._n)

    @property
    def total_nnz(self) -> int:
        return self._nnz

    @property
    def extensions_stale(self) -> bool:
        """True when a delta invalidated extension entries not yet repaired."""
        return bool(self._her_dirty or self._hec_dirty)

    def stats(self) -> dict:
        """Bookkeeping counters (slots, dirtiness, compactions)."""
        return {
            "shape": self.shape,
            "nnz": self._nnz,
            "row_slots": self._row_top,
            "col_slots": self._col_top,
            "dead_rows": self._row_top - self._m,
            "dead_cols": self._col_top - self._n,
            "her_dirty": len(self._her_dirty),
            "hec_dirty": len(self._hec_dirty),
            "pending_cells": self._pending_cells,
            "updates_applied": self._updates_applied,
            "compactions": self._compactions,
        }

    # ------------------------------------------------------------------
    # Slot-space helpers
    # ------------------------------------------------------------------

    def _alive_row_slots(self) -> np.ndarray:
        if self._alive_rows_cache is None:
            self._alive_rows_cache = np.flatnonzero(
                self._row_alive[: self._row_top]
            )
        return self._alive_rows_cache

    def _alive_col_slots(self) -> np.ndarray:
        if self._alive_cols_cache is None:
            self._alive_cols_cache = np.flatnonzero(
                self._col_alive[: self._col_top]
            )
        return self._alive_cols_cache

    def _row_struct(self, r: int) -> np.ndarray:
        """Alive column slots of row slot *r*, ascending."""
        base = self._rows[r]
        if base.size:
            base = base[self._col_alive[base]]
        extra = self._row_extra.get(r)
        if extra:
            add = np.fromiter(extra, dtype=_INT, count=len(extra))
            add = add[self._col_alive[add]]
            if add.size:
                # Extras are always newer (larger) slots than the base.
                base = np.concatenate([base, np.sort(add)])
        return base

    def _col_struct(self, c: int) -> np.ndarray:
        """Alive row slots of column slot *c* (order unspecified).

        Every consumer aggregates (bincounts, boundary marking, extension
        counts), so merge order between base, pending, and extra cells
        does not matter.
        """
        base = self._cols[c]
        if base.size:
            base = base[self._row_alive[base]]
        pend: list[np.ndarray] = []
        for rb, cb in self._col_pending:
            hit = rb[cb == c]
            if hit.size:
                hit = hit[self._row_alive[hit]]
                if hit.size:
                    pend.append(hit)
        if pend:
            base = np.concatenate([base, *pend])
        removed = self._col_removed.get(c)
        if removed and base.size:
            rem = np.fromiter(removed, dtype=_INT, count=len(removed))
            base = base[np.isin(base, rem, invert=True)]
        extra = self._col_extra.get(c)
        if extra:
            add = np.fromiter(extra, dtype=_INT, count=len(extra))
            add = add[self._row_alive[add]]
            if add.size:
                base = np.concatenate([base, np.sort(add)])
        return base

    def _add_cell_colside(self, r: int, c: int) -> None:
        removed = self._col_removed.get(c)
        if removed and r in removed:
            removed.discard(r)
        else:
            self._col_extra.setdefault(c, set()).add(r)
        self._pending_cells += 1

    def _add_cells_rowside(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Row-side twin of :meth:`_add_cells_colside` (appended columns).

        Row-side removals never exist (see the adjacency-hygiene note in
        ``__init__``), so every cell lands in ``_row_extra`` directly.
        """
        order = np.argsort(rows, kind="stable")
        rs = rows[order]
        cs = cols[order].tolist()
        starts = np.flatnonzero(np.diff(rs)) + 1
        bounds = [0] + starts.tolist() + [rs.size]
        heads = rs[np.concatenate(([0], starts))].tolist() if rs.size else []
        row_extra = self._row_extra
        for gi, r in enumerate(heads):
            segment = cs[bounds[gi]:bounds[gi + 1]]
            extra = row_extra.get(r)
            if extra is None:
                row_extra[r] = set(segment)
            else:
                extra.update(segment)
        self._pending_cells += int(rows.size)

    def _remove_cell_colside(self, r: int, c: int) -> None:
        extra = self._col_extra.get(c)
        if extra and r in extra:
            extra.discard(r)
        else:
            self._col_removed.setdefault(c, set()).add(r)
        self._pending_cells += 1

    # ------------------------------------------------------------------
    # Dirty marking (the repair rule's write side)
    # ------------------------------------------------------------------
    #
    # her[r] depends on row r's own structure and on which of its columns
    # hold exactly one non-zero. So r goes dirty when its structure
    # changes, and every member row of a column goes dirty when that
    # column's count crosses the hc == 1 boundary. hec is symmetric.

    def _mark_her_for_hc_boundary(
        self, affected: np.ndarray, old_hc: np.ndarray
    ) -> None:
        new_hc = self._hc[affected]
        crossing = affected[
            (new_hc != old_hc) & ((old_hc == 1) | (new_hc == 1))
        ]
        for c in crossing.tolist():
            self._her_dirty.update(self._col_struct(c).tolist())

    def _mark_hec_for_hr_boundary(
        self, affected: np.ndarray, old_hr: np.ndarray
    ) -> None:
        new_hr = self._hr[affected]
        crossing = affected[
            (new_hr != old_hr) & ((old_hr == 1) | (new_hr == 1))
        ]
        for r in crossing.tolist():
            self._hec_dirty.update(self._row_struct(r).tolist())

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------

    def _apply_append_rows(self, delta: AppendRows) -> None:
        patterns = delta.patterns
        if not patterns:
            return
        n = self._n
        for pat in patterns:
            if pat.size and pat[-1] >= n:
                raise ShapeError(
                    f"appended row touches column {int(pat[-1])} "
                    f"but the matrix has {n} columns"
                )
        alive_cols = self._alive_col_slots()
        k = len(patterns)
        top = self._row_top
        self._hr = _grow(self._hr, top + k)
        self._her = _grow(self._her, top + k)
        self._row_alive = _grow(self._row_alive, top + k)
        slot_patterns = []
        sizes = np.empty(k, dtype=_INT)
        for i, pat in enumerate(patterns):
            cols = alive_cols[pat] if pat.size else pat.astype(_INT, copy=False)
            self._rows.append(cols)
            slot_patterns.append(cols)
            sizes[i] = cols.size
            if cols.size == 1:
                self._hec_dirty.add(int(cols[0]))
        self._hr[top:top + k] = sizes
        self._her[top:top + k] = 0
        self._row_alive[top:top + k] = True
        self._her_dirty.update(range(top, top + k))
        self._row_top = top + k
        self._m += k
        added = (
            np.concatenate(slot_patterns)
            if any(p.size for p in slot_patterns)
            else np.empty(0, dtype=_INT)
        )
        if added.size:
            owners = np.repeat(np.arange(top, top + k, dtype=_INT), sizes)
            self._col_pending.append((owners, added))
            self._pending_cells += int(added.size)
            inc = np.bincount(added, minlength=self._col_top)
            affected = np.flatnonzero(inc)
            old_hc = self._hc[affected].copy()
            self._hc[affected] += inc[affected]
            self._nnz += int(added.size)
            self._mark_her_for_hc_boundary(affected, old_hc)
        self._alive_rows_cache = None

    def _apply_append_cols(self, delta: AppendCols) -> None:
        patterns = delta.patterns
        if not patterns:
            return
        m = self._m
        for pat in patterns:
            if pat.size and pat[-1] >= m:
                raise ShapeError(
                    f"appended column touches row {int(pat[-1])} "
                    f"but the matrix has {m} rows"
                )
        alive_rows = self._alive_row_slots()
        k = len(patterns)
        top = self._col_top
        self._hc = _grow(self._hc, top + k)
        self._hec = _grow(self._hec, top + k)
        self._col_alive = _grow(self._col_alive, top + k)
        slot_patterns = []
        sizes = np.empty(k, dtype=_INT)
        for i, pat in enumerate(patterns):
            rows = alive_rows[pat] if pat.size else pat.astype(_INT, copy=False)
            self._cols.append(rows)
            slot_patterns.append(rows)
            sizes[i] = rows.size
            if rows.size == 1:
                self._her_dirty.add(int(rows[0]))
        self._hc[top:top + k] = sizes
        self._hec[top:top + k] = 0
        self._col_alive[top:top + k] = True
        self._hec_dirty.update(range(top, top + k))
        self._col_top = top + k
        self._n += k
        added = (
            np.concatenate(slot_patterns)
            if any(p.size for p in slot_patterns)
            else np.empty(0, dtype=_INT)
        )
        if added.size:
            owners = np.repeat(np.arange(top, top + k, dtype=_INT), sizes)
            self._add_cells_rowside(added, owners)
            inc = np.bincount(added, minlength=self._row_top)
            affected = np.flatnonzero(inc)
            old_hr = self._hr[affected].copy()
            self._hr[affected] += inc[affected]
            self._nnz += int(added.size)
            self._mark_hec_for_hr_boundary(affected, old_hr)
        self._alive_cols_cache = None

    def _apply_delete_rows(self, delta: DeleteRows) -> None:
        positions = delta.positions
        if not positions.size:
            return
        if positions[-1] >= self._m:
            raise ShapeError(
                f"cannot delete row {int(positions[-1])} "
                f"of a {self._m}-row matrix"
            )
        slots = self._alive_row_slots()[positions]
        structs = [self._row_struct(int(r)) for r in slots]
        removed_cells = (
            np.concatenate(structs)
            if any(s.size for s in structs)
            else np.empty(0, dtype=_INT)
        )
        for r, struct in zip(slots.tolist(), structs):
            self._row_alive[r] = False
            self._her_dirty.discard(r)
            if self._hr[r] == 1:
                # A single-nnz row contributed to hec of its one column.
                self._hec_dirty.add(int(struct[0]))
        self._m -= int(slots.size)
        if removed_cells.size:
            dec = np.bincount(removed_cells, minlength=self._col_top)
            affected = np.flatnonzero(dec)
            old_hc = self._hc[affected].copy()
            self._hc[affected] -= dec[affected]
            self._nnz -= int(removed_cells.size)
            self._mark_her_for_hc_boundary(affected, old_hc)
        self._alive_rows_cache = None
        self._maybe_compact()

    def _apply_delete_cols(self, delta: DeleteCols) -> None:
        positions = delta.positions
        if not positions.size:
            return
        if positions[-1] >= self._n:
            raise ShapeError(
                f"cannot delete column {int(positions[-1])} "
                f"of a {self._n}-column matrix"
            )
        slots = self._alive_col_slots()[positions]
        structs = [self._col_struct(int(c)) for c in slots]
        removed_cells = (
            np.concatenate(structs)
            if any(s.size for s in structs)
            else np.empty(0, dtype=_INT)
        )
        for c, struct in zip(slots.tolist(), structs):
            self._col_alive[c] = False
            self._hec_dirty.discard(c)
            if self._hc[c] == 1:
                self._her_dirty.add(int(struct[0]))
        self._n -= int(slots.size)
        if removed_cells.size:
            dec = np.bincount(removed_cells, minlength=self._row_top)
            affected = np.flatnonzero(dec)
            old_hr = self._hr[affected].copy()
            self._hr[affected] -= dec[affected]
            self._nnz -= int(removed_cells.size)
            self._mark_hec_for_hr_boundary(affected, old_hr)
        self._alive_cols_cache = None
        self._maybe_compact()

    def _apply_block(self, delta: BlockUpdate) -> None:
        bh, bw = delta.pattern.shape
        r0, c0 = delta.row_start, delta.col_start
        if r0 + bh > self._m or c0 + bw > self._n:
            raise ShapeError(
                f"block [{r0}:{r0 + bh}, {c0}:{c0 + bw}] exceeds "
                f"matrix shape {self.shape}"
            )
        if bh == 0 or bw == 0:
            return
        alive_rows = self._alive_row_slots()
        alive_cols = self._alive_col_slots()
        block_col_slots = alive_cols[c0 : c0 + bw]
        lo = int(block_col_slots[0])
        hi = int(block_col_slots[-1])
        added_all: list[np.ndarray] = []
        removed_all: list[np.ndarray] = []
        hec_mark: set[int] = set()
        for i in range(bh):
            r = int(alive_rows[r0 + i])
            old_struct = self._row_struct(r)
            in_block = (old_struct >= lo) & (old_struct <= hi)
            old_block = old_struct[in_block]
            new_block = block_col_slots[np.flatnonzero(delta.pattern[i])]
            old_hr = int(self._hr[r])
            if old_block.size == new_block.size and np.array_equal(
                old_block, new_block
            ):
                continue
            outside = old_struct[~in_block]
            new_struct = np.sort(np.concatenate([outside, new_block]))
            removed = np.setdiff1d(old_block, new_block, assume_unique=True)
            added = np.setdiff1d(new_block, old_block, assume_unique=True)
            self._rows[r] = new_struct
            self._row_extra.pop(r, None)
            new_hr = int(new_struct.size)
            self._hr[r] = new_hr
            self._her_dirty.add(r)
            for c in added.tolist():
                self._add_cell_colside(r, c)
            for c in removed.tolist():
                self._remove_cell_colside(r, c)
            if added.size:
                added_all.append(added)
            if removed.size:
                removed_all.append(removed)
            # hr crossing the == 1 boundary (or a single-nnz row moving
            # its one cell) shifts hec contributions on both old and new
            # column sets.
            if old_hr == 1:
                hec_mark.update(old_struct.tolist())
            if new_hr == 1:
                hec_mark.update(new_struct.tolist())
        self._hec_dirty.update(hec_mark)
        deltas = []
        if added_all:
            add = np.concatenate(added_all)
            deltas.append((add, 1))
        if removed_all:
            rem = np.concatenate(removed_all)
            deltas.append((rem, -1))
        if deltas:
            net = np.zeros(self._col_top, dtype=_INT)
            for cells, sign in deltas:
                net += sign * np.bincount(cells, minlength=self._col_top)
                self._nnz += sign * int(cells.size)
            affected = np.flatnonzero(net)
            old_hc = self._hc[affected].copy()
            self._hc[affected] += net[affected]
            self._mark_her_for_hc_boundary(affected, old_hc)
        self._maybe_compact()

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def _maybe_compact(self) -> None:
        dead = (self._row_top - self._m) + (self._col_top - self._n)
        alive = self._m + self._n
        if dead > alive + 64 or self._pending_cells > max(
            1024, 2 * self._nnz
        ):
            self._compact()

    def _compact(self) -> None:
        """Renumber slots to position space and drop lazy hygiene debt."""
        rows_idx = self._alive_row_slots()
        cols_idx = self._alive_col_slots()
        csr = self._structure()
        csc = as_csc(csr)
        m, n = self._m, self._n
        her_dirty = {
            int(np.searchsorted(rows_idx, r))
            for r in self._her_dirty
            if self._row_alive[r]
        }
        hec_dirty = {
            int(np.searchsorted(cols_idx, c))
            for c in self._hec_dirty
            if self._col_alive[c]
        }
        self._rows = (
            np.split(csr.indices.astype(_INT, copy=False), csr.indptr[1:-1])
            if m
            else []
        )
        self._cols = (
            np.split(csc.indices.astype(_INT, copy=False), csc.indptr[1:-1])
            if n
            else []
        )
        self._hr = np.ascontiguousarray(self._hr[rows_idx])
        self._hc = np.ascontiguousarray(self._hc[cols_idx])
        self._her = np.ascontiguousarray(self._her[rows_idx])
        self._hec = np.ascontiguousarray(self._hec[cols_idx])
        self._row_alive = np.ones(m, dtype=bool)
        self._col_alive = np.ones(n, dtype=bool)
        self._row_top = m
        self._col_top = n
        self._row_extra.clear()
        self._col_extra.clear()
        self._col_removed.clear()
        self._col_pending.clear()
        self._her_dirty = her_dirty
        self._hec_dirty = hec_dirty
        self._alive_rows_cache = None
        self._alive_cols_cache = None
        self._pending_cells = 0
        self._compactions += 1
        count("incremental.compactions")

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def _repair(self) -> None:
        """Recompute extension entries only for touched rows/columns."""
        if self._her_dirty:
            hc = self._hc
            row_extra = self._row_extra
            fast_slots: list[int] = []
            fast_bases: list[np.ndarray] = []
            for r in self._her_dirty:
                if not self._row_alive[r]:
                    continue
                if r in row_extra:
                    cols = self._row_struct(r)
                    self._her[r] = (
                        int(np.count_nonzero(hc[cols] == 1))
                        if cols.size else 0
                    )
                else:
                    fast_slots.append(r)
                    fast_bases.append(self._rows[r])
            if fast_slots:
                self._her[fast_slots] = _segment_counts(
                    fast_bases, lambda cat: self._col_alive[cat] & (hc[cat] == 1)
                )
            count("incremental.her_repaired", len(self._her_dirty))
            self._her_dirty.clear()
        if self._hec_dirty:
            hr = self._hr
            untouched = self._fast_cols_mask()
            fast_slots = []
            fast_bases = []
            for c in self._hec_dirty:
                if not self._col_alive[c]:
                    continue
                if untouched[c]:
                    fast_slots.append(c)
                    fast_bases.append(self._cols[c])
                else:
                    rows = self._col_struct(c)
                    self._hec[c] = (
                        int(np.count_nonzero(hr[rows] == 1))
                        if rows.size else 0
                    )
            if fast_slots:
                self._hec[fast_slots] = _segment_counts(
                    fast_bases, lambda cat: self._row_alive[cat] & (hr[cat] == 1)
                )
            count("incremental.hec_repaired", len(self._hec_dirty))
            self._hec_dirty.clear()

    def _fast_cols_mask(self) -> np.ndarray:
        """Mask of column slots whose base list is the whole truth."""
        mask = np.ones(self._col_top, dtype=bool)
        for c in self._col_extra:
            mask[c] = False
        for c in self._col_removed:
            mask[c] = False
        for _, cb in self._col_pending:
            mask[cb] = False
        return mask

    def _is_diagonal(self, max_hr: int, max_hc: int) -> bool:
        m = self._m
        if m != self._n or self._nnz != m or max(max_hr, max_hc) > 1:
            return False
        # One cell per row: diagonal iff row i's cell sits in column i.
        return bool(np.array_equal(self._structure().indices, np.arange(m)))

    def sketch(self) -> MNCSketch:
        """Materialize the exact sketch (repairing dirty extensions).

        Field-identical to ``MNCSketch.from_matrix(self.to_matrix())``:
        same gating of extension vectors (built only when some count
        exceeds one, dropped when all-zero), same ``fully_diagonal``
        detection, ``exact=True``.
        """
        if self._cached_sketch is not None:
            return self._cached_sketch
        rows_idx = self._alive_row_slots()
        cols_idx = self._alive_col_slots()
        hr = np.ascontiguousarray(self._hr[rows_idx])
        hc = np.ascontiguousarray(self._hc[cols_idx])
        max_hr = int(hr.max()) if hr.size else 0
        max_hc = int(hc.max()) if hc.size else 0
        her: Optional[np.ndarray] = None
        hec: Optional[np.ndarray] = None
        if max_hr > 1 or max_hc > 1:
            self._repair()
            her = np.ascontiguousarray(self._her[rows_idx])
            hec = np.ascontiguousarray(self._hec[cols_idx])
            if not her.any():
                her = None
            if not hec.any():
                hec = None
        diagonal = self._is_diagonal(max_hr, max_hc)
        result = MNCSketch.trusted(
            shape=(self._m, self._n),
            hr=hr,
            hc=hc,
            her=her,
            hec=hec,
            fully_diagonal=diagonal,
            exact=True,
        )
        result.__dict__["_row_stats_max"] = max_hr
        result.__dict__["_col_stats_max"] = max_hc
        self._cached_sketch = result
        count("incremental.materializations")
        return result

    def peek(self) -> MNCSketch:
        """Cheap snapshot that skips extension repair.

        When no delta has staled the extensions this is exactly
        :meth:`sketch`; otherwise the histograms (always exact) are
        returned with the stale extension vectors dropped and the
        ``exact`` flag degraded to ``False``.
        """
        if not self.extensions_stale:
            return self.sketch()
        rows_idx = self._alive_row_slots()
        cols_idx = self._alive_col_slots()
        return MNCSketch.trusted(
            shape=(self._m, self._n),
            hr=np.ascontiguousarray(self._hr[rows_idx]),
            hc=np.ascontiguousarray(self._hc[cols_idx]),
            her=None,
            hec=None,
            fully_diagonal=False,
            exact=False,
        )

    def _structure(self) -> sp.csr_array:
        """The current structure as a canonical CSR array, in one pass.

        A row's extras are newer slots than its base, so a stable sort on
        the owning row appends them, ascending; slots need remapping to
        positions only while some column slot is dead.
        """
        m, n = self._m, self._n
        rows_idx = self._alive_row_slots()
        bases = self._rows
        if self._row_top != m:
            bases = [bases[r] for r in rows_idx.tolist()]
        sizes = np.fromiter(map(len, bases), dtype=_INT, count=m)
        owners = np.repeat(np.arange(m, dtype=_INT), sizes)
        cols = np.concatenate(bases) if m else np.empty(0, dtype=_INT)
        extras = [
            (r, e) for r, e in self._row_extra.items() if self._row_alive[r]
        ]
        if extras:
            ext_rows = np.repeat(
                np.searchsorted(rows_idx, [r for r, _ in extras]),
                [len(e) for _, e in extras],
            )
            ext_cols = np.fromiter((c for _, e in extras for c in e), _INT)
            order = np.lexsort((ext_cols, ext_rows))
            owners = np.concatenate([owners, ext_rows[order]])
            cols = np.concatenate([cols, ext_cols[order]])
            order = np.argsort(owners, kind="stable")
            owners, cols = owners[order], cols[order]
        if self._col_top != n:
            keep = self._col_alive[cols]
            owners = owners[keep]
            cols = np.searchsorted(self._alive_col_slots(), cols[keep])
        indptr = np.zeros(m + 1, dtype=_INT)
        np.cumsum(np.bincount(owners, minlength=m), out=indptr[1:])
        return sp.csr_array((np.ones(cols.size), cols, indptr), shape=(m, n))

    def to_matrix(self) -> sp.csr_array:
        """Rebuild the current structure as a canonical CSR array.

        Non-zeros carry value ``1.0`` — the sketch only ever tracked
        structure, so this is the rebuild target the differential
        contract compares against. One vectorized ``O(nnz)`` pass.
        """
        return self._structure()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IncrementalSketch(shape={self.shape}, nnz={self._nnz}, "
            f"stale={self.extensions_stale}, "
            f"updates={self._updates_applied})"
        )


def apply_update(sketch: IncrementalSketch, delta: Delta) -> IncrementalSketch:
    """Apply one *delta* to *sketch* in place and return it.

    ``O(m + n + |delta| * adjacency)`` — never proportional to the total
    non-zero count. Raises :class:`ShapeError` when the delta does not
    fit the current shape and :class:`SketchError` for malformed deltas;
    a failed update leaves the sketch unchanged only for shape errors
    detected up front (deltas validate before mutating).
    """
    if not isinstance(sketch, IncrementalSketch):
        raise SketchError(
            f"apply_update needs an IncrementalSketch, got "
            f"{type(sketch).__name__} (materialized MNCSketch instances "
            f"are immutable; wrap the matrix in IncrementalSketch first)"
        )
    if isinstance(delta, AppendRows):
        sketch._apply_append_rows(delta)
    elif isinstance(delta, AppendCols):
        sketch._apply_append_cols(delta)
    elif isinstance(delta, DeleteRows):
        sketch._apply_delete_rows(delta)
    elif isinstance(delta, DeleteCols):
        sketch._apply_delete_cols(delta)
    elif isinstance(delta, BlockUpdate):
        sketch._apply_block(delta)
    else:
        raise SketchError(f"unknown delta type {type(delta).__name__}")
    sketch._cached_sketch = None
    sketch._updates_applied += 1
    count("incremental.updates")
    return sketch


def apply_updates(
    sketch: IncrementalSketch, deltas: Iterable[Delta]
) -> IncrementalSketch:
    """Apply a sequence of deltas in order (convenience wrapper)."""
    for delta in deltas:
        apply_update(sketch, delta)
    return sketch


def random_deltas(
    rng: np.random.Generator,
    shape: tuple[int, int],
    steps: int,
    max_batch: int = 3,
) -> list[Delta]:
    """Draw a seeded sequence of *steps* deltas starting from *shape*.

    Pure function of the generator state: the verify contract, the test
    suite, and corpus replay all derive identical sequences from the
    same seed. Tracks the evolving shape so every delta is in-bounds,
    interleaving all five kinds (appends, deletes, blocks) with
    densities drawn per delta.
    """
    m, n = int(shape[0]), int(shape[1])
    deltas: list[Delta] = []
    for _ in range(steps):
        kinds = ["append_rows", "append_cols"]
        if m:
            kinds.append("delete_rows")
        if n:
            kinds.append("delete_cols")
        if m and n:
            kinds.extend(["block", "block"])
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "append_rows":
            k = int(rng.integers(1, max_batch + 1))
            density = float(rng.random())
            patterns = [
                np.flatnonzero(rng.random(n) < density) if n else []
                for _ in range(k)
            ]
            deltas.append(AppendRows(patterns))
            m += k
        elif kind == "append_cols":
            k = int(rng.integers(1, max_batch + 1))
            density = float(rng.random())
            patterns = [
                np.flatnonzero(rng.random(m) < density) if m else []
                for _ in range(k)
            ]
            deltas.append(AppendCols(patterns))
            n += k
        elif kind == "delete_rows":
            k = int(rng.integers(1, min(m, max_batch) + 1))
            positions = rng.choice(m, size=k, replace=False)
            deltas.append(DeleteRows(positions))
            m -= k
        elif kind == "delete_cols":
            k = int(rng.integers(1, min(n, max_batch) + 1))
            positions = rng.choice(n, size=k, replace=False)
            deltas.append(DeleteCols(positions))
            n -= k
        else:
            bh = int(rng.integers(1, min(m, 4) + 1))
            bw = int(rng.integers(1, min(n, 4) + 1))
            r0 = int(rng.integers(0, m - bh + 1))
            c0 = int(rng.integers(0, n - bw + 1))
            pattern = rng.random((bh, bw)) < float(rng.random())
            deltas.append(BlockUpdate(r0, c0, pattern))
    return deltas
