"""Common estimator interface and registry.

Every sparsity estimator in the paper — and this reproduction — follows the
same life cycle:

1. ``build(matrix)`` constructs a *synopsis* for a leaf matrix (possibly a
   trivial one, e.g. just ``(shape, nnz)`` for the metadata estimators).
2. ``propagate(op, operands, **params)`` derives the synopsis of an
   intermediate result from operand synopses.
3. ``estimate_nnz(op, operands, **params)`` estimates the non-zero count of
   an operation's result directly (used at DAG roots, where no synopsis is
   needed — mirroring the paper's implementation detail of estimating roots
   directly instead of propagating to them).

Estimators advertise what they support through
:meth:`SparsityEstimator.supports`; unsupported combinations raise
:class:`~repro.errors.UnsupportedOperationError`, which the SparsEst runner
reports as the paper's figures do (an "x" instead of a bar).
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, Sequence

from repro.errors import (
    EstimatorOptionError,
    ReproError,
    UnknownEstimatorError,
    UnsupportedOperationError,
)
from repro.matrix.conversion import MatrixLike
from repro.observability.flight import FLIGHT
from repro.observability.metrics import count
from repro.opcodes import Op


class Synopsis(abc.ABC):
    """Base class for per-matrix synopses.

    Subclasses carry whatever structure their estimator needs; the two
    universally required pieces are the matrix shape and an estimate of the
    non-zero count (exact for leaf synopses, estimated for propagated ones).
    """

    __slots__ = ()

    @property
    @abc.abstractmethod
    def shape(self) -> tuple[int, int]:
        """Shape of the (possibly virtual) matrix this synopsis describes."""

    @property
    @abc.abstractmethod
    def nnz_estimate(self) -> float:
        """(Estimated) number of structural non-zeros."""

    @property
    def cells(self) -> int:
        """Total number of matrix cells."""
        m, n = self.shape
        return m * n

    @property
    def sparsity_estimate(self) -> float:
        """(Estimated) sparsity ``nnz / cells`` (0.0 for empty shapes)."""
        if self.cells == 0:
            return 0.0
        return self.nnz_estimate / self.cells

    def size_bytes(self) -> int:
        """Approximate memory footprint of the synopsis in bytes."""
        return 0


class SparsityEstimator(abc.ABC):
    """Abstract base class for all sparsity estimators.

    Subclasses implement :meth:`build` plus handlers for the operations they
    support; the generic :meth:`estimate_nnz`/:meth:`propagate` entry points
    dispatch on :class:`~repro.opcodes.Op`. Handler methods follow the naming
    convention ``_estimate_<op>`` / ``_propagate_<op>`` and receive the
    operand synopses positionally plus operation parameters as keywords.
    """

    #: Short identifier used in benchmark tables (e.g. ``"MNC"``).
    name: str = "abstract"

    #: Declarative invariant tags consumed by :mod:`repro.verify.contracts`.
    #: Each tag names a relational guarantee the estimator claims to honor
    #: (e.g. ``"exact"`` for oracles, ``"upper_bound"`` for MetaWC,
    #: ``"theorem31"`` for MNC's exactness cases); the differential-testing
    #: engine checks every claimed tag against the exact oracle.
    contract_tags: frozenset = frozenset()

    @abc.abstractmethod
    def build(self, matrix: MatrixLike) -> Synopsis:
        """Construct the synopsis of a leaf matrix."""

    def contract_metadata(self) -> Dict[str, Any]:
        """Machine-readable description of this estimator's verified surface.

        Returns the estimator name, its claimed contract tags, and the
        operations it supports for direct estimation and for synopsis
        propagation — the coordinates :mod:`repro.verify` uses to build its
        (estimator x contract x generator) cell matrix.
        """
        ops = [op for op in Op if op is not Op.LEAF]
        return {
            "name": self.name,
            "tags": sorted(self.contract_tags),
            "estimates": [op.value for op in ops if self.supports(op)],
            "propagates": [op.value for op in ops if self.supports_propagation(op)],
        }

    # ------------------------------------------------------------------
    # Generic dispatch
    # ------------------------------------------------------------------

    def estimate_nnz(self, op: Op, operands: Sequence[Synopsis], **params: Any) -> float:
        """Estimate the non-zero count of ``op`` applied to *operands*."""
        handler = self._handler("estimate", op)
        try:
            return float(handler(*operands, **params))
        except UnsupportedOperationError:
            raise
        except Exception as exc:
            # An unexpected estimator crash (not a declared capability gap)
            # is exactly what the flight recorder exists for: capture the
            # last-N events and metrics state before re-raising.
            self._record_crash("estimate", op, exc)
            raise

    def estimate_sparsity(self, op: Op, operands: Sequence[Synopsis], **params: Any) -> float:
        """Estimate the sparsity of ``op`` applied to *operands*."""
        nnz = self.estimate_nnz(op, operands, **params)
        m, n = self.output_shape(op, operands, **params)
        if m == 0 or n == 0:
            return 0.0
        return nnz / (m * n)

    def propagate(self, op: Op, operands: Sequence[Synopsis], **params: Any) -> Synopsis:
        """Derive the synopsis of ``op`` applied to *operands*."""
        handler = self._handler("propagate", op)
        try:
            return handler(*operands, **params)
        except UnsupportedOperationError:
            raise
        except Exception as exc:
            self._record_crash("propagate", op, exc)
            raise

    def _record_crash(self, kind: str, op: Op, exc: Exception) -> None:
        """Log an unexpected handler exception to metrics + flight recorder."""
        count(f"estimator.exceptions.{self.name}")
        FLIGHT.record(
            "estimator_exception", f"{self.name}.{kind}.{op.value}",
            detail={"error": type(exc).__name__, "message": str(exc)[:200]},
        )
        FLIGHT.trigger_dump(
            "estimator_exception", estimator=self.name, kind=kind,
            op=op.value, error=type(exc).__name__, message=str(exc),
        )

    def supports(self, op: Op) -> bool:
        """Whether this estimator implements estimation for ``op``."""
        return hasattr(self, f"_estimate_{op.value}")

    def supports_propagation(self, op: Op) -> bool:
        """Whether this estimator can derive intermediate synopses for ``op``."""
        return hasattr(self, f"_propagate_{op.value}")

    def _handler(self, kind: str, op: Op) -> Callable[..., Any]:
        """Resolve the ``_<kind>_<op>`` handler method, *kind* being the
        plain verb ``"estimate"`` or ``"propagate"`` (also used verbatim in
        the error message)."""
        handler = getattr(self, f"_{kind}_{op.value}", None)
        if handler is None:
            raise UnsupportedOperationError(
                f"estimator {self.name!r} does not support "
                f"{kind} of {op.value!r}"
            )
        return handler

    # ------------------------------------------------------------------
    # Shape inference (shared by all estimators)
    # ------------------------------------------------------------------

    @staticmethod
    def output_shape(op: Op, operands: Sequence[Synopsis], **params: Any) -> tuple[int, int]:
        """Shape of the result of ``op`` on *operands* (pure metadata)."""
        shapes = [operand.shape for operand in operands]
        if op is Op.MATMUL:
            return (shapes[0][0], shapes[1][1])
        if op in (Op.EWISE_ADD, Op.EWISE_MULT, Op.NEQ_ZERO, Op.EQ_ZERO):
            return shapes[0]
        if op is Op.TRANSPOSE:
            return (shapes[0][1], shapes[0][0])
        if op is Op.RESHAPE:
            return (params["rows"], params["cols"])
        if op is Op.DIAG_V2M:
            return (shapes[0][0], shapes[0][0])
        if op is Op.DIAG_M2V:
            return (shapes[0][0], 1)
        if op is Op.RBIND:
            return (shapes[0][0] + shapes[1][0], shapes[0][1])
        if op is Op.CBIND:
            return (shapes[0][0], shapes[0][1] + shapes[1][1])
        if op is Op.ROW_SUMS:
            return (shapes[0][0], 1)
        if op is Op.COL_SUMS:
            return (1, shapes[0][1])
        raise UnsupportedOperationError(f"no shape rule for {op!r}")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[..., SparsityEstimator]] = {}


def register_estimator(name: str) -> Callable[[type], type]:
    """Class decorator registering an estimator factory under *name*."""

    def decorator(cls: type) -> type:
        _REGISTRY[name] = cls
        return cls

    return decorator


def available_estimators() -> list[str]:
    """Names of all registered estimators."""
    return sorted(_REGISTRY)


def make_estimator(name: str, **kwargs: Any) -> SparsityEstimator:
    """Instantiate a registered estimator by name.

    Args:
        name: registry key (see :func:`available_estimators` — the
            authoritative name list; ``repro estimators`` prints it with
            contract tags and cost tiers).
        **kwargs: forwarded to the estimator constructor (e.g.
            ``block_size=256`` for the density map).

    Raises:
        UnknownEstimatorError: *name* is not registered (a subclass of the
            historical :class:`UnsupportedOperationError`).
        EstimatorOptionError: the constructor rejected **kwargs** (unknown
            keyword or invalid value).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownEstimatorError(
            f"unknown estimator {name!r}; available: {available_estimators()}",
            details={
                "estimator": name,
                "available_estimators": available_estimators(),
            },
        ) from None
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ReproError):
            raise
        raise EstimatorOptionError(
            f"invalid options for estimator {name!r}: {exc}",
            details={"estimator": name, "options": sorted(kwargs)},
        ) from exc
