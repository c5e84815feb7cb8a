"""The adaptive estimator router behind ``estimator="auto"``.

Per request, :class:`AdaptiveRouter` starts at the cheapest admissible
tier of :data:`~repro.router.tiers.TIER_LADDER` and escalates only while
its uncertainty about the current answer exceeds the caller's tolerance.
Uncertainty comes from the strongest available source per tier:

- **metadata**: the structural MetaAC-vs-MetaWC bracket — when the
  average-case and worst-case formulas agree, nothing more expensive can
  tell a materially different story;
- **mnc**: the Theorem 3.2 confidence interval
  (:func:`repro.core.intervals.estimate_product_interval`) for matmul
  roots over MNC-sketched children;
- **exact**: zero, by definition;
- everything else: the learned multiplicative error band from the
  :class:`~repro.router.policy.RoutingPolicy` (static priors until the
  residual ledger has observations).

Tolerance is a *relative interval width*: ``(upper - lower) /
max(estimate, 1)``. The router stops at the first tier whose width fits.

Determinism contract: for a fixed ``(policy snapshot, seed)`` the route
and the returned estimate are bit-identical regardless of worker count or
call order. Every seeded tier gets a fresh estimator whose seed is
derived from ``(router seed, root fingerprint, tier name)``; the policy
is only consulted, never updated, during a request; and when a catalog is
shared, only (seed-independent) leaf synopses are shared through it.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.intervals import estimate_product_interval
from repro.errors import EstimationError, EstimatorOptionError
from repro.estimators.base import SparsityEstimator, make_estimator
from repro.estimators.mnc import MNCSynopsis
from repro.estimators.spec import EstimatorSpec
from repro.ir.estimate import _propagate_dag, estimate_root_nnz
from repro.ir.nodes import Expr
from repro.observability.metrics import count, observe
from repro.opcodes import Op
from repro.router.policy import RoutingPolicy
from repro.router.probe import ProbeReport, probe_hardness
from repro.router.tiers import TIER_LADDER, Tier, admissible_tiers

#: Default relative interval width a routed estimate must fit.
DEFAULT_TOLERANCE = 0.5

#: Probe hardness -> minimum ladder cost of the starting tier.
_PROBE_START_COST = {"easy": 0, "medium": 1, "hard": 4}


def derive_tier_seed(base_seed: int, root_fingerprint: str, tier_name: str) -> int:
    """Deterministic per-(expression, tier) seed: the route must not depend
    on call order or worker placement, only on the expression itself."""
    digest = hashlib.blake2b(
        f"{base_seed}:{root_fingerprint}:{tier_name}".encode("utf-8"),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class RouteDecision:
    """How one request was routed.

    ``certified`` means the truth provably lies in ``[lower, upper]``
    (Theorem 3.2 interval or exact evaluation); policy bands and the
    MetaAC/MetaWC bracket are empirical/heuristic widths.
    """

    tier: str
    estimator: str
    tier_index: int
    escalations: int
    skipped: int
    tolerance: float
    width: float
    lower: float
    upper: float
    certified: bool
    probe: Optional[ProbeReport]
    tiers_tried: Tuple[str, ...]

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe form echoed in service results and wire responses."""
        payload: Dict[str, object] = {
            "tier": self.tier,
            "estimator": self.estimator,
            "escalations": self.escalations,
            "skipped": self.skipped,
            "tolerance": self.tolerance,
            "width": self.width,
            "lower": self.lower,
            "upper": self.upper,
            "certified": self.certified,
            "tiers_tried": list(self.tiers_tried),
        }
        if self.probe is not None:
            payload["probe"] = self.probe.to_payload()
        return payload


class _LeafCatalogView:
    """Catalog adapter that shares only leaf synopses.

    Propagated synopses depend on the per-(expression, tier) derived seed,
    so caching them across expressions would break the ``workers=1`` ==
    ``workers=N`` bit-identity guarantee. Leaf builds of every ladder
    estimator are seed-independent and safe to share.
    """

    def __init__(self, catalog: object):
        self._catalog = catalog

    def node_synopsis_get(self, fingerprint, node, estimator):
        if node.op is not Op.LEAF:
            return None
        return self._catalog.node_synopsis_get(fingerprint, node, estimator)

    def node_synopsis_put(self, fingerprint, node, estimator, synopsis):
        if node.op is not Op.LEAF:
            return
        self._catalog.node_synopsis_put(fingerprint, node, estimator, synopsis)


class AdaptiveRouter:
    """Escalating tier router with residual feedback.

    Args:
        tolerance: maximum acceptable relative interval width
            (default :data:`DEFAULT_TOLERANCE`).
        seed: base seed for seeded tiers and the probe.
        policy: learned error statistics; a fresh (prior-only) policy when
            omitted.
        probe: run the Du-style hardness probe to pick the starting tier.
        confidence: confidence level for Theorem 3.2 intervals.
    """

    def __init__(
        self,
        *,
        tolerance: Optional[float] = None,
        seed: Optional[int] = None,
        policy: Optional[RoutingPolicy] = None,
        probe: bool = False,
        confidence: float = 0.95,
    ):
        self.tolerance = DEFAULT_TOLERANCE if tolerance is None else float(tolerance)
        if not math.isfinite(self.tolerance) or self.tolerance < 0.0:
            raise EstimatorOptionError(
                f"tolerance must be finite and >= 0, got {tolerance!r}"
            )
        self.seed = 0 if seed is None else int(seed)
        self.policy = policy if policy is not None else RoutingPolicy()
        self.probe = bool(probe)
        self.confidence = float(confidence)

    @classmethod
    def from_spec(
        cls, spec: EstimatorSpec, *, policy: Optional[RoutingPolicy] = None
    ) -> "AdaptiveRouter":
        """Build a router from an ``auto`` :class:`EstimatorSpec`."""
        if not spec.is_auto:
            raise EstimatorOptionError(
                f"AdaptiveRouter.from_spec needs estimator='auto', "
                f"got {spec.name!r}"
            )
        options = spec.options_dict()
        probe = bool(options.pop("probe", False))
        confidence = float(options.pop("confidence", 0.95))
        if options:
            raise EstimatorOptionError(
                f"unknown router options {sorted(options)}; "
                f"supported: ['confidence', 'probe']",
                details={"estimator": "auto", "options": sorted(options)},
            )
        return cls(
            tolerance=spec.tolerance,
            seed=spec.seed,
            policy=policy,
            probe=probe,
            confidence=confidence,
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def route(
        self,
        root: Expr,
        *,
        workload: str = "*",
        catalog: Optional[object] = None,
    ) -> Tuple[float, RouteDecision]:
        """Estimate ``nnz(root)``, escalating tiers until the uncertainty
        width fits the tolerance. Returns ``(nnz, decision)``."""
        count("router.requests")
        # Fingerprinting hashes every leaf's data — as expensive as some
        # whole tiers. Only seeded tiers need it (for seed derivation), so
        # compute it lazily: a metadata-only route never pays for it.
        fp_cache: List[str] = []

        def root_fp() -> str:
            if not fp_cache:
                fp_cache.append(self._root_fingerprint(root))
            return fp_cache[0]

        view = _LeafCatalogView(catalog) if catalog is not None else None
        op_label = "leaf" if root.op is Op.LEAF else root.op.value

        if root.op is Op.LEAF:
            nnz = float(root.matrix.nnz)
            decision = RouteDecision(
                tier="exact", estimator="Exact", tier_index=0, escalations=0,
                skipped=0, tolerance=self.tolerance, width=0.0, lower=nnz,
                upper=nnz, certified=True, probe=None, tiers_tried=("exact",),
            )
            count("router.tier_used.exact")
            observe("router.escalations", 0.0)
            return nnz, decision

        ladder = admissible_tiers(root)
        report: Optional[ProbeReport] = None
        start = 0
        if self.probe:
            report = probe_hardness(root, seed=self.seed)
            count(f"router.probe.{report.hardness}")
            min_cost = _PROBE_START_COST[report.hardness]
            for index, tier in enumerate(ladder):
                if tier.cost >= min_cost:
                    start = index
                    break

        tried: List[str] = []
        skipped = start
        evaluations = 0
        best: Optional[Tuple[float, Tier, int, float, float, float, bool]] = None
        last_error: Optional[Exception] = None
        for index in range(start, len(ladder)):
            tier = ladder[index]
            is_last = index == len(ladder) - 1
            if not tier.structural and not is_last:
                # Policy-band tiers cannot shrink their width by running:
                # the band is known before evaluation. Skip hopeless ones.
                band = self._band(tier, workload, op_label, prior=tier.prior_error)
                if self._band_width(band) > self.tolerance:
                    skipped += 1
                    continue
            tried.append(tier.name)
            try:
                nnz, width, lower, upper, certified = self._evaluate(
                    tier, root, root_fp, workload, op_label, view
                )
            except (EstimationError,) as exc:
                last_error = exc
                count(f"router.tier_failed.{tier.name}")
                continue
            evaluations += 1
            best = (nnz, tier, index, width, lower, upper, certified)
            if width <= self.tolerance:
                break
        if best is None:
            raise EstimationError(
                f"no router tier could evaluate the expression "
                f"(last error: {last_error})"
            )
        nnz, tier, index, width, lower, upper, certified = best
        escalations = max(evaluations - 1, 0)
        decision = RouteDecision(
            tier=tier.name,
            estimator=tier.label,
            tier_index=index,
            escalations=escalations,
            skipped=skipped,
            tolerance=self.tolerance,
            width=width,
            lower=lower,
            upper=upper,
            certified=certified,
            probe=report,
            tiers_tried=tuple(tried),
        )
        count(f"router.tier_used.{tier.name}")
        observe("router.escalations", float(escalations))
        if skipped:
            count("router.tiers_skipped", float(skipped))
        return nnz, decision

    def estimate(
        self,
        root: Expr,
        *,
        workload: str = "*",
        catalog: Optional[object] = None,
    ) -> Dict[str, object]:
        """Routed analogue of :func:`repro.ir.estimate.estimate_dag`."""
        started = time.perf_counter()
        nnz, decision = self.route(root, workload=workload, catalog=catalog)
        seconds = time.perf_counter() - started
        m, n = root.shape
        return {
            "nnz": nnz,
            "sparsity": nnz / (m * n) if m and n else 0.0,
            "seconds": seconds,
            "router": decision.to_payload(),
        }

    # ------------------------------------------------------------------
    # Tier evaluation
    # ------------------------------------------------------------------

    def make_tier_estimator(self, root: Expr, tier_name: str) -> SparsityEstimator:
        """The exact estimator instance a route through *tier_name* used
        for *root* (fresh, deterministically seeded). Lets callers re-run
        e.g. ``include_intermediates`` reporting on the chosen tier."""
        tier = next(t for t in TIER_LADDER if t.name == tier_name)
        root_fp = self._root_fingerprint(root)
        return self._tier_estimator(tier, root_fp)

    def _tier_estimator(self, tier: Tier, root_fp) -> SparsityEstimator:
        """*root_fp* is the fingerprint string or a zero-arg supplier of it
        (so unseeded tiers never force fingerprint computation)."""
        if tier.seeded:
            fingerprint = root_fp() if callable(root_fp) else root_fp
            return make_estimator(
                tier.name, seed=derive_tier_seed(self.seed, fingerprint, tier.name)
            )
        return make_estimator(tier.name)

    def _evaluate(
        self,
        tier: Tier,
        root: Expr,
        root_fp,
        workload: str,
        op_label: str,
        view: Optional[_LeafCatalogView],
    ) -> Tuple[float, float, float, float, bool]:
        """Run *tier* and derive its uncertainty width.

        *root_fp* may be the fingerprint string or a lazy supplier of it.

        Returns ``(nnz, relative width, lower, upper, certified)``.
        """
        estimator = self._tier_estimator(tier, root_fp)
        synopses = _propagate_dag(root, estimator, catalog=view)
        children = [synopses[id(child)] for child in root.inputs]
        nnz = float(estimator.estimate_nnz(root.op, children, **root.params))

        if tier.structural == "exact":
            return nnz, 0.0, nnz, nnz, True

        if tier.structural == "metadata":
            return self._metadata_width(tier, root, nnz, workload, op_label, view)

        if tier.structural == "mnc" and root.op is Op.MATMUL and all(
            isinstance(child, MNCSynopsis) for child in children
        ):
            interval = estimate_product_interval(
                children[0].sketch, children[1].sketch, self.confidence
            )
            width = interval.width / max(nnz, 1.0)
            return nnz, width, interval.lower, interval.upper, True

        band = self._band(tier, workload, op_label, prior=tier.prior_error)
        width = self._band_width(band)
        return nnz, width, nnz / band, nnz * band, False

    def _metadata_width(
        self,
        tier: Tier,
        root: Expr,
        nnz: float,
        workload: str,
        op_label: str,
        view: Optional[_LeafCatalogView],
    ) -> Tuple[float, float, float, float, bool]:
        """MetaAC estimate with the structural MetaAC/MetaWC bracket.

        The bracket alone decides the width unless the policy has actual
        observations for this tier, in which case the learned band can
        only widen it (MetaAC is not a lower bound, so the bracket is a
        heuristic, not a certificate).
        """
        wc = estimate_root_nnz(root, make_estimator("meta_wc"), catalog=view)
        lower, upper = min(nnz, wc), max(nnz, wc)
        width = (upper - lower) / max(nnz, 1.0)
        if self.policy.observation_count(tier.label) > 0:
            band = self.policy.predicted_error(
                tier.label, workload=workload, op=op_label, prior=None
            )
            if band is not None:
                policy_width = self._band_width(band)
                if policy_width > width:
                    width = policy_width
                    lower = min(lower, nnz / band)
                    upper = max(upper, nnz * band)
        return nnz, width, lower, upper, False

    def _band(self, tier: Tier, workload: str, op_label: str, prior: float) -> float:
        band = self.policy.predicted_error(
            tier.label, workload=workload, op=op_label, prior=prior
        )
        return max(band if band is not None else prior, 1.0)

    @staticmethod
    def _band_width(band: float) -> float:
        """Relative width of the symmetric multiplicative band
        ``[est / band, est * band]``."""
        return band - 1.0 / band

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def refresh(self) -> int:
        """Fold new residual-ledger observations into the policy. Never
        called mid-request; callers decide when routing may change."""
        return self.policy.sync_from_registry()

    def describe(self) -> Dict[str, object]:
        """Summary for ``repro stats`` / ``/stats``."""
        return {
            "tolerance": self.tolerance,
            "seed": self.seed,
            "probe": self.probe,
            "ladder": [tier.name for tier in TIER_LADDER],
            "policy": self.policy.describe(),
        }

    @staticmethod
    def _root_fingerprint(root: Expr) -> str:
        from repro.catalog.fingerprint import fingerprint_dag

        return fingerprint_dag(root)[id(root)]
