"""Online statistical self-verification: the serving audit plane.

The paper's headline property — *truly perfect* sampling, zero
statistical distance between the output and the target distribution —
is exactly the kind of guarantee that silently rots under composition:
snapshot/restore, shard merges, compaction, cached folds, and
per-reader query views each preserve it only if their implementations
are right.  This module makes the guarantee *observable on a live
service* with a controlled false-positive rate:

* :class:`ShadowTruth` — a per-(tenant, kind) ground-truth model fed
  from the same accepted batches the ingest workers apply.  Small
  universes keep the exact frequency vector (per tenant, merged at
  query time); past ``exact_universe_max`` distinct items the truth
  demotes itself to per-tenant Misra–Gries summaries whose certified
  sandwich ``f_i − m/(k+1) ≤ est(i) ≤ f_i`` still yields *provable*
  per-item probability upper bounds.  Windowed kinds model the window:
  a count-window ring for ``sw-*`` and a timestamped chunk store (with
  expiry) for ``tw_*`` / ``window_bank``.
* :class:`SequentialMonitor` — an anytime-valid sequential test.  Each
  audit tick produces one goodness-of-fit p-value (chi-square on the
  support in exact mode; certified one-sided binomial bounds on the
  heavy coordinates in sketch mode); the monitor folds it into a
  product e-process via the κ-calibrator ``e(p) = κ·p^(κ−1)``
  (``E[e(U)] = 1`` for uniform p, so the running product is a
  nonnegative martingale under the null) and flags when the product
  reaches ``1/α`` — by Ville's inequality the probability a *correct*
  sampler is ever flagged, over an unbounded monitoring horizon, is at
  most α.
* :class:`Auditor` — the orchestration: feed accounting, target
  construction, per-tick evaluation, verdict latching, catalog metrics
  (``repro_audit_verdict`` / ``repro_audit_draws_total`` /
  ``repro_audit_tvd_bound`` / ``repro_audit_evalue`` /
  ``repro_audit_ticks_total``) and structured ``serving.audit`` events
  in the ambient trace ring.

The serving integration (dedicated ``sample_many`` batches off the
published fold, tick scheduling, race guards) lives in
:meth:`repro.serving.SamplerService.audit_tick`; the auditor itself is
deliberately service-agnostic so component-level audits work too —
count-based sliding windows (which the sharded engine cannot serve,
merging being undefined for them) are audited by feeding a bare sampler
and the auditor the same stream and handing the draws to
:meth:`Auditor.evaluate`.

Statistical honesty notes: *truly perfect* is a guarantee about one
draw's marginal law — a one-sample-per-pass streaming sampler commits
to state-fixed candidates, so repeated draws from one published fold
are never iid from the target.  What is soundly testable per state is
therefore kind-dependent (see :class:`AuditProfile.membership_only`):
built-in frequency kinds get a certified support-membership audit
(whole-stream / count-window / time-horizon live set), distinct kinds
additionally get conditional uniformity over the drawn categories, and
the full chi-square/TV machinery applies only to samplers with fresh
per-draw randomness (the :mod:`repro.perfect.biased` fault-injection
instrument, and any plug-in kind that registers a profile without
``membership_only``).  Chi-square p-values are asymptotic (cells pooled
below ``min_expected``), so α is nominal rather than exact at small
draw counts; sketch (Misra–Gries) mode tests only heavy-coordinate
*inflation* — a one-sided test, since the sketch certifies upper bounds
but not the tail's composition; ``pool`` configs expose no ``sample()``
and are reported ``unsupported`` rather than silently "passing".
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy import stats as sps

from repro.lifecycle.protocol import fold_samplers
from repro.obs.catalog import CATALOG_HELP
from repro.obs.metrics import current_registry
from repro.obs.trace import span
from repro.sketches.misra_gries import MisraGries
from repro.stats.distance import chi_square_gof, total_variation, tv_upper_bound

__all__ = [
    "AuditConfig",
    "AuditEvent",
    "AuditProfile",
    "Auditor",
    "SequentialMonitor",
    "ShadowTruth",
    "audit_profile",
    "register_audit_profile",
]

#: Pending feed items the truth consolidates eagerly past this size
#: (otherwise consolidation is deferred to the next audit tick, keeping
#: the hot submit path at one list-append).
MAX_PENDING_ITEMS = 1 << 20

#: Floor for per-tick p-values inside the e-process (log-space guard;
#: an off-support draw — probability zero under the null — lands here).
P_FLOOR = 1e-300


@dataclass(frozen=True)
class AuditConfig:
    """Knobs for the audit plane.

    ``interval=0`` disables the service ticker's audit leg — ticks then
    run only when :meth:`repro.serving.SamplerService.audit_tick` is
    called explicitly (the deterministic-test configuration).
    """

    interval: float = 0.25  # audit tick cadence, seconds (0 = manual)
    draws: int = 512  # dedicated sample_many draws per tick
    alpha: float = 0.01  # anytime false-positive budget (Ville)
    kappa: float = 0.5  # e-process calibrator exponent, in (0, 1)
    min_draws: int = 64  # minimum ITEM draws to evaluate a tick
    min_expected: float = 5.0  # chi-square pooling threshold
    exact_universe_max: int = 1 << 16  # distinct items before MG demotion
    mg_capacity: int = 512  # Misra–Gries counters per tenant after demotion
    max_history: int = 64  # retained AuditEvents
    query_kwargs: dict | None = None  # extra kwargs for the audit draws

    def __post_init__(self) -> None:
        if self.interval < 0:
            raise ValueError(f"interval must be ≥ 0, got {self.interval}")
        if self.draws < 1:
            raise ValueError(f"draws must be ≥ 1, got {self.draws}")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0 < self.kappa < 1:
            raise ValueError(f"kappa must be in (0, 1), got {self.kappa}")


@dataclass(frozen=True)
class AuditProfile:
    """How to model one sampler kind's target distribution.

    ``category`` is ``"frequency"`` (p_i ∝ weight(f_i) over live items),
    ``"distinct"`` (membership in the live distinct set plus conditional
    uniformity over the drawn categories — see
    :meth:`Auditor._evaluate_exact` for why full-support uniformity is
    *not* the per-state null), or ``"unsupported"`` (the kind exposes no
    auditable ``sample`` — e.g. ``pool``).  ``window`` (count) and
    ``horizon`` (seconds) pick the live-set model; both ``None`` means
    whole-stream.
    """

    category: str
    weight: Callable[[np.ndarray], np.ndarray] | None = None
    window: int | None = None
    horizon: float | None = None
    #: One-sample-per-pass streaming samplers commit to state-fixed
    #: candidates (Algorithm 1 instances each hold one ``(item, count)``;
    #: ``bounded`` rides R fixed F0 candidates through accept/reject), so
    #: repeated draws from one state are *marginally* perfect but never
    #: iid from the target — a distribution-shape test would flag every
    #: correct instance.  ``True`` (all built-in frequency kinds) audits
    #: only support membership, which the shadow truth certifies exactly
    #: (whole-stream, count-window, or time-horizon live set).  Leave
    #: ``False`` only for samplers with fresh per-draw randomness (e.g.
    #: :mod:`repro.perfect.biased`), where the full chi-square/TV
    #: machinery is sound.
    membership_only: bool = False


class TruthTarget(NamedTuple):
    """One consistent cut of the shadow truth's target distribution."""

    mode: str  # "exact" | "sketch" | "empty" | "unsupported"
    support: np.ndarray  # live items (exact mode) or heavy items (sketch)
    probs: np.ndarray  # exact probabilities (exact mode only)
    p_hi: np.ndarray  # certified per-item upper bounds (sketch mode only)
    detail: str = ""


def _measure_weight(measure) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorize a scalar ``Measure`` over a counts array, evaluating
    each distinct count once (live supports repeat counts heavily)."""

    def weight(counts: np.ndarray) -> np.ndarray:
        uniq, inverse = np.unique(counts, return_inverse=True)
        vals = np.array([float(measure(float(c))) for c in uniq])
        return vals[inverse]

    return weight


def _lp_weight(p: float) -> Callable[[np.ndarray], np.ndarray]:
    def weight(counts: np.ndarray) -> np.ndarray:
        return counts.astype(np.float64) ** p

    return weight


def _freq_from_measure(config, **extra):
    from repro.engine.registry import build_measure

    extra.setdefault("membership_only", True)
    return AuditProfile(
        "frequency", weight=_measure_weight(build_measure(config["measure"])),
        **extra,
    )


def _profile_g(config, query_kwargs):
    return _freq_from_measure(config)


def _profile_lp(config, query_kwargs):
    return AuditProfile(
        "frequency", weight=_lp_weight(float(config["p"])),
        membership_only=True,
    )


def _profile_distinct(config, query_kwargs):
    return AuditProfile("distinct")


def _profile_unsupported(config, query_kwargs):
    return AuditProfile("unsupported")


def _profile_sw_g(config, query_kwargs):
    return _freq_from_measure(config, window=int(config["window"]))


def _profile_sw_lp(config, query_kwargs):
    return AuditProfile(
        "frequency", weight=_lp_weight(float(config["p"])),
        window=int(config["window"]), membership_only=True,
    )


def _profile_sw_f0(config, query_kwargs):
    return AuditProfile("distinct", window=int(config["window"]))


def _profile_tw_g(config, query_kwargs):
    return _freq_from_measure(config, horizon=float(config["horizon"]))


def _profile_tw_lp(config, query_kwargs):
    return AuditProfile(
        "frequency", weight=_lp_weight(float(config["p"])),
        horizon=float(config["horizon"]), membership_only=True,
    )


def _profile_tw_f0(config, query_kwargs):
    return AuditProfile("distinct", horizon=float(config["horizon"]))


def _profile_window_bank(config, query_kwargs):
    # The audited window is the *queried* rung's horizon — the audit
    # draws pass the same ``horizon=`` the truth models here.
    horizon = float(
        (query_kwargs or {}).get("horizon", min(config["resolutions"]))
    )
    if config.get("measure") is not None:
        return _freq_from_measure(config, horizon=horizon)
    return AuditProfile(
        "frequency", weight=_lp_weight(float(config["p"])), horizon=horizon,
        membership_only=True,
    )


_PROFILES: dict[str, Callable[[dict, dict | None], AuditProfile]] = {
    "g": _profile_g,
    "lp": _profile_lp,
    "f0": _profile_distinct,
    "oracle-f0": _profile_distinct,
    "algorithm5-f0": _profile_distinct,
    "bounded": _profile_g,
    "pool": _profile_unsupported,
    "sw-g": _profile_sw_g,
    "sw-lp": _profile_sw_lp,
    "sw-f0": _profile_sw_f0,
    "tw_g": _profile_tw_g,
    "tw_lp": _profile_tw_lp,
    "tw_f0": _profile_tw_f0,
    "window_bank": _profile_window_bank,
}


def register_audit_profile(
    kind: str, builder: Callable[[dict, dict | None], AuditProfile]
) -> None:
    """Teach the audit plane a plug-in sampler kind's target model
    (the audit-side counterpart of
    :func:`repro.engine.registry.register_sampler`)."""
    _PROFILES[kind] = builder


def audit_profile(config: dict, query_kwargs: dict | None = None) -> AuditProfile:
    """The :class:`AuditProfile` for a sampler config dict.  Kinds with
    no registered profile are reported unsupported rather than guessed."""
    kind = dict(config).get("kind")
    builder = _PROFILES.get(kind)
    if builder is None:
        return AuditProfile("unsupported")
    return builder(dict(config), query_kwargs)


class ShadowTruth:
    """Ground truth for one audited stream, fed from accepted batches.

    The hot-path :meth:`feed` is one lock + list-append + version bump;
    counting is consolidated lazily at :meth:`target` time (or eagerly
    past :data:`MAX_PENDING_ITEMS` pending items).  Per-tenant exact
    counts (or, after demotion, per-tenant Misra–Gries summaries) are
    merged into one global target at query time — window membership for
    the windowed categories is a property of the *interleaved* accepted
    stream, so those keep one global window structure plus per-tenant
    item tallies.
    """

    def __init__(self, profile: AuditProfile, config: AuditConfig) -> None:
        self._profile = profile
        self._cfg = config
        self._lock = threading.Lock()
        self.version = 0  # bumped per feed; evaluate() races key on it
        self._pending: list[tuple[str, np.ndarray, np.ndarray | None]] = []
        self._pending_items = 0
        self._tenant_items: dict[str, int] = {}
        # exact / sketch (whole-stream) state
        self._mode = "exact"
        self._counts: dict[str, dict[int, int]] = {}
        self._sketches: dict[str, MisraGries] = {}
        self._distinct: set[int] = set()
        # count-window state (global ring)
        self._ring: deque[int] | None = (
            deque(maxlen=profile.window) if profile.window else None
        )
        self._ring_counts: dict[int, int] = {}
        # time-window state (chunk store with expiry)
        self._chunks: deque[tuple[np.ndarray, np.ndarray]] = deque()
        self._now = -math.inf

    @property
    def mode(self) -> str:
        """``exact`` or ``sketch`` (post-demotion)."""
        return self._mode

    def tenant_items(self) -> dict[str, int]:
        """Items fed per tenant (``_default`` for the anonymous one)."""
        with self._lock:
            out = dict(self._tenant_items)
            for tenant, arr, __ in self._pending:
                out[tenant] = out.get(tenant, 0) + int(arr.size)
            return out

    def feed(self, items, timestamps=None, tenant: str | None = None) -> None:
        """Record one accepted batch (cheap: defer counting)."""
        arr = np.asarray(getattr(items, "items", items), dtype=np.int64)
        if arr.size == 0:
            return
        if self._profile.horizon is not None and timestamps is None:
            raise ValueError(
                "time-windowed audit truth needs timestamps with every batch"
            )
        ts = (
            None
            if timestamps is None
            else np.asarray(timestamps, dtype=np.float64)
        )
        key = "_default" if tenant is None else str(tenant)
        with self._lock:
            self._pending.append((key, arr, ts))
            self._pending_items += int(arr.size)
            self.version += 1
            if self._pending_items > MAX_PENDING_ITEMS:
                self._drain_locked()

    # -- consolidation (always under the lock) ------------------------------
    def _drain_locked(self) -> None:
        for tenant, arr, ts in self._pending:
            self._tenant_items[tenant] = (
                self._tenant_items.get(tenant, 0) + int(arr.size)
            )
            if self._profile.horizon is not None:
                self._chunks.append((ts, arr))
                self._now = max(self._now, float(ts.max()))
                continue
            if self._ring is not None:
                self._feed_ring(arr)
                continue
            uniq, cnts = np.unique(arr, return_counts=True)
            if self._mode == "sketch":
                sketch = self._sketch_for(tenant)
                for item, cnt in zip(uniq.tolist(), cnts.tolist()):
                    sketch.update(item, cnt)
            else:
                counts = self._counts.setdefault(tenant, {})
                for item, cnt in zip(uniq.tolist(), cnts.tolist()):
                    counts[item] = counts.get(item, 0) + cnt
                self._distinct.update(uniq.tolist())
        self._pending.clear()
        self._pending_items = 0
        if (
            self._mode == "exact"
            and self._ring is None
            and self._profile.horizon is None
            and len(self._distinct) > self._cfg.exact_universe_max
        ):
            self._demote_locked()
        if self._profile.horizon is not None:
            self._expire_chunks(self._now)

    def _sketch_for(self, tenant: str) -> MisraGries:
        sketch = self._sketches.get(tenant)
        if sketch is None:
            sketch = self._sketches[tenant] = MisraGries(self._cfg.mg_capacity)
        return sketch

    def _demote_locked(self) -> None:
        """Exact → Misra–Gries, per tenant (support outgrew the cap)."""
        for tenant, counts in self._counts.items():
            sketch = self._sketch_for(tenant)
            for item, cnt in counts.items():
                sketch.update(item, cnt)
        self._counts.clear()
        self._distinct.clear()
        self._mode = "sketch"

    def _feed_ring(self, arr: np.ndarray) -> None:
        ring, counts = self._ring, self._ring_counts
        window = ring.maxlen
        if arr.size >= window:
            ring.clear()
            counts.clear()
            arr = arr[-window:]
            ring.extend(arr.tolist())
            uniq, cnts = np.unique(arr, return_counts=True)
            counts.update(zip(uniq.tolist(), cnts.tolist()))
            return
        for item in arr.tolist():
            if len(ring) == window:
                old = ring.popleft()
                left = counts[old] - 1
                if left:
                    counts[old] = left
                else:
                    del counts[old]
            ring.append(item)
            counts[item] = counts.get(item, 0) + 1

    def _expire_chunks(self, now: float) -> None:
        cutoff = now - self._profile.horizon
        while self._chunks and float(self._chunks[0][0].max()) <= cutoff:
            self._chunks.popleft()

    def _live_time_counts(self, now: float) -> dict[int, int]:
        cutoff = now - self._profile.horizon
        out: dict[int, int] = {}
        for ts, arr in self._chunks:
            live = arr[ts > cutoff]
            if live.size == 0:
                continue
            uniq, cnts = np.unique(live, return_counts=True)
            for item, cnt in zip(uniq.tolist(), cnts.tolist()):
                out[item] = out.get(item, 0) + cnt
        return out

    # -- the target ---------------------------------------------------------
    def target(self, now: float | None = None) -> TruthTarget:
        """The current target distribution (a consistent cut).

        ``now`` pins the clock for time-windowed kinds — pass the
        published fold's watermark so the truth and the audited draws
        agree on window membership.
        """
        empty = np.empty(0)
        with self._lock:
            self._drain_locked()
            if self._profile.horizon is not None:
                clock = self._now if now is None else float(now)
                counts = self._live_time_counts(clock)
            elif self._ring is not None:
                counts = dict(self._ring_counts)
            elif self._mode == "sketch":
                return self._sketch_target_locked()
            else:
                counts = {}
                for tenant_counts in self._counts.values():
                    for item, cnt in tenant_counts.items():
                        counts[item] = counts.get(item, 0) + cnt
        if not counts:
            return TruthTarget("empty", empty, empty, empty, "no live items")
        support = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
        order = np.argsort(support)
        support = support[order]
        if self._profile.category == "distinct":
            probs = np.full(support.size, 1.0 / support.size)
        else:
            vals = np.fromiter(
                counts.values(), dtype=np.float64, count=len(counts)
            )[order]
            weights = self._profile.weight(vals)
            total = float(weights.sum())
            if total <= 0:
                return TruthTarget("empty", empty, empty, empty, "zero weight")
            probs = weights / total
        return TruthTarget("exact", support, probs, empty)

    def _sketch_target_locked(self) -> TruthTarget:
        empty = np.empty(0)
        if self._profile.category == "distinct":
            # A frequency sketch cannot certify the distinct-set shape.
            return TruthTarget(
                "unsupported", empty, empty, empty,
                "distinct-kind audit needs the exact regime "
                "(raise exact_universe_max)",
            )
        merged = fold_samplers(list(self._sketches.values()))
        d = merged.error_bound()
        heavy = {i: est for i, est in merged.items().items() if est > d}
        if not heavy:
            return TruthTarget("empty", empty, empty, empty, "no heavy items")
        items = np.fromiter(heavy.keys(), dtype=np.int64, count=len(heavy))
        order = np.argsort(items)
        items = items[order]
        ests = np.fromiter(
            heavy.values(), dtype=np.float64, count=len(heavy)
        )[order]
        # Certified per-item probability upper bounds (weight monotone
        # nondecreasing): p_true(i) = w(f_i)/F with est_i ≤ f_i ≤
        # est_i + d and F ≥ Σ_heavy w(est_j), so
        # p_true(i) ≤ w(est_i + d) / Σ_heavy w(est_j).
        f_lo = float(self._profile.weight(ests).sum())
        if f_lo <= 0:
            return TruthTarget("empty", empty, empty, empty, "zero weight")
        p_hi = np.minimum(1.0, self._profile.weight(ests + d) / f_lo)
        return TruthTarget("sketch", items, empty, p_hi)


class SequentialMonitor:
    """The anytime-valid verdict keeper: a product e-process over the
    per-tick p-values (see the module docstring for the math)."""

    def __init__(
        self, alpha: float = 0.01, kappa: float = 0.5
    ) -> None:
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if not 0 < kappa < 1:
            raise ValueError(f"kappa must be in (0, 1), got {kappa}")
        self.alpha = alpha
        self.kappa = kappa
        self.log_e = 0.0
        self.ticks = 0
        self.flagged = False  # latches: a flag never clears
        self.last_p: float | None = None

    @property
    def e_value(self) -> float:
        return math.exp(min(self.log_e, 700.0))

    @property
    def threshold(self) -> float:
        return 1.0 / self.alpha

    def update(self, p_value: float) -> bool:
        """Fold one tick's p-value into the e-process; returns whether
        the monitor is (now or already) flagged."""
        p = min(1.0, max(float(p_value), P_FLOOR))
        self.log_e += math.log(self.kappa) + (self.kappa - 1.0) * math.log(p)
        self.ticks += 1
        self.last_p = p
        if self.log_e >= math.log(self.threshold):
            self.flagged = True
        return self.flagged


@dataclass
class AuditEvent:
    """One audit tick's outcome (kept in the auditor's bounded history
    and mirrored as a ``serving.audit`` span in the trace ring)."""

    tick: int
    result: str  # evaluated | skipped_* | discarded_race | unsupported
    draws: int = 0
    item_draws: int = 0
    p_value: float | None = None
    e_value: float | None = None
    flagged: bool = False
    tv_observed: float | None = None
    tv_bound: float | None = None
    mode: str = ""
    support: int = 0
    generation: int | None = None
    watermark: float | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


class Auditor:
    """Feed accounting + per-tick evaluation + verdict for one audited
    sampler config.  Service wiring lives in
    :class:`repro.serving.SamplerService`; tests drive bare samplers
    through :meth:`feed` / :meth:`evaluate` directly."""

    def __init__(
        self,
        kind_config: dict,
        config: AuditConfig | None = None,
        *,
        metrics=None,
    ) -> None:
        self.config = config if config is not None else AuditConfig()
        self.kind = dict(kind_config).get("kind")
        self.profile = audit_profile(kind_config, self.config.query_kwargs)
        self.supported = self.profile.category != "unsupported"
        self.truth = (
            ShadowTruth(self.profile, self.config) if self.supported else None
        )
        self.monitor = SequentialMonitor(self.config.alpha, self.config.kappa)
        self._history: deque[AuditEvent] = deque(maxlen=self.config.max_history)
        self._ticks = 0
        self._draws_total = 0
        self._evaluated = 0
        self._lock = threading.Lock()
        registry = current_registry() if metrics is None else metrics
        self._m_verdict = registry.gauge(
            "repro_audit_verdict", CATALOG_HELP["repro_audit_verdict"]
        )
        registry.counter(
            "repro_audit_draws_total", CATALOG_HELP["repro_audit_draws_total"]
        ).add_function(lambda: self._draws_total)
        self._m_tvd = registry.gauge(
            "repro_audit_tvd_bound", CATALOG_HELP["repro_audit_tvd_bound"]
        )
        self._m_evalue = registry.gauge(
            "repro_audit_evalue", CATALOG_HELP["repro_audit_evalue"]
        )
        self._m_ticks = registry.counter(
            "repro_audit_ticks_total",
            CATALOG_HELP["repro_audit_ticks_total"],
            labels=("result",),
        )
        self._m_verdict.set(self.verdict)

    # -- state --------------------------------------------------------------
    @property
    def verdict(self) -> int:
        """``1`` passing, ``0`` flagged, ``-1`` unsupported / no
        evaluated tick yet."""
        if self.monitor.flagged:
            return 0
        if not self.supported or self._evaluated == 0:
            return -1
        return 1

    @property
    def flagged(self) -> bool:
        return self.monitor.flagged

    @property
    def draws_total(self) -> int:
        return self._draws_total

    @property
    def truth_version(self) -> int:
        return 0 if self.truth is None else self.truth.version

    def history(self) -> list[AuditEvent]:
        with self._lock:
            return list(self._history)

    def status(self) -> dict:
        """The machine-readable audit endpoint (stats / flight bundle)."""
        last = None
        with self._lock:
            if self._history:
                last = self._history[-1].to_dict()
        return {
            "kind": self.kind,
            "supported": self.supported,
            "category": self.profile.category,
            "verdict": self.verdict,
            "flagged": self.flagged,
            "ticks": self._ticks,
            "evaluated_ticks": self._evaluated,
            "draws_total": self._draws_total,
            "e_value": self.monitor.e_value,
            "e_threshold": self.monitor.threshold,
            "alpha": self.config.alpha,
            "truth_mode": None if self.truth is None else self.truth.mode,
            "tenant_items": (
                {} if self.truth is None else self.truth.tenant_items()
            ),
            "last_event": last,
        }

    # -- feeding ------------------------------------------------------------
    def feed(self, items, timestamps=None, tenant: str | None = None) -> None:
        if self.truth is not None:
            self.truth.feed(items, timestamps, tenant)

    # -- ticks --------------------------------------------------------------
    def _finish(self, event: AuditEvent) -> AuditEvent:
        with self._lock:
            self._history.append(event)
        self._m_ticks.labels(result=event.result).inc()
        self._m_verdict.set(self.verdict)
        with span("serving.audit") as sp:
            sp.set(
                result=event.result,
                draws=event.draws,
                p_value=event.p_value,
                e_value=event.e_value,
                flagged=event.flagged,
                tv_bound=event.tv_bound,
                generation=event.generation,
            )
        return event

    def record_skip(self, reason: str, detail: str = "") -> AuditEvent:
        """Record a tick that could not be evaluated (queues busy, fold
        race, refresh error) — still visible in history and metrics."""
        self._ticks += 1
        return self._finish(
            AuditEvent(tick=self._ticks, result=reason, detail=detail)
        )

    def evaluate(
        self,
        results,
        now: float | None = None,
        generation: int | None = None,
    ) -> AuditEvent:
        """Judge one batch of dedicated audit draws against the truth.

        ``results`` is a sequence of
        :class:`~repro.core.types.SampleResult`; EMPTY/FAIL draws are
        excluded (the perfection guarantee is conditional on returning
        an item), so the test runs on the ITEM draws only.
        """
        self._ticks += 1
        draws = len(results)
        self._draws_total += draws
        base = dict(
            tick=self._ticks, draws=draws, generation=generation, watermark=now
        )
        if not self.supported:
            return self._finish(
                AuditEvent(
                    result="unsupported",
                    detail=f"kind {self.kind!r} exposes no auditable sample()",
                    **base,
                )
            )
        items = np.asarray(
            [r.item for r in results if getattr(r, "is_item", False)],
            dtype=np.int64,
        )
        base["item_draws"] = int(items.size)
        if items.size < self.config.min_draws:
            return self._finish(
                AuditEvent(
                    result="skipped_sparse",
                    detail=(
                        f"{items.size} item draws < min_draws="
                        f"{self.config.min_draws}"
                    ),
                    **base,
                )
            )
        target = self.truth.target(now=now)
        if target.mode in ("empty", "unsupported"):
            return self._finish(
                AuditEvent(
                    result=f"skipped_{target.mode}", detail=target.detail,
                    **base,
                )
            )
        if target.mode == "exact":
            event = self._evaluate_exact(items, target, base)
        else:
            event = self._evaluate_sketch(items, target, base)
        self._evaluated += 1
        self._m_evalue.set(self.monitor.e_value)
        if event.tv_bound is not None:
            self._m_tvd.set(event.tv_bound)
        return self._finish(event)

    def _evaluate_exact(
        self, items: np.ndarray, target: TruthTarget, base: dict
    ) -> AuditEvent:
        idx = np.searchsorted(target.support, items)
        idx_clamped = np.minimum(idx, target.support.size - 1)
        on_support = target.support[idx_clamped] == items
        n = int(items.size)
        off = int(n - int(on_support.sum()))
        if self.profile.membership_only:
            # The sampler's repeated-draw law is state-conditional
            # (e.g. ``bounded``'s accept/reject over state-fixed F0
            # candidates): distribution-shape tests would flag every
            # correct instance, so only support membership — which is
            # certified by the shadow truth — is judged.
            p_value = 0.0 if off else 1.0
            detail = (
                f"{off} draws outside the live support" if off
                else "support-membership audit (state-conditional sampler)"
            )
            flagged = self.monitor.update(p_value)
            return AuditEvent(
                result="evaluated",
                p_value=float(max(p_value, P_FLOOR)),
                e_value=self.monitor.e_value,
                flagged=flagged,
                mode="exact",
                support=int(target.support.size),
                detail=detail,
                **base,
            )
        if self.profile.category == "distinct":
            # Conditional-uniformity null.  A truly perfect F0 sampler
            # is *marginally* uniform over the live distinct set, but
            # its candidate set is fixed at state level (Algorithm 5's
            # random S, min-hash's argmin), so repeated draws from one
            # state are uniform only over that subset — full-support
            # chi-square would flag every correct sampler.  The sound
            # per-state null is: every draw lands inside the true
            # distinct set (certified, p = 0 otherwise) and draws are
            # uniform over the categories actually drawn.
            __, cond = np.unique(items[on_support], return_counts=True)
            counts = cond.astype(np.float64)
            k = int(counts.size)
            probs = (
                np.full(k, 1.0 / k) if k else np.empty(0, dtype=np.float64)
            )
            detail = f"conditional-uniform over {k} drawn categories"
        else:
            counts = np.bincount(
                idx_clamped[on_support], minlength=target.support.size
            ).astype(np.float64)
            k = int(target.support.size)
            probs = target.probs
            detail = ""
        if off > 0:
            # An item with zero live frequency has probability zero
            # under the null — certified evidence, not a p-value.
            p_value = 0.0
            detail = f"{off} draws outside the live support"
        else:
            __, p_value = chi_square_gof(counts, probs, self.config.min_expected)
        if k == 0:
            tv_obs, tv_bound = 1.0, 1.0
        else:
            tv_obs = total_variation(counts / n, probs)
            tv_bound = tv_upper_bound(tv_obs, k, n, delta=self.config.alpha)
        flagged = self.monitor.update(p_value)
        return AuditEvent(
            result="evaluated",
            p_value=float(max(p_value, P_FLOOR)),
            e_value=self.monitor.e_value,
            flagged=flagged,
            tv_observed=float(tv_obs),
            tv_bound=float(tv_bound),
            mode="exact",
            support=k,
            detail=detail,
            **base,
        )

    def _evaluate_sketch(
        self, items: np.ndarray, target: TruthTarget, base: dict
    ) -> AuditEvent:
        """One-sided heavy-coordinate inflation test: for each heavy
        item the sketch certifies ``P(draw = i) ≤ p_hi(i)``; a draw
        count binomially improbable under every certified bound is
        evidence of bias.  Bonferroni across the heavy set keeps the
        tick p-value valid (conservatively) under the null."""
        n = int(items.size)
        idx = np.searchsorted(target.support, items)
        idx_clamped = np.minimum(idx, target.support.size - 1)
        on_support = target.support[idx_clamped] == items
        counts = np.bincount(
            idx_clamped[on_support], minlength=target.support.size
        )
        p_min = 1.0
        for k_i, p_i in zip(counts.tolist(), target.p_hi.tolist()):
            if k_i == 0:
                continue
            p_min = min(p_min, float(sps.binom.sf(k_i - 1, n, p_i)))
        p_value = min(1.0, p_min * target.support.size)
        flagged = self.monitor.update(p_value)
        return AuditEvent(
            result="evaluated",
            p_value=float(max(p_value, P_FLOOR)),
            e_value=self.monitor.e_value,
            flagged=flagged,
            mode="sketch",
            support=int(target.support.size),
            detail="one-sided heavy-inflation test (Misra–Gries regime)",
            **base,
        )
