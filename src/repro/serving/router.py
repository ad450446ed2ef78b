"""Admission + routing: the first two stages of the serving front door.

A submitted batch passes through, in order:

1. **admission control** — per-tenant token buckets
   (:class:`TenantRateLimiter`): a tenant whose bucket cannot cover the
   batch is shed with :class:`~repro.serving.errors.RateLimited` before
   any routing work happens;
2. **routing** — :class:`ShardRouter` hash-partitions the batch into
   per-shard subchunks with *exactly* the engine's own split (same
   partitioner, same stable within-shard order), which is what makes
   worker-ingested state bitwise identical to a sequential
   ``engine.ingest`` of the same batches.

The bounded per-shard queues the router feeds live in
:mod:`repro.serving.workers`.
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np

from repro.engine.partition import UniversePartitioner
from repro.obs.catalog import CATALOG_HELP
from repro.obs.metrics import current_registry
from repro.serving.errors import RateLimited

__all__ = ["RoutedBatch", "ShardRouter", "TokenBucket", "TenantRateLimiter"]


class RoutedBatch:
    """One shard's slice of a submitted batch (timestamps ``None`` for
    untimed sampler kinds)."""

    __slots__ = ("shard", "items", "timestamps")

    def __init__(self, shard: int, items: np.ndarray, timestamps) -> None:
        self.shard = shard
        self.items = items
        self.timestamps = timestamps

    def __len__(self) -> int:
        return int(self.items.size)

    def __repr__(self) -> str:
        timed = "timed" if self.timestamps is not None else "untimed"
        return f"RoutedBatch(shard={self.shard}, items={len(self)}, {timed})"


class ShardRouter:
    """Vectorized batch → per-shard subchunk routing.

    Wraps the engine's own :class:`UniversePartitioner` so routed
    subchunks match ``ShardedSamplerEngine.ingest``'s internal split
    bitwise: the same items land on the same shards in the same
    within-shard order, whether a batch enters through the engine or
    through the service.
    """

    def __init__(self, partitioner: UniversePartitioner) -> None:
        self._partitioner = partitioner

    @property
    def shards(self) -> int:
        return self._partitioner.shards

    def normalize(self, items, timestamps=None):
        """Coerce one submit into ``(items, timestamps)`` arrays without
        doing any routing work — accepts a plain item array, a
        ``TimestampedStream`` (timestamps picked up automatically), or
        an explicit ``timestamps`` array.  This is the cheap first step
        the service runs *before* admission control, so a rate-limited
        batch never pays for hash partitioning."""
        if timestamps is None:
            timestamps = getattr(items, "timestamps", None)
        inner = getattr(items, "items", None)
        arr = np.asarray(inner if inner is not None else items, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("route expects a 1-d sequence of items")
        if timestamps is None:
            return arr, None
        ts = np.asarray(timestamps, dtype=np.float64)
        if ts.shape != arr.shape:
            raise ValueError("items and timestamps must be matching 1-d arrays")
        return arr, ts

    def route(self, items, timestamps=None) -> list[RoutedBatch]:
        """Split one batch into non-empty per-shard subchunks, shard
        order ascending (input forms as in :meth:`normalize`)."""
        return self.route_normalized(*self.normalize(items, timestamps))

    def route_normalized(self, arr, ts) -> list[RoutedBatch]:
        """:meth:`route` for arrays :meth:`normalize` already produced —
        the service's hot path, skipping the redundant re-coercion."""
        if ts is None:
            return [
                RoutedBatch(shard, sub, None)
                for shard, sub in enumerate(self._partitioner.split(arr))
                if sub.size
            ]
        # The engine's timed grouping: one stable argsort, one gather
        # for the items and one for the timestamps.
        order, bounds = self._partitioner.split_indices(arr)
        if order is not None:
            arr = arr[order]
            ts = ts[order]
        return [
            RoutedBatch(shard, arr[lo:hi], ts[lo:hi])
            for shard, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
            if hi > lo
        ]


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` cap.

    One token admits one item.  ``try_consume`` is all-or-nothing (a
    batch is never partially admitted) and returns the seconds until
    the bucket could cover the batch when it cannot now.
    """

    __slots__ = ("rate", "burst", "_tokens", "_stamp")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError(f"rate and burst must be positive, got {rate}, {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp: float | None = None

    def try_consume(self, n: int, now: float) -> float:
        """Consume ``n`` tokens if available; returns 0.0 on success,
        else the seconds until ``n`` tokens will have accrued —
        ``math.inf`` when ``n`` exceeds the burst cap (tokens never
        accrue past ``burst``, so such a batch is permanently
        inadmissible and must be split instead of retried)."""
        if n > self.burst:
            return math.inf
        if self._stamp is not None and now > self._stamp:
            self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now
        if n <= self._tokens:
            self._tokens -= n
            return 0.0
        return (n - self._tokens) / self.rate

    def refund(self, n: int) -> None:
        """Return ``n`` tokens (capped at ``burst``) — for callers whose
        admitted batch was then rejected downstream before any of it
        took effect."""
        self._tokens = min(self.burst, self._tokens + n)


class TenantRateLimiter:
    """Per-tenant admission control over a table of token buckets.

    ``limits`` maps tenant id → ``(rate, burst)``; ``default`` applies
    to tenants not in the table (``None`` = unlimited).  Thread-safe;
    the serving layer calls :meth:`admit` on every submit.

    Default-rate buckets are created lazily per tenant id and the table
    is bounded by ``max_tenants``: past the cap, the longest-idle
    *full* bucket is evicted first (a bucket refilled to its burst cap
    carries no admission state, so dropping it is semantically
    lossless), falling back to the longest-idle bucket outright — so
    high-cardinality or adversarial tenant ids cannot grow memory
    without bound.  Explicitly-configured ``limits`` buckets are never
    evicted.
    """

    def __init__(
        self,
        limits: dict[str, tuple[float, float]] | None = None,
        default: tuple[float, float] | None = None,
        clock=time.monotonic,
        max_tenants: int = 4096,
        metrics=None,
    ) -> None:
        if max_tenants < 1:
            raise ValueError(f"max_tenants must be ≥ 1, got {max_tenants}")
        self._lock = threading.Lock()
        self._clock = clock
        self._default = default
        self._pinned = frozenset((limits or {}).keys())
        self._max_tenants = max_tenants
        self._buckets = {
            tenant: TokenBucket(rate, burst)
            for tenant, (rate, burst) in (limits or {}).items()
        }
        self._shed = 0
        registry = current_registry() if metrics is None else metrics
        self._m_rate_limited = registry.counter(
            "repro_serving_rate_limited_total",
            CATALOG_HELP["repro_serving_rate_limited_total"],
            labels=("tenant",),
        )

    @property
    def shed_count(self) -> int:
        """Batches rejected so far (for the stats endpoint)."""
        return self._shed

    def bucket_count(self) -> int:
        """Token buckets currently tracked (for the tenant-table gauge)."""
        with self._lock:
            return len(self._buckets)

    def admit(self, tenant: str | None, n: int) -> None:
        """Admit ``n`` items for ``tenant`` or raise
        :class:`RateLimited`.  Tenants without a bucket (and no default
        limit) are always admitted."""
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                if self._default is None:
                    return
                if len(self._buckets) - len(self._pinned) >= self._max_tenants:
                    self._evict_one()
                bucket = TokenBucket(*self._default)
                self._buckets[tenant] = bucket
            wait = bucket.try_consume(n, self._clock())
            if wait > 0.0:
                self._shed += 1
                self._m_rate_limited.labels(
                    tenant=tenant if tenant is not None else "_default"
                ).inc()
                if math.isinf(wait):
                    raise RateLimited(
                        f"batch of {n} items exceeds tenant {tenant!r}'s "
                        f"burst cap ({bucket.burst:g}) and can never be "
                        "admitted whole — split it into smaller submits",
                        tenant=str(tenant),
                        retry_after=wait,
                    )
                raise RateLimited(
                    f"tenant {tenant!r} over its rate cap "
                    f"({bucket.rate:g} items/s, burst {bucket.burst:g}); "
                    f"batch of {n} admissible in ~{wait:.3f}s",
                    tenant=str(tenant),
                    retry_after=wait,
                )

    def _evict_one(self) -> None:
        """Drop one lazily-created bucket (caller holds the lock):
        longest-idle among the refilled-to-burst ones, else the
        longest-idle outright."""
        now = self._clock()
        best = None
        best_rank = None
        for tenant, bucket in self._buckets.items():
            if tenant in self._pinned:
                continue
            stamp = bucket._stamp if bucket._stamp is not None else -math.inf
            tokens = min(
                bucket.burst,
                bucket._tokens
                + (max(0.0, now - stamp) * bucket.rate if stamp > -math.inf else 0.0),
            )
            # Rank: full buckets (lossless to drop) before partial ones,
            # then by idleness.
            rank = (tokens < bucket.burst, stamp)
            if best_rank is None or rank < best_rank:
                best, best_rank = tenant, rank
        if best is not None:
            del self._buckets[best]

    def refund(self, tenant: str | None, n: int) -> None:
        """Return an admitted batch's tokens after a downstream atomic
        rejection (queue backpressure) — keeps admission + queueing
        jointly atomic: a shed submit costs the tenant nothing."""
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is not None:
                bucket.refund(n)
