"""WindowBank — one ingest path, a ladder of time-window samplers.

Production dashboards ask the same questions at several horizons at once
("uniques and trending items over the last 1m / 5m / 1h").  A
:class:`WindowBank` owns one time-window sampler family per ladder rung
and feeds them all from a single batched ingest call:

* a G- or Lp-sampler per horizon (trending items, moment-weighted
  sampling) — exactly one of ``measure`` / ``p`` selects the family;
* optionally an F0 sampler per horizon (uniform over active items) when
  the universe size ``n`` is given.

The bank validates each chunk **once** and hands it whole to every
member.  A pool member plans the chunk first and feeds only the (at most
two) generations kept at its end, each with one batched suffix call —
at most two pool calls per rung however many buckets the chunk spans.
Skipping the generations born and dropped inside the chunk is bitwise:
they never reach a snapshot or a sample, and the kept ones draw from
per-bucket RNG streams.

All member RNG streams derive deterministically from one root seed, so
batched ingestion is bitwise identical to the scalar loop and snapshots
restore exactly.  The bank is itself a :class:`MergeableState`: shard
banks over a disjoint universe partition merge member-wise (pass a
shared ``f0_seed`` so the F0 members' random subsets line up across
shards — the bank's analogue of the engine's shared-seed F0 rule).
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.measures import Measure
from repro.core.types import SampleResult, as_timed_arrays
from repro.lifecycle.memory import INSTANCE_BYTES
from repro.obs.catalog import CATALOG_HELP
from repro.obs.metrics import current_registry
from repro.windows.chunking import as_timed_chunk
from repro.windows.f0 import TimeWindowF0Sampler
from repro.windows.time_window import (
    TimeWindowGSampler,
    TimeWindowLpSampler,
    _derive_root,
)

__all__ = ["WindowBank"]


class WindowBank:
    """A bank of time-window samplers over a resolution ladder.

    Parameters
    ----------
    resolutions:
        Window horizons in seconds, e.g. ``(60, 300, 3600)``; sorted
        ascending internally.
    measure / p:
        Exactly one selects the pool-sampler family per rung: a
        :class:`~repro.core.measures.Measure` builds
        :class:`TimeWindowGSampler` rungs, a float ``p ≥ 1`` builds
        :class:`TimeWindowLpSampler` rungs.
    n:
        Universe size; when given, each rung also gets a
        :class:`TimeWindowF0Sampler` ("uniform over active items").
    instances:
        Instances per pool sampler (defaults per sampler otherwise).
    expected_rate:
        Expected arrivals per second; sizes each rung's default
        instance count at its own expected window occupancy.
    f0_seed:
        Separate seed for the F0 members' random subsets.  Give every
        shard of a sharded deployment the *same* ``f0_seed`` (the
        pool members still want independent per-shard ``seed``\\ s).
    """

    def __init__(
        self,
        resolutions,
        *,
        measure: Measure | None = None,
        p: float | None = None,
        n: int | None = None,
        instances: int | None = None,
        delta: float = 0.05,
        expected_rate: float | None = None,
        seed: int | np.random.Generator | None = None,
        f0_seed: int | None = None,
    ) -> None:
        horizons = tuple(sorted(float(h) for h in resolutions))
        if not horizons:
            raise ValueError("need at least one resolution")
        if any(h <= 0 for h in horizons):
            raise ValueError("resolutions must be positive")
        if len(set(horizons)) != len(horizons):
            raise ValueError(f"duplicate resolutions in {horizons}")
        if (measure is None) == (p is None):
            raise ValueError("give exactly one of measure= or p=")
        if n is None and f0_seed is not None:
            raise ValueError("f0_seed needs n= (no F0 members otherwise)")
        self._resolutions = horizons
        self._n = n
        self._root = _derive_root(seed)
        self._f0_seed = f0_seed
        self._pool_samplers: dict[float, TimeWindowGSampler | TimeWindowLpSampler] = {}
        self._f0_samplers: dict[float, TimeWindowF0Sampler] = {}
        for i, horizon in enumerate(horizons):
            expected = (
                max(1, round(expected_rate * horizon))
                if expected_rate is not None
                else None
            )
            member_seed = np.random.default_rng([self._root, 2, i])
            if measure is not None:
                self._pool_samplers[horizon] = TimeWindowGSampler(
                    measure,
                    horizon,
                    instances=instances,
                    delta=delta,
                    expected_window_count=expected,
                    seed=member_seed,
                )
            else:
                self._pool_samplers[horizon] = TimeWindowLpSampler(
                    p,
                    horizon,
                    instances=instances,
                    delta=delta,
                    expected_window_count=expected,
                    seed=member_seed,
                )
            if n is not None:
                f0_member_seed = (
                    np.random.default_rng([int(f0_seed) % 2**63, 3, i])
                    if f0_seed is not None
                    else np.random.default_rng([self._root, 3, i])
                )
                self._f0_samplers[horizon] = TimeWindowF0Sampler(
                    n, horizon, delta=delta, seed=f0_member_seed
                )
        # Per-rung ingest/expiry counters, resolved from the *current*
        # registry at construction time — a serving deployment installs
        # its own registry while building the engine, so a served bank's
        # rung counters land there; standalone banks report to the
        # process-global default.  The children are shared no-ops when
        # the registry is disabled, and survive deep copies by identity
        # (query views / folds report into the same counters).
        registry = current_registry()
        ingested = registry.counter(
            "repro_windows_ingested_items_total",
            CATALOG_HELP["repro_windows_ingested_items_total"],
            labels=("resolution",),
        )
        expired = registry.counter(
            "repro_windows_expired_reclaimed_bytes_total",
            CATALOG_HELP["repro_windows_expired_reclaimed_bytes_total"],
            labels=("resolution",),
        )
        self._m_ingested = {
            h: ingested.labels(resolution=f"{h:g}") for h in horizons
        }
        self._m_expired = {
            h: expired.labels(resolution=f"{h:g}") for h in horizons
        }

    # -- properties ---------------------------------------------------------
    @property
    def resolutions(self) -> tuple[float, ...]:
        """The ladder horizons, ascending."""
        return self._resolutions

    @property
    def has_f0(self) -> bool:
        return bool(self._f0_samplers)

    @property
    def position(self) -> int:
        """Total updates ingested."""
        finest = self._pool_samplers[self._resolutions[0]]
        return finest.position

    @property
    def now(self) -> float:
        """The bank's clock watermark (all members share one ingest
        path, so one clock)."""
        finest = self._pool_samplers[self._resolutions[0]]
        return finest.now

    def watermark(self) -> float | None:
        """The shared clock watermark (``None`` while pristine)."""
        return self._pool_samplers[self._resolutions[0]].watermark()

    def _members(self):
        yield from self._pool_samplers.values()
        yield from self._f0_samplers.values()

    def approx_size_bytes(self) -> int:
        return INSTANCE_BYTES + sum(
            member.approx_size_bytes() for member in self._members()
        )

    def compact(self, now: float | None = None) -> int:
        """Fan ``compact(now)`` out to every rung (pool and F0 members);
        returns the total approximate bytes reclaimed, attributed to
        each rung's resolution in the expiry counter.  Passing ``now``
        advances the whole bank's clock watermark."""
        total = 0
        for horizon in self._resolutions:
            freed = self._pool_samplers[horizon].compact(now)
            f0 = self._f0_samplers.get(horizon)
            if f0 is not None:
                freed += f0.compact(now)
            if freed:
                self._m_expired[horizon].add(freed)
            total += freed
        return total

    def pool_sampler(self, horizon: float):
        """The G/Lp member at ``horizon`` (exact match required)."""
        try:
            return self._pool_samplers[float(horizon)]
        except KeyError:
            raise ValueError(
                f"no rung at horizon {horizon!r}; ladder: {self._resolutions}"
            ) from None

    def f0_sampler(self, horizon: float) -> TimeWindowF0Sampler:
        """The F0 member at ``horizon`` (requires construction with n=)."""
        if not self._f0_samplers:
            raise ValueError("bank was built without n=, it has no F0 members")
        try:
            return self._f0_samplers[float(horizon)]
        except KeyError:
            raise ValueError(
                f"no rung at horizon {horizon!r}; ladder: {self._resolutions}"
            ) from None

    # -- ingestion ----------------------------------------------------------
    def update(self, item: int, timestamp: float) -> None:
        # Validate before touching ANY member: a rejected update must
        # leave the bank consistent (pool members have no universe check
        # of their own, so the F0 members' range error would otherwise
        # fire only after the pools already ingested the item).
        if self._n is not None and not 0 <= item < self._n:
            raise ValueError(f"item {item} outside universe [0, {self._n})")
        for sampler in self._pool_samplers.values():
            sampler.update(item, timestamp)
        for sampler in self._f0_samplers.values():
            sampler.update(item, timestamp)
        self._count_ingested(1)

    def _count_ingested(self, n: int) -> None:
        # Every rung sees the full stream, so each rung's counter
        # advances by the whole chunk.
        for child in self._m_ingested.values():
            child.add(n)

    def extend(self, pairs) -> None:
        """Ingest an iterable of ``(item, timestamp)`` pairs; delegates
        to :meth:`update_batch` (bitwise identical — all member RNG
        streams are per-bucket, so batching reorders no randomness)."""
        self.update_batch(*as_timed_arrays(pairs))

    def update_batch(self, items, timestamps) -> None:
        """Validate the chunk once, then feed it whole to every member
        (pool members plan which generations survive it; see the module
        docstring).  Validation precedes any mutation, so a rejected
        chunk leaves the whole bank unchanged and retryable."""
        arr, ts = self.validate_batch(items, timestamps)
        if arr.size:
            self._ingest(arr, ts)

    def _ingest(self, arr: np.ndarray, ts: np.ndarray) -> None:
        """Feed a validated, non-empty chunk to every member (also the
        engine's entry point after it validated every shard's part)."""
        for member in self._members():
            member._ingest(arr, ts)
        self._count_ingested(int(arr.size))

    def validate_batch(self, items, timestamps) -> tuple[np.ndarray, np.ndarray]:
        """The checks :meth:`update_batch` runs before touching any
        member (see :func:`~repro.windows.chunking.as_timed_chunk`);
        returns the coerced ``(items, timestamps)`` arrays."""
        return as_timed_chunk(items, timestamps, self.now, n=self._n)

    # -- queries ------------------------------------------------------------
    def sample(self, horizon: float, now: float | None = None) -> SampleResult:
        """One truly perfect G/Lp sample over the rung's active window."""
        return self.pool_sampler(horizon).sample(now=now)

    def sample_distinct(self, horizon: float, now: float | None = None) -> SampleResult:
        """One uniform sample of the rung's active distinct items."""
        return self.f0_sampler(horizon).sample(now=now)

    def sample_all(self, now: float | None = None) -> dict[float, SampleResult]:
        """One G/Lp sample per rung, finest first."""
        return {
            horizon: self.sample(horizon, now=now)
            for horizon in self._resolutions
        }

    def sample_many(
        self, k: int, horizon: float, now: float | None = None
    ) -> list[SampleResult]:
        """``k`` independent G/Lp samples from the rung at ``horizon``
        with one batched coin block (bitwise identical to ``k``
        back-to-back :meth:`sample` calls at the same ``now``)."""
        return self.pool_sampler(horizon).sample_many(k, now=now)

    def sample_distinct_many(
        self, k: int, horizon: float, now: float | None = None
    ) -> list[SampleResult]:
        """``k`` independent uniform samples of the rung's active
        distinct items with one batched index draw."""
        return self.f0_sampler(horizon).sample_many(k, now=now)

    def spawn_query_rng(self, rng: np.random.Generator) -> "WindowBank":
        """The optional lifecycle query-view hook (see
        :mod:`repro.lifecycle.rng`): a query-only clone of the bank
        whose members each draw from their *own* child stream derived
        from ``rng``.

        Distinct per-member streams mirror the live bank's RNG layout
        (one stream per rung), so a view's per-rung query sequences
        stay independent of each other — the generic fallback would
        collapse them onto one shared stream, which is distributionally
        fine but couples the rungs' coin consumption.  This bank's own
        streams are never touched.
        """
        members = list(self._members())
        # Every time-window member draws query coins from its own `_rng`
        # (generation pools carry ingest-only streams the query path
        # never touches).  Seeding the copy's memo with the new streams
        # substitutes them during the copy instead of cloning the old
        # ones first.
        memo = {
            id(member._rng): np.random.default_rng(int(seed))
            for member, seed in zip(members, rng.integers(2**63, size=len(members)))
        }
        return copy.deepcopy(self, memo)

    # -- mergeable state ----------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "kind": "window_bank",
            "resolutions": list(self._resolutions),
            "root": self._root,
            "pool": {
                str(i): self._pool_samplers[h].snapshot()
                for i, h in enumerate(self._resolutions)
            },
            "f0": {
                str(i): self._f0_samplers[h].snapshot()
                for i, h in enumerate(self._resolutions)
                if h in self._f0_samplers
            },
        }

    def restore(self, state: dict) -> None:
        if state.get("kind") != "window_bank":
            raise ValueError(f"not a window_bank snapshot: {state.get('kind')!r}")
        theirs = tuple(float(h) for h in state["resolutions"])
        if theirs != self._resolutions:
            raise ValueError(
                f"snapshot ladder {theirs} differs from bank's {self._resolutions}"
            )
        if len(state["f0"]) != len(self._f0_samplers):
            raise ValueError(
                "snapshot and bank disagree on F0 members (was the bank "
                "built with the same n=?)"
            )
        self._root = int(state["root"])
        for i, horizon in enumerate(self._resolutions):
            self._pool_samplers[horizon].restore(state["pool"][str(i)])
            if horizon in self._f0_samplers:
                self._f0_samplers[horizon].restore(state["f0"][str(i)])

    def merge(self, other: "WindowBank") -> None:
        """Member-wise merge of two banks fed disjoint universe
        partitions over the same wall clock."""
        if not isinstance(other, WindowBank):
            raise TypeError(f"cannot merge WindowBank with {type(other).__name__}")
        if other._resolutions != self._resolutions:
            raise ValueError(
                f"ladders differ: {self._resolutions} vs {other._resolutions}"
            )
        if set(other._f0_samplers) != set(self._f0_samplers):
            raise ValueError("banks disagree on F0 members")
        for horizon in self._resolutions:
            self._pool_samplers[horizon].merge(other._pool_samplers[horizon])
            if horizon in self._f0_samplers:
                self._f0_samplers[horizon].merge(other._f0_samplers[horizon])
