"""Truly perfect F0 sampling over time-based sliding windows.

The wall-clock analogue of Corollary 5.3
(:class:`repro.sliding_window.SlidingWindowF0Sampler`): every
"position" in the count-based certificate becomes an arrival timestamp.

* An LRU table of the ≤ √n+1 most-recently-seen items, keyed by
  last-occurrence *time*.  If every eviction ever performed removed an
  item whose recorded last occurrence has since left the window
  (``evict_horizon ≤ now − H``), the pruned table *is* the window's
  exact support and sampling is uniform over it.  Otherwise some
  eviction happened while more than √n distinct items were active —
  certifying the window's F0 exceeded √n at that moment — and the
  S-regime is the correct branch.
* ``S`` is the usual random 2√n-subset; a member is *alive* when its
  last-occurrence timestamp lies inside the window.  Uniformity over
  the window support follows from the permutation symmetry of ``S``
  exactly as in the whole-stream case.

Updates consume no randomness, so batched ingestion is bitwise
identical to the scalar loop.  Merging shards of a disjoint universe
partition over a shared wall clock is exact when the shards share their
random subsets (construct them from the same seed — the engine's
``SHARD_SHARED_SEED_KINDS`` rule): last-occurrence tables union
disjointly, and the merged LRU re-evicts down to capacity, recording
any displaced timestamp in the eviction horizon so the certificate
stays sound.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

from repro.core.rejection import uniform_candidate_many, uniform_candidate_sample
from repro.core.types import SampleResult, as_timed_arrays
from repro.lifecycle.memory import (
    INSTANCE_BYTES,
    RNG_STATE_BYTES,
    mapping_bytes,
    set_bytes,
)
from repro.sliding_window.f0_window import chunk_last_occurrences, lru_fold_chunk
from repro.windows.chunking import as_clock, as_timed_chunk

__all__ = ["TimeWindowF0Sampler"]


class _WindowCopy:
    """One S-copy: last-seen timestamps for members of a random subset."""

    __slots__ = ("s_set", "last_seen")

    def __init__(self, s_set: set[int]) -> None:
        self.s_set = s_set
        self.last_seen: dict[int, float] = {}


class TimeWindowF0Sampler:
    """Truly perfect F0 sampler over the last ``horizon`` seconds.

    Parameters
    ----------
    n:
        Universe size.
    horizon:
        Window length in seconds.
    delta:
        FAIL probability; drives the number of independent S-copies.
    """

    def __init__(
        self,
        n: int,
        horizon: float,
        delta: float = 0.05,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if n < 1:
            raise ValueError("n must be ≥ 1")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        self._n = n
        self._horizon = float(horizon)
        self._delta = delta
        self._threshold = max(1, math.isqrt(n) + (0 if math.isqrt(n) ** 2 == n else 1))
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        self._recent: OrderedDict[int, float] = OrderedDict()
        self._evict_horizon = -math.inf  # newest last-occurrence ever evicted
        copies = max(1, math.ceil(math.log(1.0 / delta) / 2.0))
        s_size = min(2 * self._threshold, n)
        self._copies = [
            _WindowCopy(
                set(int(x) for x in self._rng.choice(n, size=s_size, replace=False))
            )
            for __ in range(copies)
        ]
        self._t = 0
        # Clock watermark vs newest ingested update — see
        # repro.windows.time_window for the distinction.
        self._now = 0.0
        self._last_arrival = -math.inf

    @property
    def n(self) -> int:
        return self._n

    @property
    def threshold(self) -> int:
        return self._threshold

    @property
    def horizon(self) -> float:
        return self._horizon

    @property
    def position(self) -> int:
        return self._t

    @property
    def now(self) -> float:
        return self._now

    def watermark(self) -> float | None:
        """The clock watermark (``None`` while pristine)."""
        if self._t == 0 and self._now == 0.0:
            return None
        return self._now

    def approx_size_bytes(self) -> int:
        return (
            INSTANCE_BYTES
            + RNG_STATE_BYTES
            + mapping_bytes(len(self._recent))
            + sum(
                INSTANCE_BYTES
                + set_bytes(len(copy.s_set))
                + mapping_bytes(len(copy.last_seen))
                for copy in self._copies
            )
        )

    def compact(self, now: float | None = None) -> int:
        """Drop timestamp entries that can never be active again;
        returns the approximate bytes reclaimed.

        Passing ``now`` advances the clock watermark first.  Entries in
        the LRU table and the S-copies whose last occurrence lies at or
        before ``now − H`` fail every future window's activity test, so
        removing them changes no answer.  The eviction certificate stays
        sound: compaction removes only provably-expired occurrences, so
        it never hides active support and never touches the eviction
        horizon.
        """
        if now is not None:
            now = as_clock(now)
            if now > self._now:
                self._now = now
        window_start = self._now - self._horizon
        dropped = 0
        stale = [i for i, when in self._recent.items() if when <= window_start]
        for item in stale:
            del self._recent[item]
        dropped += len(stale)
        for copy in self._copies:
            stale = [
                i for i, when in copy.last_seen.items() if when <= window_start
            ]
            for item in stale:
                del copy.last_seen[item]
            dropped += len(stale)
        return mapping_bytes(dropped) - mapping_bytes(0) if dropped else 0

    def update(self, item: int, timestamp: float) -> None:
        ts = as_clock(timestamp)
        if not 0 <= item < self._n:
            raise ValueError(f"item {item} outside universe [0, {self._n})")
        if ts < 0:
            raise ValueError(f"timestamps must be non-negative, got {ts}")
        if ts < self._now:
            raise ValueError(
                f"timestamps must be non-decreasing: {ts} after {self._now}"
            )
        self._t += 1
        self._now = ts
        self._last_arrival = ts
        recent = self._recent
        if item in recent:
            del recent[item]
        recent[item] = ts
        if len(recent) > self._threshold + 1:
            __, evicted_ts = recent.popitem(last=False)
            self._evict_horizon = max(self._evict_horizon, evicted_ts)
        for copy in self._copies:
            if item in copy.s_set:
                copy.last_seen[item] = ts

    def extend(self, pairs) -> None:
        """Ingest an iterable of ``(item, timestamp)`` pairs; delegates
        to :meth:`update_batch` (bitwise identical — updates consume no
        randomness)."""
        self.update_batch(*as_timed_arrays(pairs))

    def update_batch(self, items, timestamps) -> None:
        """Chunk ingestion, bitwise identical to the scalar loop
        (updates consume no randomness).

        The LRU recency table folds through the vectorized
        :func:`~repro.sliding_window.f0_window.lru_fold_chunk`
        eviction-horizon kernel (no per-item replay), and the per-copy
        random-subset bookkeeping collapses to one last-occurrence write
        per distinct chunk item.
        """
        arr, ts = as_timed_chunk(items, timestamps, self._now, n=self._n)
        if arr.size:
            self._ingest(arr, ts)

    def _ingest(self, arr: np.ndarray, ts: np.ndarray) -> None:
        """Fold a validated, non-empty chunk (also the
        :class:`repro.windows.WindowBank` entry point)."""
        uniq, last_pos = chunk_last_occurrences(arr)
        self._recent, self._evict_horizon = lru_fold_chunk(
            self._recent,
            self._threshold + 1,
            uniq,
            last_pos,
            ts.tolist(),
            self._evict_horizon,
        )
        self._t += int(arr.size)
        self._now = float(ts[-1])
        self._last_arrival = float(ts[-1])
        for item, pos in zip(uniq.tolist(), last_pos.tolist()):
            when = float(ts[pos])
            for copy in self._copies:
                if item in copy.s_set:
                    copy.last_seen[item] = when

    def _active_recent(self, window_start: float) -> list[int]:
        return [i for i, when in self._recent.items() if when > window_start]

    def _support_candidates(
        self, now: float | None
    ) -> tuple[str, list[int] | None]:
        """The state-determined part of :meth:`sample`: the answering
        regime and its candidate items (``("empty", None)`` for ⊥; an
        empty S-regime list means FAIL).  Consumes no randomness."""
        if self._t == 0:
            return "empty", None
        if now is None:
            now = self._now
        elif float(now) < self._now:
            raise ValueError(
                f"cannot sample at {now}, already ingested up to {self._now}"
            )
        window_start = float(now) - self._horizon
        if self._last_arrival <= window_start:
            # Every ingested update expired: an explicit empty-window
            # answer, not a FAIL a caller might retry.
            return "empty", None
        active = self._active_recent(window_start)
        certificate_ok = self._evict_horizon <= window_start
        if certificate_ok and len(active) <= self._threshold:
            # The LRU provably contains the window's entire support.
            if not active:
                return "empty", None
            return "recent", active
        # Dense regime: the window support exceeds √n (certified either by
        # |active| > threshold or by a live eviction witness).
        for copy in self._copies:
            # Canonical (sorted) iteration: scalar ingest, batched
            # ingest, and a restore each populate last_seen in a
            # different key order; the drawn item must not depend on it.
            alive = [
                s for s, when in sorted(copy.last_seen.items())
                if when > window_start
            ]
            if alive:
                return "S", alive
        return "S", []

    def sample(self, now: float | None = None) -> SampleResult:
        """A uniform sample of the distinct items active in
        ``(now − H, now]``."""
        regime, candidates = self._support_candidates(now)
        return uniform_candidate_sample(
            self._rng,
            regime,
            candidates,
            lambda item: SampleResult.of(item, regime=regime),
        )

    def sample_many(self, k: int, now: float | None = None) -> list[SampleResult]:
        """``k`` independent samples with one regime resolution and one
        batched index draw — bitwise identical to ``k`` back-to-back
        :meth:`sample` calls at the same ``now``."""
        regime, candidates = self._support_candidates(now)
        return uniform_candidate_many(
            self._rng,
            k,
            regime,
            candidates,
            lambda item: SampleResult.of(item, regime=regime),
        )

    def run(self, timed_stream) -> SampleResult:
        self.update_batch(timed_stream.items, timed_stream.timestamps)
        return self.sample()

    # -- mergeable state ----------------------------------------------------
    def snapshot(self) -> dict:
        copies = {}
        for i, copy in enumerate(self._copies):
            s_arr = np.fromiter(sorted(copy.s_set), dtype=np.int64)
            # Canonical (sorted) order: last_seen is a pure mapping, but
            # scalar and batched ingestion insert its keys in different
            # orders — serialization must not leak that.
            seen = sorted(copy.last_seen.items())
            keys = np.fromiter((k for k, __ in seen), dtype=np.int64, count=len(seen))
            vals = np.fromiter((v for __, v in seen), dtype=np.float64, count=len(seen))
            copies[str(i)] = {"s_set": s_arr, "seen_keys": keys, "seen_vals": vals}
        return {
            "kind": "tw_f0",
            "n": self._n,
            "horizon": self._horizon,
            "delta": self._delta,
            "position": self._t,
            "now": self._now,
            "last_arrival": (
                self._last_arrival if math.isfinite(self._last_arrival) else None
            ),
            "evict_horizon": self._evict_horizon,
            # LRU order matters: arrays are stored oldest-first.
            "recent_keys": np.fromiter(self._recent.keys(), dtype=np.int64,
                                       count=len(self._recent)),
            "recent_vals": np.fromiter(self._recent.values(), dtype=np.float64,
                                       count=len(self._recent)),
            "copies": copies,
            "rng_state": self._rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        if state.get("kind") != "tw_f0":
            raise ValueError(f"not a tw_f0 snapshot: {state.get('kind')!r}")
        if int(state["n"]) != self._n or float(state["horizon"]) != self._horizon:
            raise ValueError(
                f"snapshot is for n={state['n']}, horizon={state['horizon']}; "
                f"sampler has n={self._n}, horizon={self._horizon}"
            )
        self._delta = float(state["delta"])
        self._t = int(state["position"])
        self._now = float(state["now"])
        last_arrival = state["last_arrival"]
        self._last_arrival = (
            -math.inf if last_arrival is None else float(last_arrival)
        )
        self._evict_horizon = float(state["evict_horizon"])
        self._recent = OrderedDict(
            (int(k), float(v))
            for k, v in zip(state["recent_keys"], state["recent_vals"])
        )
        entries = state["copies"]
        copies = []
        for i in range(len(entries)):
            entry = entries[str(i)]
            copy = _WindowCopy(set(int(x) for x in entry["s_set"]))
            copy.last_seen = {
                int(k): float(v)
                for k, v in zip(entry["seen_keys"], entry["seen_vals"])
            }
            copies.append(copy)
        self._copies = copies
        rng = np.random.default_rng()
        rng.bit_generator.state = state["rng_state"]
        self._rng = rng

    def merge(self, other: "TimeWindowF0Sampler") -> None:
        """Absorb a sampler fed a disjoint universe partition over the
        same wall clock.  Requires shared random subsets (same
        construction seed) so the S-copies describe one global S."""
        if not isinstance(other, TimeWindowF0Sampler):
            raise TypeError(
                f"cannot merge TimeWindowF0Sampler with {type(other).__name__}"
            )
        if other._n != self._n or other._horizon != self._horizon:
            raise ValueError(
                f"layout differs: n={self._n}/horizon={self._horizon} vs "
                f"n={other._n}/horizon={other._horizon}"
            )
        for mine, theirs in zip(self._copies, other._copies):
            if mine.s_set != theirs.s_set:
                raise ValueError(
                    "S-subsets differ — shard F0 samplers must be built "
                    "from the same seed to merge"
                )
        # Union the LRU tables (disjoint partition ⇒ disjoint keys; on
        # overlap keep the newer timestamp), re-sort by recency, then
        # evict back down to capacity, recording displaced timestamps.
        union: dict[int, float] = dict(self._recent)
        for item, when in other._recent.items():
            if item not in union or when > union[item]:
                union[item] = when
        ordered = sorted(union.items(), key=lambda kv: kv[1])
        overflow = len(ordered) - (self._threshold + 1)
        if overflow > 0:
            for __, when in ordered[:overflow]:
                self._evict_horizon = max(self._evict_horizon, when)
            ordered = ordered[overflow:]
        self._recent = OrderedDict(ordered)
        self._evict_horizon = max(self._evict_horizon, other._evict_horizon)
        for mine, theirs in zip(self._copies, other._copies):
            for item, when in theirs.last_seen.items():
                if item not in mine.last_seen or when > mine.last_seen[item]:
                    mine.last_seen[item] = when
        self._t += other._t
        self._now = max(self._now, other._now)
        self._last_arrival = max(self._last_arrival, other._last_arrival)
