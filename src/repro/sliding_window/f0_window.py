"""Corollary 5.3 — truly perfect F0 sampling on sliding windows.

Algorithm 5 adapts to windows by (a) replacing "the first √n distinct
items" with the *most recently seen* √n distinct items plus an eviction
certificate, and (b) time-stamping the random-subset hits so expired
members can be discarded:

* An LRU table of ≤ √n+1 items keyed by last-occurrence time.  If every
  eviction ever performed removed an item whose recorded last occurrence
  has since expired, the pruned table *is* the window's exact support.
  Otherwise some eviction happened while > √n distinct items were active,
  certifying that the window's F0 exceeded √n at that moment — and the
  moment's √n+1 witnesses stay active until the sample time in question,
  so the S-regime is the correct branch whenever the certificate fails.
* ``S`` is the usual random 2√n-subset; a member is *alive* when its last
  occurrence is inside the window.  Uniformity over the window support
  follows from the permutation symmetry of ``S`` exactly as in the
  whole-stream case.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

from repro.core.rejection import uniform_candidate_many, uniform_candidate_sample
from repro.core.types import SampleResult, as_item_array
from repro.lifecycle.memory import (
    INSTANCE_BYTES,
    RNG_STATE_BYTES,
    mapping_bytes,
    set_bytes,
)
from repro.lifecycle.protocol import StaticLifecycleMixin
from repro.lifecycle.rng import generator_from_state
from repro.sliding_window.window_sampler import _count_window_merge_error

__all__ = ["SlidingWindowF0Sampler"]


def chunk_last_occurrences(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct items, 0-based index of each item's final chunk
    occurrence)`` — the digest both windowed-F0 hot paths consume.
    ``np.unique`` on the reversed chunk returns *first* indices in the
    reversed order; items come back value-sorted (so ``uniq[0]`` /
    ``uniq[-1]`` give the chunk's bounds for free)."""
    uniq, rev_first = np.unique(arr[::-1], return_index=True)
    return uniq, arr.size - 1 - rev_first


def lru_fold_chunk(
    recent: OrderedDict,
    capacity: int,
    uniq: np.ndarray,
    last_pos: np.ndarray,
    stamps,
    horizon,
):
    """Fold one chunk into an LRU last-occurrence table without the
    per-item replay — the windowed-F0 eviction-horizon kernel.

    The sequential process (move-to-back on every occurrence, evict the
    least-recent key past ``capacity``, record each evicted key's
    then-current stamp in the horizon) has a closed form over a chunk:

    * final membership is the ``capacity`` most-recently-seen distinct
      keys — surviving prior entries (already recency-ordered, with
      stamps no newer than the chunk's) followed by the chunk's distinct
      items in final-occurrence order;
    * the newest stamp any eviction ever records is the final stamp of
      the ``(capacity+1)``-th most-recent key: every key below the top
      ``capacity`` is evicted at (or after) its final occurrence, and at
      any eviction moment ``capacity`` keys are more recent than the
      victim, so no recorded stamp can rank above that cut.

    Bitwise identical to the scalar replay, including the table's
    iteration order.  ``stamps[i]`` is the stamp recorded for the chunk
    position ``i`` (1-based stream positions for count windows,
    wall-clock times for time windows); ``horizon`` is folded with
    ``max`` and returned alongside the new table.
    """
    order = np.argsort(last_pos)  # ascending recency within the chunk
    chunk_keys = uniq[order].tolist()
    chunk_stamps = [stamps[i] for i in last_pos[order].tolist()]
    if recent:
        prior_keys = np.fromiter(recent.keys(), dtype=np.int64, count=len(recent))
        kept = prior_keys[~np.isin(prior_keys, uniq)].tolist()
        entries = [(key, recent[key]) for key in kept]
    else:
        entries = []
    entries.extend(zip(chunk_keys, chunk_stamps))
    overflow = len(entries) - capacity
    if overflow > 0:
        horizon = max(horizon, entries[overflow - 1][1])
        entries = entries[overflow:]
    return OrderedDict(entries), horizon


class _WindowCopy:
    """One S-copy: last-seen timestamps for members of a random subset."""

    __slots__ = ("s_set", "last_seen")

    def __init__(self, s_set: set[int]) -> None:
        self.s_set = s_set
        self.last_seen: dict[int, int] = {}


class SlidingWindowF0Sampler(StaticLifecycleMixin):
    """Truly perfect F0 sampler over the last ``window`` updates.

    Parameters
    ----------
    n, window:
        Universe and window sizes.
    delta:
        FAIL probability; drives the number of independent S-copies.
    """

    def __init__(
        self,
        n: int,
        window: int,
        delta: float = 0.05,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if n < 1 or window < 1:
            raise ValueError("n and window must be ≥ 1")
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        self._n = n
        self._window = window
        self._threshold = max(1, math.isqrt(n) + (0 if math.isqrt(n) ** 2 == n else 1))
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        # LRU of (item -> last occurrence), capacity threshold + 1.
        self._recent: OrderedDict[int, int] = OrderedDict()
        self._evict_horizon = 0  # newest last-occurrence ever evicted
        copies = max(1, math.ceil(math.log(1.0 / delta) / 2.0))
        s_size = min(2 * self._threshold, n)
        self._copies = [
            _WindowCopy(
                set(int(x) for x in self._rng.choice(n, size=s_size, replace=False))
            )
            for _ in range(copies)
        ]
        self._t = 0

    @property
    def threshold(self) -> int:
        return self._threshold

    @property
    def window(self) -> int:
        return self._window

    @property
    def position(self) -> int:
        return self._t

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

    def merge(self, other) -> None:
        raise _count_window_merge_error(type(self).__name__)

    def update(self, item: int) -> None:
        if not 0 <= item < self._n:
            raise ValueError(f"item {item} outside universe [0, {self._n})")
        self._t += 1
        recent = self._recent
        if item in recent:
            del recent[item]
        recent[item] = self._t
        if len(recent) > self._threshold + 1:
            __, ts = recent.popitem(last=False)
            self._evict_horizon = max(self._evict_horizon, ts)
        for copy in self._copies:
            if item in copy.s_set:
                copy.last_seen[item] = self._t

    def extend(self, items) -> None:
        """Delegates to :meth:`update_batch` (bitwise identical — updates
        consume no randomness)."""
        self.update_batch(as_item_array(items))

    def update_batch(self, items) -> None:
        """Chunk ingestion, bitwise identical to the scalar loop (updates
        consume no randomness).

        One ``np.unique`` digest drives everything: bounds validation
        reads the sorted ends (one pass instead of separate min/max
        scans), the LRU recency table folds through the vectorized
        :func:`lru_fold_chunk` eviction-horizon kernel (no per-item
        replay), and the per-copy random-subset bookkeeping collapses to
        one last-occurrence write per distinct chunk item.
        """
        arr = np.asarray(items, dtype=np.int64)
        if arr.size == 0:
            return
        uniq, last_pos = chunk_last_occurrences(arr)
        if int(uniq[0]) < 0 or int(uniq[-1]) >= self._n:
            raise ValueError(f"items outside universe [0, {self._n})")
        t0 = self._t
        # Stream position of chunk offset i is t0 + i + 1 (1-based).
        self._recent, self._evict_horizon = lru_fold_chunk(
            self._recent,
            self._threshold + 1,
            uniq,
            last_pos,
            range(t0 + 1, t0 + int(arr.size) + 1),
            self._evict_horizon,
        )
        self._t = t0 + int(arr.size)
        for item, pos in zip(uniq.tolist(), last_pos.tolist()):
            for copy in self._copies:
                if item in copy.s_set:
                    copy.last_seen[item] = t0 + int(pos) + 1

    def snapshot(self) -> dict:
        """Checkpoint the LRU table (order matters — stored oldest
        first), eviction horizon, and S-copies.  ``last_seen`` maps are
        serialized in canonical (sorted) key order so scalar- and
        batch-ingested states snapshot identically."""
        copies = {}
        for i, copy in enumerate(self._copies):
            seen = sorted(copy.last_seen.items())
            copies[str(i)] = {
                "s_set": np.fromiter(sorted(copy.s_set), dtype=np.int64),
                "seen_keys": np.fromiter(
                    (k for k, __ in seen), dtype=np.int64, count=len(seen)
                ),
                "seen_vals": np.fromiter(
                    (v for __, v in seen), dtype=np.int64, count=len(seen)
                ),
            }
        return {
            "kind": "sw_f0",
            "n": self._n,
            "window": self._window,
            "position": self._t,
            "evict_horizon": self._evict_horizon,
            "recent_keys": np.fromiter(
                self._recent.keys(), dtype=np.int64, count=len(self._recent)
            ),
            "recent_vals": np.fromiter(
                self._recent.values(), dtype=np.int64, count=len(self._recent)
            ),
            "copies": copies,
            "rng_state": self._rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        if state.get("kind") != "sw_f0":
            raise ValueError(f"not a sw_f0 snapshot: {state.get('kind')!r}")
        if int(state["n"]) != self._n or int(state["window"]) != self._window:
            raise ValueError(
                f"snapshot is for n={state['n']}, window={state['window']}; "
                f"sampler has n={self._n}, window={self._window}"
            )
        self._t = int(state["position"])
        self._evict_horizon = int(state["evict_horizon"])
        self._recent = OrderedDict(
            (int(k), int(v))
            for k, v in zip(state["recent_keys"], state["recent_vals"])
        )
        entries = state["copies"]
        copies = []
        for i in range(len(entries)):
            entry = entries[str(i)]
            copy = _WindowCopy(set(int(x) for x in entry["s_set"]))
            copy.last_seen = {
                int(k): int(v)
                for k, v in zip(entry["seen_keys"], entry["seen_vals"])
            }
            copies.append(copy)
        self._copies = copies
        self._rng = generator_from_state(state["rng_state"])

    def _active_recent(self) -> list[int]:
        window_start = self._t - self._window
        return [i for i, ts in self._recent.items() if ts > window_start]

    def _support_candidates(self) -> tuple[str, list[int] | None]:
        """The state-determined part of :meth:`sample`: the answering
        regime and its candidate items (``("empty", None)`` for ⊥; an
        empty S-regime list means FAIL).  Consumes no randomness."""
        if self._t == 0:
            return "empty", None
        window_start = self._t - self._window
        active = self._active_recent()
        certificate_ok = self._evict_horizon <= window_start
        if certificate_ok and len(active) <= self._threshold:
            # The LRU provably contains the window's entire support.
            if not active:
                return "empty", None  # pragma: no cover - W ≥ 1
            return "recent", active
        # Dense regime: the window support exceeds √n (certified either by
        # |active| > threshold or by a live eviction witness).
        for copy in self._copies:
            # Canonical (sorted) iteration: scalar ingest, batched
            # ingest, and a restore each populate last_seen in a
            # different key order; the drawn item must not depend on it.
            alive = [
                s for s, ts in sorted(copy.last_seen.items())
                if ts > window_start
            ]
            if alive:
                return "S", alive
        return "S", []

    def sample(self) -> SampleResult:
        regime, candidates = self._support_candidates()
        return uniform_candidate_sample(
            self._rng,
            regime,
            candidates,
            lambda item: SampleResult.of(item, regime=regime),
        )

    def sample_many(self, k: int) -> list[SampleResult]:
        """``k`` independent samples with one regime resolution and one
        batched index draw — bitwise identical to ``k`` back-to-back
        :meth:`sample` calls."""
        regime, candidates = self._support_candidates()
        return uniform_candidate_many(
            self._rng,
            k,
            regime,
            candidates,
            lambda item: SampleResult.of(item, regime=regime),
        )

    def run(self, stream) -> SampleResult:
        self.extend(stream)
        return self.sample()
