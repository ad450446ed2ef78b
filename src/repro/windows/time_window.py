"""Truly perfect G / Lp sampling over *time-based* sliding windows.

This generalizes the two-generation checkpointing of Algorithm 4
(:class:`repro.sliding_window.SlidingWindowGSampler`) from update counts
to wall-clock timestamps.  Fix a horizon ``H`` (seconds).  Generations of
reservoir pools are checkpointed at every crossing of a time boundary
``k·H`` and the two most recent kept.  Writing ``g = ⌊T/H⌋`` for the
current bucket, the *older* kept generation started at ``(g−1)·H ≤ T−H``
(or at the stream's beginning), so its substream always contains every
update of the active window ``(T−H, T]`` — the covering property the
correctness proof of Theorem 4.1 rests on.  Each instance samples a
uniformly random position of the covering substream; conditioning on the
sampled position still being active (its arrival timestamp exceeds
``T−H``) and applying the usual rejection step yields exactly
``G(f_i)/F_G`` over the *time-window* frequencies, because every
occurrence after an active position is itself active, so forward counts
restricted to active positions telescope exactly as in the whole-stream
proof.

The count-based ``L ≤ 2W`` slack becomes a *rate* statement: under
time-stationary arrivals the covering substream holds at most ~2× the
window's expected update count, so the same factor-2 instance-count
padding absorbs it.  Bursty traffic can widen that ratio — which (as
always with truly perfect samplers) degrades only the FAIL rate, never
the conditional output distribution.

Unlike the count-based samplers, each generation's pool draws from its
*own* RNG stream, keyed deterministically by ``(root seed, bucket
index)`` — so batched ingestion is **bitwise identical** to the scalar
loop (each pool sees the same draws in the same order either way), and
generations created during a merge line up with generations created
locally.

For Lp (``p > 1``) the rejection normalizer must certify the window's
maximum increment.  Each generation carries an *exact* suffix-``‖f‖∞``
tracker over its substream; the covering substream contains the window,
so the tracker's value dominates every window frequency and
``ζ = z^p − (z−1)^p`` at that value is certified — keeping the sampler
truly perfect with deterministic (never estimated) ingredients, the
same exact-inner-estimator substitution
:mod:`repro.sliding_window.lp_window` makes inside its smooth histogram
(a sublinear Misra–Gries aux is a ROADMAP follow-on; any upper bound is
certified, exactness just tightens the FAIL rate).
"""

from __future__ import annotations

import copy
import math

import numpy as np

from repro.core.g_sampler import SamplerPool
from repro.core.measures import Measure
from repro.core.rejection import rejection_many
from repro.core.types import SampleResult, as_timed_arrays
from repro.lifecycle.memory import (
    INSTANCE_BYTES,
    RNG_STATE_BYTES,
    mapping_bytes,
    sequence_bytes,
)
from repro.obs.metrics import current_registry
from repro.sliding_window.lp_window import sliding_window_lp_instances
from repro.windows.chunking import as_clock, as_timed_chunk, bucket_cuts

__all__ = ["TimeWindowGSampler", "TimeWindowLpSampler"]

#: Default expected number of updates per window, used to size instance
#: counts when the caller gives no rate hint; over-estimates are safe
#: (more instances, lower FAIL rate).
DEFAULT_EXPECTED_WINDOW_COUNT = 10_000


def _derive_root(seed) -> int:
    """A non-negative root integer all of the sampler's RNG streams are
    keyed from (recorded in snapshots so restores rebuild identical
    generation streams)."""
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(2**63))
    if seed is None:
        return int(np.random.default_rng().integers(2**63))
    return int(seed) % 2**63


class _SuffixLinf:
    """Exact ``‖f‖∞`` of a generation's substream.

    Chunk-schedule invariant (the mapping depends only on the multiset
    ingested), which is what lets batched bank ingestion stay bitwise
    identical to the scalar loop; a sublinear Misra–Gries substitute
    would trade that and some acceptance probability for space.
    """

    __slots__ = ("_counts", "_max")

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}
        self._max = 0

    def update(self, item: int) -> None:
        c = self._counts.get(item, 0) + 1
        self._counts[item] = c
        if c > self._max:
            self._max = c

    def update_batch(self, items: np.ndarray) -> None:
        uniq, cnts = np.unique(np.asarray(items, dtype=np.int64), return_counts=True)
        counts = self._counts
        for item, cnt in zip(uniq.tolist(), cnts.tolist()):
            c = counts.get(item, 0) + cnt
            counts[item] = c
            if c > self._max:
                self._max = c

    def linf(self) -> int:
        return self._max

    def approx_size_bytes(self) -> int:
        return INSTANCE_BYTES + mapping_bytes(len(self._counts))

    def snapshot(self) -> dict:
        ordered = sorted(self._counts.items())  # canonical serialization
        return {
            "kind": "suffix_linf",
            "max": self._max,
            "keys": np.fromiter((k for k, __ in ordered), dtype=np.int64,
                                count=len(ordered)),
            "vals": np.fromiter((v for __, v in ordered), dtype=np.int64,
                                count=len(ordered)),
        }

    def restore(self, state: dict) -> None:
        if state.get("kind") != "suffix_linf":
            raise ValueError(f"not a suffix_linf snapshot: {state.get('kind')!r}")
        self._max = int(state["max"])
        self._counts = {
            int(k): int(v) for k, v in zip(state["keys"], state["vals"])
        }

    def merge(self, other: "_SuffixLinf") -> None:
        counts = self._counts
        for item, cnt in other._counts.items():
            counts[item] = counts.get(item, 0) + cnt
        self._max = max(counts.values(), default=0)


class _TimeGeneration:
    """A reservoir pool over all updates since a time-bucket boundary."""

    __slots__ = ("pool", "bucket", "wall", "aux")

    def __init__(self, pool: SamplerPool, bucket: int, instances: int, aux) -> None:
        self.pool = pool
        self.bucket = bucket
        # Wall-clock arrival time of each instance's sampled occurrence;
        # filled at the first update (every instance replaces at
        # position 1).
        self.wall: list[float] = [-math.inf] * instances
        self.aux = aux  # per-substream normalizer state (Lp: Misra-Gries)


class _TimeWindowPoolSampler:
    """Shared machinery of the pool-based time-window samplers."""

    _KIND = ""  # snapshot tag, set by subclasses

    def __init__(
        self,
        horizon: float,
        instances: int,
        delta: float,
        seed,
    ) -> None:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if instances < 1:
            raise ValueError(f"need at least one instance, got {instances}")
        self._horizon = float(horizon)
        self._instances = int(instances)
        self._delta = delta
        self._root = _derive_root(seed)
        self._rng = np.random.default_rng([self._root, 0])
        self._t = 0
        # Clock watermark: the newest time the sampler has *observed* —
        # through ingestion or through compact(now) — and below which no
        # future update may arrive.  _last_arrival is the newest update
        # actually ingested; the two differ after a quiet-period compact.
        self._now = 0.0
        self._last_arrival = -math.inf
        self._generations: list[_TimeGeneration] = []
        # Pools are born at ingest, maybe on a worker thread outside the
        # use_registry scope that built this sampler: every pool it
        # births, restores or merge-copies reports here instead.
        self._registry = current_registry()

    # -- construction hooks -------------------------------------------------
    def _make_aux(self):
        return None

    def _aux_ingest(self, aux, items: np.ndarray) -> None:
        pass

    def _aux_ingest_one(self, aux, item: int) -> None:
        pass

    def _zeta(self, gen: _TimeGeneration) -> float:
        raise NotImplementedError

    def _weight(self, count: int) -> float:
        raise NotImplementedError

    # -- properties ---------------------------------------------------------
    @property
    def horizon(self) -> float:
        """Window length in seconds."""
        return self._horizon

    @property
    def instances(self) -> int:
        return self._instances

    @property
    def position(self) -> int:
        """Total updates ingested."""
        return self._t

    @property
    def now(self) -> float:
        """The clock watermark: the newest observed time (the newest
        ingested timestamp, or later after a quiet-period ``compact``)."""
        return self._now

    @property
    def generation_count(self) -> int:
        return len(self._generations)

    def watermark(self) -> float | None:
        """The clock watermark (``None`` while the sampler is pristine —
        nothing ingested, no clock observed)."""
        if self._t == 0 and self._now == 0.0:
            return None
        return self._now

    def _generation_bytes(self, gen: _TimeGeneration) -> int:
        aux = gen.aux.approx_size_bytes() if gen.aux is not None else 0
        return (
            INSTANCE_BYTES
            + gen.pool.approx_size_bytes()
            + sequence_bytes(len(gen.wall))
            + aux
        )

    def approx_size_bytes(self) -> int:
        return (
            INSTANCE_BYTES
            + RNG_STATE_BYTES
            + sum(self._generation_bytes(gen) for gen in self._generations)
        )

    def compact(self, now: float | None = None) -> int:
        """Drop generations whose span has fully left the active window;
        returns the approximate bytes reclaimed.

        Passing ``now`` advances the clock watermark first — the caller
        promises every future update arrives at ``ts ≥ now`` (stale
        updates then fail the monotonicity check instead of silently
        resurrecting dropped state).  Two sound drops, both relative to
        the watermark's window ``(now − H, now]``:

        * every ingested update has expired
          (``last arrival ≤ now − H``) — nothing kept can ever be
          active again, so all generations go;
        * the *newer* generation already covers the window
          (``its start ≤ now − H``) — the older generation's extra span
          holds only expired updates, so it goes.

        Live generations are untouched (their per-bucket RNG streams
        never re-key), so batched/scalar bitwise identity is preserved.
        """
        if now is not None:
            now = as_clock(now)
            if now > self._now:
                self._now = now
        if not self._generations:
            return 0
        window_start = self._now - self._horizon
        if self._last_arrival <= window_start:
            freed = sum(self._generation_bytes(gen) for gen in self._generations)
            self._generations = []
            return freed
        freed = 0
        while (
            len(self._generations) > 1
            and self._generations[1].bucket * self._horizon <= window_start
        ):
            freed += self._generation_bytes(self._generations.pop(0))
        return freed

    # -- ingestion ----------------------------------------------------------
    def _gen_rng(self, bucket: int) -> np.random.Generator:
        return np.random.default_rng([self._root, 1, bucket])

    def _new_generation(self, bucket: int) -> _TimeGeneration:
        pool = SamplerPool(self._instances, self._gen_rng(bucket), registry=self._registry)
        return _TimeGeneration(pool, bucket, self._instances, self._make_aux())

    def _ensure_generation(self, bucket: int) -> None:
        if not self._generations or bucket > self._generations[-1].bucket:
            self._generations.append(self._new_generation(bucket))
            if len(self._generations) > 2:
                self._generations.pop(0)

    def _refresh_wall(
        self, gen: _TimeGeneration, old_pos: int, seg_ts: np.ndarray
    ) -> None:
        for idx, pos in enumerate(gen.pool.replacement_positions()):
            if pos > old_pos:
                gen.wall[idx] = float(seg_ts[pos - old_pos - 1])

    def update(self, item: int, timestamp: float) -> None:
        ts = as_clock(timestamp)
        if ts < 0:
            raise ValueError(f"timestamps must be non-negative, got {ts}")
        if ts < self._now:
            raise ValueError(
                f"timestamps must be non-decreasing: {ts} after {self._now}"
            )
        self._ensure_generation(int(ts // self._horizon))
        for gen in self._generations:
            old_pos = gen.pool.position
            old_events = gen.pool.heap_events
            gen.pool.update(item)
            self._aux_ingest_one(gen.aux, item)
            if gen.pool.heap_events != old_events:
                self._refresh_wall(gen, old_pos, (ts,))
        self._t += 1
        self._now = ts
        self._last_arrival = ts

    def extend(self, pairs) -> None:
        """Ingest an iterable of ``(item, timestamp)`` pairs (e.g. a
        :class:`repro.streams.TimestampedStream`); delegates to
        :meth:`update_batch` (bitwise identical — generation pools draw
        from per-bucket RNG streams, so batching reorders no
        randomness)."""
        self.update_batch(*as_timed_arrays(pairs))

    def update_batch(self, items, timestamps) -> None:
        """Vectorized ingestion of a timestamped chunk: only the
        generations the chunk leaves kept are fed, one suffix call each
        — bitwise identical to the scalar loop (see :meth:`_ingest`)."""
        arr, ts = as_timed_chunk(items, timestamps, self._now)
        if arr.size:
            self._ingest(arr, ts)

    def _ingest(self, arr: np.ndarray, ts: np.ndarray) -> None:
        """Planned ingestion of a validated, non-empty chunk (also the
        :class:`repro.windows.WindowBank` entry point).

        The plan replays :meth:`_ensure_generation`'s append/pop-oldest
        rule over the existing generations (offset 0) and each new
        bucket's first offset; only the two generations kept at the end
        get a pool, each fed its whole suffix in one batched call.  A
        generation born and dropped inside the chunk can never reach a
        snapshot or a sample, and eliding it is bitwise: a survivor sees
        exactly the scalar loop's items, its RNG stream is keyed by its
        bucket (not birth order), and the pool kernel is cut-invariant.
        """
        buckets, cuts = bucket_cuts(ts, self._horizon)
        plan = [(gen.bucket, gen, 0) for gen in self._generations]
        for start in cuts[:-1]:
            bucket = int(buckets[start])
            if not plan or bucket > plan[-1][0]:
                plan.append((bucket, None, start))
        kept = []
        for bucket, gen, start in plan[-2:]:
            if gen is None:
                gen = self._new_generation(bucket)
            seg = arr[start:]
            old_pos = gen.pool.position
            old_events = gen.pool.heap_events
            gen.pool.update_batch(seg)
            self._aux_ingest(gen.aux, seg)
            if gen.pool.heap_events != old_events:
                self._refresh_wall(gen, old_pos, ts[start:])
            kept.append(gen)
        self._generations = kept
        self._t += int(arr.size)
        self._now = float(ts[-1])
        self._last_arrival = float(ts[-1])

    # -- sampling -----------------------------------------------------------
    def _covering_generation(self) -> _TimeGeneration | None:
        """The oldest kept generation: it started at or before ``T − H``
        (or at the stream's beginning), so its substream contains every
        active update."""
        if not self._generations:
            return None
        return self._generations[0]

    def sample(self, now: float | None = None) -> SampleResult:
        """One truly perfect sample over the window ``(now − H, now]``.

        ``now`` defaults to the newest ingested timestamp; passing a
        later time models querying after a quiet period (expired
        instances are simply rejected as inactive).
        """
        gen = self._covering_generation()
        if gen is None:
            return SampleResult.empty()
        if now is None:
            now = self._now
        elif float(now) < self._now:
            raise ValueError(
                f"cannot sample at {now}, already ingested up to {self._now}"
            )
        window_start = float(now) - self._horizon
        if self._last_arrival <= window_start:
            # The window provably holds no updates at all (the whole
            # ingested stream expired): an explicit empty-window answer,
            # not a FAIL a caller might retry.
            return SampleResult.empty()
        finals = gen.pool.finalize()
        if not finals:
            return SampleResult.empty()
        zeta = self._zeta(gen)
        coins = self._rng.random(len(finals))
        for idx, ((item, count, __), coin) in enumerate(zip(finals, coins)):
            wall = gen.wall[idx]
            if wall <= window_start:
                continue  # the sampled position has expired
            weight = self._weight(count)
            if weight > zeta * (1.0 + 1e-12):
                raise ValueError(
                    f"invalid zeta {zeta}: increment at c={count} is {weight}"
                )
            if coin < weight / zeta:
                return SampleResult.of(
                    item, count=count, timestamp=wall, zeta=zeta
                )
        return SampleResult.fail(zeta=zeta)

    def sample_many(self, k: int, now: float | None = None) -> list[SampleResult]:
        """``k`` independent samples over the window ``(now − H, now]``
        from one finalize + one batched coin block — bitwise identical
        to ``k`` back-to-back :meth:`sample` calls at the same ``now``
        (expired instances stay masked without consuming extra coins,
        exactly like the scalar scan)."""
        if k < 0:
            raise ValueError(f"need a non-negative draw count, got {k}")
        gen = self._covering_generation()
        if gen is None:
            return [SampleResult.empty() for __ in range(k)]
        if now is None:
            now = self._now
        elif float(now) < self._now:
            raise ValueError(
                f"cannot sample at {now}, already ingested up to {self._now}"
            )
        window_start = float(now) - self._horizon
        if self._last_arrival <= window_start:
            return [SampleResult.empty() for __ in range(k)]
        finals = gen.pool.finalize()
        if not finals:
            return [SampleResult.empty() for __ in range(k)]
        zeta = self._zeta(gen)
        weights = [self._weight(c) for __, c, __ in finals]
        active = np.array(
            [wall > window_start for wall in gen.wall], dtype=bool
        )

        def make(j: int) -> SampleResult:
            item, count, __ = finals[j]
            return SampleResult.of(
                item, count=count, timestamp=gen.wall[j], zeta=zeta
            )

        return rejection_many(
            self._rng,
            k,
            weights,
            zeta,
            make,
            lambda: SampleResult.fail(zeta=zeta),
            active=active,
            describe=lambda j: (
                f"invalid zeta {zeta}: increment at c={finals[j][1]} is "
                f"{weights[j]}"
            ),
        )

    def run(self, timed_stream) -> SampleResult:
        """Convenience: replay a :class:`TimestampedStream` then sample."""
        self.update_batch(timed_stream.items, timed_stream.timestamps)
        return self.sample()

    # -- mergeable state ----------------------------------------------------
    def _config_fingerprint(self) -> dict:
        """Construction parameters that must match for restore/merge."""
        return {"horizon": self._horizon, "instances": self._instances}

    def snapshot(self) -> dict:
        gens = {}
        for i, gen in enumerate(self._generations):
            entry = {
                "bucket": gen.bucket,
                "wall": np.asarray(gen.wall, dtype=np.float64),
                "pool": gen.pool.snapshot(),
            }
            if gen.aux is not None:
                entry["aux"] = gen.aux.snapshot()
            gens[str(i)] = entry
        return {
            "kind": self._KIND,
            **self._config_fingerprint(),
            "delta": self._delta,
            "root": self._root,
            "position": self._t,
            "now": self._now,
            "last_arrival": (
                self._last_arrival if math.isfinite(self._last_arrival) else None
            ),
            "generations": gens,
            "rng_state": self._rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        if state.get("kind") != self._KIND:
            raise ValueError(
                f"not a {self._KIND} snapshot: {state.get('kind')!r}"
            )
        for key, mine in self._config_fingerprint().items():
            theirs = state[key]
            if theirs != mine:
                raise ValueError(
                    f"snapshot has {key}={theirs!r}, sampler has {mine!r}"
                )
        self._delta = float(state["delta"])
        self._root = int(state["root"])
        self._t = int(state["position"])
        self._now = float(state["now"])
        last_arrival = state["last_arrival"]
        self._last_arrival = (
            -math.inf if last_arrival is None else float(last_arrival)
        )
        gens: list[_TimeGeneration] = []
        entries = state["generations"]
        for i in range(len(entries)):
            entry = entries[str(i)]
            gen = _TimeGeneration(
                SamplerPool.from_snapshot(entry["pool"], self._registry),
                int(entry["bucket"]),
                self._instances,
                self._make_aux(),
            )
            gen.wall = [float(w) for w in entry["wall"]]
            if gen.aux is not None:
                gen.aux.restore(entry["aux"])
            gens.append(gen)
        self._generations = gens
        rng = np.random.default_rng()
        rng.bit_generator.state = state["rng_state"]
        self._rng = rng

    def _contribution(self, gens: list[_TimeGeneration], bucket: int):
        """A sampler's substream-since-``bucket·H`` generation.

        Exact bucket match when present.  When absent but a *later*
        generation exists, that later generation IS the contribution:
        generations are created on the first update of a new bucket and
        the two newest buckets are kept, so lacking bucket ``b`` while
        holding bucket ``b' > b`` means zero updates arrived in
        ``[bH, b'H)`` — the gen-``b'`` pool covers exactly the updates
        since ``bH``.  Returns ``(generation, borrowed)``; a borrowed
        generation must be copied before mutation (its original still
        serves its own bucket).  ``(None, False)`` means this sampler
        has no update since ``bH`` at all — an empty contribution.
        """
        for gen in gens:  # ascending buckets
            if gen.bucket == bucket:
                return gen, False
            if gen.bucket > bucket:
                return gen, True
        return None, False

    def merge(self, other) -> None:
        """Absorb a sampler fed a disjoint universe partition over the
        *same wall clock* (shards of one timestamped stream).

        Generations align by time bucket — boundaries are absolute
        multiples of the horizon, so the ``k``-th bucket means the same
        interval on every shard.  Bucket-wise, each side contributes its
        substream-since-the-boundary pool (see :meth:`_contribution` —
        a shard quiet since the boundary contributes its next generation
        or nothing) and the pools merge by the exact uniform-position
        rule, so every merged generation covers *all* updates of both
        shards since its absolute start and the covering property is
        inherited.
        """
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        for key, mine in self._config_fingerprint().items():
            theirs = other._config_fingerprint()[key]
            if theirs != mine:
                raise ValueError(f"{key} differs: {mine!r} vs {theirs!r}")
        buckets = {gen.bucket for gen in self._generations}
        buckets |= {gen.bucket for gen in other._generations}
        merged: list[_TimeGeneration] = []
        # Ascending order matters: a borrowed generation is copied before
        # the loop reaches (and mutates) it at its own bucket.
        for bucket in sorted(buckets)[-2:]:
            gen, gen_borrowed = self._contribution(self._generations, bucket)
            theirs, __ = self._contribution(other._generations, bucket)
            if gen is None:
                gen = copy.deepcopy(theirs)
                gen.bucket = bucket
                gen.pool.bind_metrics(self._registry)
                merged.append(gen)
                continue
            if gen_borrowed:
                gen = copy.deepcopy(gen)
                gen.bucket = bucket
            if theirs is not None:
                picks = gen.pool.merge(theirs.pool)
                gen.wall = [
                    gen.wall[k] if kept else theirs.wall[k]
                    for k, kept in enumerate(picks)
                ]
                if gen.aux is not None:
                    gen.aux.merge(theirs.aux)
            merged.append(gen)
        self._generations = merged
        self._t += other._t
        self._now = max(self._now, other._now)
        self._last_arrival = max(self._last_arrival, other._last_arrival)


class TimeWindowGSampler(_TimeWindowPoolSampler):
    """Truly perfect G-sampler over the wall-clock window of the last
    ``horizon`` seconds.

    Parameters
    ----------
    measure:
        A measure with globally bounded increments (``zeta(None)``).
    horizon:
        Window length ``H`` in seconds.
    instances:
        Instances per generation; defaults to
        ``R = ⌈2·ζ·Ŵ/F̂_G(Ŵ)·ln(1/δ)⌉`` at the expected window update
        count ``Ŵ`` (the extra 2 covers the ≤2× covering-substream slack
        under stationary arrivals).
    expected_window_count:
        ``Ŵ`` — the expected number of updates per window, used only to
        size the default instance count; over-estimates are safe.
    """

    _KIND = "tw_g"

    def __init__(
        self,
        measure: Measure,
        horizon: float,
        instances: int | None = None,
        delta: float = 0.05,
        expected_window_count: int | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self._measure = measure
        if instances is None:
            expected = expected_window_count or DEFAULT_EXPECTED_WINDOW_COUNT
            zeta = measure.zeta(None)
            acceptance = measure.fg_lower_bound(expected) / (2.0 * zeta * expected)
            instances = max(1, math.ceil(math.log(1.0 / delta) / acceptance))
        super().__init__(horizon, instances, delta, seed)

    @property
    def measure(self) -> Measure:
        return self._measure

    def _config_fingerprint(self) -> dict:
        return {
            **super()._config_fingerprint(),
            "measure": self._measure.name,
        }

    def _zeta(self, gen: _TimeGeneration) -> float:
        return self._measure.zeta(None)

    def _weight(self, count: int) -> float:
        return self._measure.increment(count)


class TimeWindowLpSampler(_TimeWindowPoolSampler):
    """Truly perfect Lp sampler (``p ≥ 1``) over the last ``horizon``
    seconds, with a per-generation exact suffix-``‖f‖∞`` certified
    normalizer.

    Parameters
    ----------
    p:
        Moment order ≥ 1 (``p = 1`` needs no normalizer and accepts
        always).
    """

    _KIND = "tw_lp"

    def __init__(
        self,
        p: float,
        horizon: float,
        instances: int | None = None,
        delta: float = 0.05,
        expected_window_count: int | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if p < 1:
            raise ValueError("TimeWindowLpSampler requires p ≥ 1")
        self._p = float(p)
        if instances is None:
            expected = expected_window_count or DEFAULT_EXPECTED_WINDOW_COUNT
            instances = sliding_window_lp_instances(p, expected, delta)
        super().__init__(horizon, instances, delta, seed)

    @property
    def p(self) -> float:
        return self._p

    def _config_fingerprint(self) -> dict:
        return {
            **super()._config_fingerprint(),
            "p": self._p,
        }

    def _make_aux(self):
        if self._p <= 1:
            return None
        return _SuffixLinf()

    def _aux_ingest(self, aux, items: np.ndarray) -> None:
        if aux is not None:
            aux.update_batch(items)

    def _aux_ingest_one(self, aux, item: int) -> None:
        if aux is not None:
            aux.update(item)

    def normalizer(self, gen: _TimeGeneration | None = None) -> float:
        """Certified ζ for the active window's frequencies.

        The covering substream contains the window, so its exact
        ``‖f‖∞`` value ``z`` dominates every window frequency and
        ``z^p − (z−1)^p`` dominates every window increment.
        """
        if self._p <= 1:
            return 1.0
        if gen is None:
            gen = self._covering_generation()
        if gen is None or gen.aux is None:
            return 1.0
        z = max(1.0, float(gen.aux.linf()))
        return z**self._p - (z - 1.0) ** self._p

    def _zeta(self, gen: _TimeGeneration) -> float:
        return self.normalizer(gen)

    def _weight(self, count: int) -> float:
        return count**self._p - (count - 1) ** self._p
