"""Truly perfect G / Lp sampling over *time-based* sliding windows.

This is the two-generation checkpointing of Algorithm 4 on any
non-decreasing clock: wall-clock timestamps here, the arrival index for
the count windows of :mod:`repro.sliding_window` (which subclass these
samplers with ``H = W``).  Fix a horizon ``H`` (seconds).  Generations of
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

Each generation's pool draws from its *own* RNG stream, keyed
deterministically by ``(root seed, bucket index)`` — so batched
ingestion is **bitwise identical** to the scalar loop (each pool sees
the same draws in the same order either way), and generations created
during a merge line up with generations created locally.

For Lp (``p > 1``) the rejection normalizer must certify the window's
maximum increment.  Each generation carries an *exact* suffix-``‖f‖∞``
tracker over its substream; the covering substream contains the window,
so the tracker's value dominates every window frequency and
``ζ = z^p − (z−1)^p`` at that value is certified — keeping the sampler
truly perfect with deterministic (never estimated) ingredients.  The
count-window Lp sampler takes the same ζ on the arrival clock, in place
of Algorithm 6's smooth histogram (a sublinear Misra–Gries aux is a
ROADMAP follow-on; any upper bound is certified, exactness just
tightens the FAIL rate).
"""

from __future__ import annotations

import copy
import math

import numpy as np

from repro.core import ingest_kernel
from repro.core.g_sampler import SamplerPool
from repro.core.measures import Measure
from repro.core.rejection import rejection_many
from repro.core.types import SampleResult, as_timed_arrays
from repro.lifecycle.memory import (
    INSTANCE_BYTES,
    RNG_STATE_BYTES,
    ndarray_bytes,
)
from repro.lifecycle.rng import generator_from_state
from repro.obs.metrics import current_registry
from repro.windows.chunking import as_clock, as_timed_chunk, bucket_cuts, parsing

__all__ = [
    "TimeWindowGSampler",
    "TimeWindowLpSampler",
    "lp_window_instances",
]

#: Default expected number of updates per window, used to size instance
#: counts when the caller gives no rate hint; over-estimates are safe
#: (more instances, lower FAIL rate).
DEFAULT_EXPECTED_WINDOW_COUNT = 10_000


def _check_delta(delta: float) -> None:
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")


def lp_window_instances(p: float, window: int, delta: float) -> int:
    """Theorem 1.4's repetition count ``O(W^{1−1/p})`` with the proof's
    constant ``p·2^{p−1}`` and the ≤2W substream slack (another 2)."""
    if p < 1:
        raise ValueError("the sliding-window Lp sampler requires p ≥ 1")
    _check_delta(delta)
    log_term = math.log(1.0 / delta)
    return max(1, math.ceil(2.0 * p * 2 ** (p - 1) * window ** (1.0 - 1.0 / p) * log_term))


def _derive_root(seed) -> int:
    """A non-negative root integer all of the sampler's RNG streams are
    keyed from (recorded in snapshots so restores rebuild identical
    generation streams)."""
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(2**63))
    if seed is None:
        return int(np.random.default_rng().integers(2**63))
    return int(seed) % 2**63


#: The keys a pool sampler's snapshot carries besides ``kind`` and its
#: config fingerprint; a restore refuses any other key.
_STATE_KEYS = (
    "delta", "root", "position", "now", "last_arrival", "generations", "rng_state",
)


def _count_union(
    keys: np.ndarray, counts: np.ndarray, more_keys: np.ndarray,
    more_counts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """:func:`repro.core.ingest_kernel.count_union`: the compiled merge,
    or without a compiler the same union by ``np.unique``."""
    if ingest_kernel.kernel_impl() == "c":
        return ingest_kernel.count_union(keys, counts, more_keys, more_counts)
    if more_counts is None:
        more_counts = np.ones(more_keys.size, dtype=np.int64)
    union, inverse = np.unique(
        np.concatenate((keys, more_keys)), return_inverse=True
    )
    summed = np.zeros(union.size, dtype=np.int64)
    np.add.at(summed, inverse, np.concatenate((counts, more_counts)))
    touched = summed[inverse[keys.size:]]
    return union, summed, int(touched.max()) if touched.size else 0


class _SuffixLinf:
    """Exact ``‖f‖∞`` of a generation's substream: every item's count, as
    ascending ``keys`` and matching ``counts`` int64 arrays.

    Chunk-schedule invariant (the arrays depend only on the multiset
    ingested), which is what lets batched ingestion stay bitwise
    identical to the scalar loop; a sublinear Misra–Gries substitute
    would trade that and some acceptance probability for space.
    """

    __slots__ = ("_keys", "_counts", "_max")

    def __init__(self) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)
        self._max = 0

    def __deepcopy__(self, memo: dict) -> "_SuffixLinf":
        clone = _SuffixLinf()
        clone._keys = self._keys.copy()
        clone._counts = self._counts.copy()
        clone._max = self._max
        memo[id(self)] = clone
        return clone

    def update(self, item: int) -> None:
        """The reference rule: one item's count goes up by one."""
        keys = self._keys
        i = int(keys.searchsorted(item))
        if i < keys.size and keys[i] == item:
            c = int(self._counts[i]) + 1
            self._counts[i] = c
        else:
            self._keys = np.concatenate((keys[:i], [item], keys[i:]))
            self._counts = np.concatenate((self._counts[:i], [1], self._counts[i:]))
            c = 1
        if c > self._max:
            self._max = c

    def add_sorted(self, ordered: np.ndarray) -> None:
        """:meth:`update` with each of ``ordered`` (ascending int64): one
        merge of the chunk into the table."""
        self._keys, self._counts, top = _count_union(self._keys, self._counts, ordered)
        if top > self._max:
            self._max = top

    @classmethod
    def union(cls, tables: list["_SuffixLinf"]) -> "_SuffixLinf":
        """The tables of shards' substreams as one table: every key's
        counts summed, in one merge of their concatenation."""
        keys = np.concatenate([table._keys for table in tables])
        counts = np.concatenate([table._counts for table in tables])
        order = np.argsort(keys, kind="stable")
        out = object.__new__(cls)
        out._keys, out._counts, out._max = _count_union(
            keys[:0], counts[:0], keys[order], counts[order]
        )
        return out

    def linf(self) -> int:
        return self._max

    def capped_linf(self, newer: "_SuffixLinf", spare: int) -> int:
        """``max_i min(f_i, g_i + spare)``, ``f`` this table's counts and
        ``g`` the ``newer`` table's (0 for a key it lacks)."""
        __, mine, theirs = np.intersect1d(
            self._keys, newer._keys, assume_unique=True, return_indices=True
        )
        inner = np.zeros_like(self._counts)
        inner[mine] = newer._counts[theirs]
        return int(np.minimum(self._counts, inner + spare).max(initial=0))

    def approx_size_bytes(self) -> int:
        return INSTANCE_BYTES + ndarray_bytes(self._keys) + ndarray_bytes(self._counts)

    def snapshot(self) -> dict:
        return {
            "kind": "suffix_linf",
            "max": self._max,
            "keys": self._keys.copy(),
            "vals": self._counts.copy(),
        }

    def restore(self, state: dict) -> None:
        if state.get("kind") != "suffix_linf":
            raise ValueError(f"not a suffix_linf snapshot: {state.get('kind')!r}")
        keys = np.array(state["keys"], dtype=np.int64)
        counts = np.array(state["vals"], dtype=np.int64)
        if keys.ndim != 1 or counts.shape != keys.shape or np.any(keys[1:] <= keys[:-1]):
            raise ValueError("suffix_linf keys must ascend strictly, one count each")
        self._max = int(state["max"])
        self._keys = keys
        self._counts = counts


class _TimeGeneration:
    """A reservoir pool over all updates since a time-bucket boundary."""

    __slots__ = ("pool", "bucket", "aux")

    def __init__(self, pool: SamplerPool, bucket: int, aux) -> None:
        self.pool = pool
        self.bucket = bucket
        self.aux = aux  # per-substream normalizer state (Lp: _SuffixLinf)

    def __deepcopy__(self, memo: dict) -> "_TimeGeneration":
        """Clone at state cost: the pool (its buffer and ``wall`` read
        as one pair) and aux through their own clones."""
        clone = object.__new__(_TimeGeneration)
        memo[id(self)] = clone
        clone.pool = copy.deepcopy(self.pool, memo)
        clone.bucket = self.bucket
        clone.aux = copy.deepcopy(self.aux, memo)
        return clone


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
        _check_delta(delta)
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
        # The never-fed pool generations are born from, built at the
        # first birth: see _new_generation.
        self._blank: SamplerPool | None = None

    # -- construction hooks -------------------------------------------------
    def _make_aux(self):
        return None

    def _aux_ingest(self, arr: np.ndarray, feeds: list) -> None:
        """Feed each kept generation's aux the chunk suffix ``arr[start:]``
        (``feeds`` holds ``(aux, start)`` pairs)."""

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
            + ndarray_bytes(gen.pool.wall)
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
        """A generation born at ``bucket``: a clone of the blank pool
        (one buffer copy, the metrics counter already bound) drawing
        from the bucket's own RNG stream.  The blank never draws; it
        holds the sampler's query RNG only so that a copy of the sampler
        clones it at buffer cost (a restore, which replaces that RNG,
        drops it)."""
        blank = self._blank
        if blank is None:
            blank = self._blank = SamplerPool(
                self._instances, self._rng, registry=self._registry
            )
            blank.wall = np.full(self._instances, -math.inf)
        pool = copy.deepcopy(blank, {id(blank._rng): self._gen_rng(bucket)})
        return _TimeGeneration(pool, bucket, self._make_aux())

    def _ensure_generation(self, bucket: int) -> None:
        if not self._generations or bucket > self._generations[-1].bucket:
            self._generations.append(self._new_generation(bucket))
            if len(self._generations) > 2:
                self._generations.pop(0)

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
                gen.pool.stamp_arrivals(old_pos, (ts,))
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

    def validate_batch(self, items, timestamps) -> tuple[np.ndarray, np.ndarray]:
        """The checks :meth:`update_batch` runs before touching state
        (see :func:`~repro.windows.chunking.as_timed_chunk`); returns
        the coerced ``(items, timestamps)`` arrays."""
        return as_timed_chunk(items, timestamps, self._now)

    def update_batch(self, items, timestamps) -> None:
        """Vectorized ingestion of a timestamped chunk: only the
        generations the chunk leaves kept are fed, one suffix call each
        — bitwise identical to the scalar loop (see :meth:`_ingest`)."""
        arr, ts = self.validate_batch(items, timestamps)
        if arr.size:
            self._ingest(arr, ts)

    def _ingest(self, arr: np.ndarray, ts: np.ndarray) -> None:
        """Planned ingestion of a validated, non-empty chunk (also the
        entry point of :class:`repro.windows.WindowBank` and the
        engine's timed ingest).

        The plan replays :meth:`_ensure_generation`'s append/pop-oldest
        rule over the existing generations (offset 0) and each new
        bucket's first offset; only the two generations kept at the end
        get a pool, each fed its whole suffix in one batched call.  A
        generation born and dropped inside the chunk can never reach a
        snapshot or a sample, and eliding it is bitwise: a survivor sees
        exactly the scalar loop's items, its RNG stream is keyed by its
        bucket (not birth order), and the pool kernel is cut-invariant.

        The suffix call carries the suffix's arrival times: the compiled
        loop stamps each adopted item's arrival time into a copy of the
        generation's ``wall`` as it adopts it (the Python rule,
        :meth:`SamplerPool.stamp_arrivals`, when there is no compiler),
        and the pool swaps the copy in with its new buffer, under one
        lock.  The bucket cuts cost a binary search per bucket the chunk
        enters, not a pass over the chunk.
        """
        buckets, cuts = bucket_cuts(ts, self._horizon)
        plan = [(gen.bucket, gen, 0) for gen in self._generations]
        for bucket, start in zip(buckets, cuts):
            if not plan or bucket > plan[-1][0]:
                plan.append((bucket, None, start))
        kept = []
        for bucket, gen, start in plan[-2:]:
            if gen is None:
                gen = self._new_generation(bucket)
            gen.pool.update_batch(arr[start:], ts[start:])
            kept.append((gen, start))
        self._aux_ingest(arr, [(gen.aux, start) for gen, start in kept])
        self._generations = [gen for gen, __ in kept]
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
        for (item, count, __), coin, wall in zip(finals, coins, gen.pool.wall.tolist()):
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
        active = gen.pool.wall > window_start

        def make(j: int) -> SampleResult:
            item, count, __ = finals[j]
            return SampleResult.of(
                item, count=count, timestamp=float(gen.pool.wall[j]), zeta=zeta
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
                "wall": gen.pool.wall.copy(),
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
        """Overwrite this sampler from a :meth:`snapshot` dict.  All of
        it is parsed before any field is assigned, so a malformed
        snapshot (a missing or mistyped key, a corrupt generation)
        raises :class:`ValueError` and leaves the sampler as it was."""
        for name, value in self._parse(state).items():
            setattr(self, name, value)

    def _parse(self, state: dict) -> dict:
        """The fields :meth:`restore` assigns, by attribute name, read
        from ``state`` without touching the sampler."""
        with parsing(self._KIND):
            if state.get("kind") != self._KIND:
                raise ValueError(
                    f"not a {self._KIND} snapshot: {state.get('kind')!r}"
                )
            fingerprint = self._config_fingerprint()
            unknown = set(state) - {"kind", *fingerprint, *_STATE_KEYS}
            if unknown:
                raise ValueError(
                    f"{self._KIND} snapshot carries {sorted(unknown)}: a "
                    "retired layout; rebuild it from the stream"
                )
            for key, mine in fingerprint.items():
                theirs = state[key]
                if theirs != mine:
                    raise ValueError(
                        f"snapshot has {key}={theirs!r}, sampler has {mine!r}"
                    )
            last_arrival = state["last_arrival"]
            entries = state["generations"]
            if len(entries) > 2:
                raise ValueError(f"{len(entries)} generations, at most 2 are kept")
            gens: list[_TimeGeneration] = []
            for i in range(len(entries)):
                entry = entries[str(i)]
                gen = _TimeGeneration(
                    SamplerPool.from_snapshot(entry["pool"], self._registry),
                    int(entry["bucket"]),
                    self._make_aux(),
                )
                if gen.pool.instances != self._instances:
                    raise ValueError(
                        f"generation {i} has {gen.pool.instances} instances, "
                        f"not {self._instances}"
                    )
                if gens and gen.bucket <= gens[-1].bucket:
                    raise ValueError("generation buckets must ascend")
                wall = np.array(entry["wall"], dtype=np.float64)
                if wall.shape != (self._instances,):
                    raise ValueError(
                        f"generation {i} wall has shape {wall.shape}, "
                        f"not ({self._instances},)"
                    )
                gen.pool.wall = wall
                if gen.aux is not None:
                    gen.aux.restore(entry["aux"])
                gens.append(gen)
            return {
                "_delta": float(state["delta"]),
                "_root": int(state["root"]),
                "_t": int(state["position"]),
                "_now": float(state["now"]),
                "_last_arrival": (
                    -math.inf if last_arrival is None else float(last_arrival)
                ),
                "_generations": gens,
                "_rng": generator_from_state(state["rng_state"]),
                "_blank": None,
            }

    def _contribution(self, bucket: int) -> _TimeGeneration | None:
        """This sampler's substream-since-``bucket·H`` generation, or
        ``None`` when this sampler has no update since ``bucket·H`` at
        all (an empty contribution).

        Exact bucket match when present.  When absent but a *later*
        generation exists, that later generation IS the contribution
        (borrowed): generations are created on the first update of a new
        bucket and the two newest buckets are kept, so lacking bucket
        ``b`` while holding bucket ``b' > b`` means zero updates arrived
        in ``[bH, b'H)`` — the gen-``b'`` pool covers exactly the
        updates since ``bH``.
        """
        for gen in self._generations:  # ascending buckets
            if gen.bucket >= bucket:
                return gen
        return None

    def merge(self, other) -> None:
        """Absorb a sampler fed a disjoint universe partition over the
        *same wall clock* (shards of one timestamped stream): this
        sampler's generations become those of the two-sampler
        :meth:`fold`."""
        self._absorb([self, other])

    @classmethod
    def fold(cls, samplers) -> "_TimeWindowPoolSampler":
        """The K-way merge of shards of one timestamped stream into a
        fresh sampler, the inputs untouched.

        Generations align by time bucket — boundaries are absolute
        multiples of the horizon, so the ``k``-th bucket means the same
        interval on every shard.  Bucket-wise, each shard contributes its
        substream-since-the-boundary generation (see
        :meth:`_contribution` — a shard quiet since the boundary
        contributes its next generation or nothing), and the
        contributions fold once by the exact uniform-position rule
        (:meth:`SamplerPool.fold`, drawing from a copy of the first
        contribution's stream; ``wall`` gathered by the same picks, the
        Lp count tables unioned), so every folded generation covers
        *all* updates since its absolute start and the covering property
        is inherited.  The fold's query RNG is a copy of the first
        sampler's."""
        first = samplers[0]
        out = object.__new__(cls)
        out.__dict__.update(first.__dict__)
        with first._rng.bit_generator.lock:
            out._rng = generator_from_state(first._rng.bit_generator.state)
        out._blank = None
        out._absorb(samplers)
        return out

    def _absorb(self, samplers) -> None:
        """Set this sampler's generations and clock to the fold of
        ``samplers`` (which it may be among; they are only read)."""
        first = samplers[0]
        fingerprint = first._config_fingerprint()
        for other in samplers[1:]:
            if type(other) is not type(first):
                raise TypeError(
                    f"cannot merge {type(first).__name__} with {type(other).__name__}"
                )
            for key, theirs in other._config_fingerprint().items():
                if theirs != fingerprint[key]:
                    raise ValueError(f"{key} differs: {fingerprint[key]!r} vs {theirs!r}")
        buckets = sorted({gen.bucket for s in samplers for gen in s._generations})
        self._generations = [
            self._fold_generation(bucket, [s._contribution(bucket) for s in samplers])
            for bucket in buckets[-2:]
        ]
        self._t = sum(s._t for s in samplers)
        self._now = max(s._now for s in samplers)
        self._last_arrival = max(s._last_arrival for s in samplers)

    def _fold_generation(self, bucket: int, parts: list) -> _TimeGeneration:
        """One generation at ``bucket`` from the shards' contributions
        (``None`` for an empty one)."""
        gens = [gen for gen in parts if gen is not None]
        pool = SamplerPool.fold([gen.pool for gen in gens])
        if parts[0] is None:
            pool.bind_metrics(self._registry)
        aux = gens[0].aux
        if aux is not None:
            aux = _SuffixLinf.union([gen.aux for gen in gens])
        return _TimeGeneration(pool, bucket, aux)


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
        _check_delta(delta)
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
            raise ValueError(f"{type(self).__name__} requires p ≥ 1")
        self._p = float(p)
        if instances is None:
            expected = expected_window_count or DEFAULT_EXPECTED_WINDOW_COUNT
            instances = lp_window_instances(p, expected, delta)
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

    def _aux_ingest(self, arr: np.ndarray, feeds: list) -> None:
        """Generations fed the same suffix share one sort of it."""
        ordered = {}
        for aux, start in feeds:
            if aux is not None:
                if start not in ordered:
                    ordered[start] = np.sort(arr[start:])
                aux.add_sorted(ordered[start])

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
        z = max(1.0, float(self._window_linf(gen)))
        return z**self._p - (z - 1.0) ** self._p

    def _window_linf(self, gen: _TimeGeneration) -> int:
        """A certified bound on the active window's ``‖f‖∞`` when
        ``gen`` covers it: ``gen``'s exact suffix-``‖f‖∞``."""
        return gen.aux.linf()

    def _zeta(self, gen: _TimeGeneration) -> float:
        return self.normalizer(gen)

    def _weight(self, count: int) -> float:
        return count**self._p - (count - 1) ** self._p
