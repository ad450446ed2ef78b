"""Algorithm 4 — truly perfect M-estimator sampling on sliding windows
(Theorem 4.1, Corollary 4.2).

Generations of reservoir pools are checkpointed every ``W`` updates and the
two most recent kept.  At query time the *older* generation's substream
(length ``L ∈ (W, 2W]``) always covers the active window, so each active
position was its reservoir target with probability exactly ``1/L``;
conditioning on the sampled position being active and applying the usual
rejection step yields exactly ``G(f_i)/F_G`` over the *window* frequencies.
The ``L ≤ 2W`` slack costs a factor ≤ 2 in acceptance probability, which
the instance count absorbs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.g_sampler import SamplerPool
from repro.core.measures import Measure
from repro.core.rejection import rejection_many
from repro.core.types import SampleResult, as_item_array
from repro.lifecycle.memory import INSTANCE_BYTES, RNG_STATE_BYTES
from repro.lifecycle.protocol import StaticLifecycleMixin
from repro.lifecycle.rng import generator_from_state

__all__ = ["SlidingWindowGSampler"]


def _count_window_merge_error(cls_name: str) -> ValueError:
    """The shared refusal of the count-based window family: "the last W
    updates" of a sharded stream has no global arrival order, so merging
    is mathematically undefined (the registry declares these kinds
    ``mergeable=False``; use :mod:`repro.windows` for mergeable,
    time-based windows)."""
    return ValueError(
        f"{cls_name} does not merge: count-based windows have no global "
        "arrival order across shards — use the time-based samplers in "
        "repro.windows for mergeable windowed sampling"
    )


class _Generation:
    """A reservoir pool plus the absolute position at which it started."""

    __slots__ = ("pool", "start")

    def __init__(self, pool: SamplerPool, start: int) -> None:
        self.pool = pool
        self.start = start  # number of updates that preceded this pool


class SlidingWindowGSampler(StaticLifecycleMixin):
    """Truly perfect G-sampler over the last ``window`` updates.

    Parameters
    ----------
    measure:
        A measure with globally bounded increments (``zeta(None)``).
    window:
        Window size ``W``.
    instances:
        Instances per generation; defaults to
        ``R = ⌈2·ζ·W/F̂_G(W)·ln(1/δ)⌉`` using the measure's certified
        window bound (the extra 2 covers the ≤2W substream slack).
    """

    def __init__(
        self,
        measure: Measure,
        window: int,
        instances: int | None = None,
        delta: float = 0.05,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        self._measure = measure
        self._window = window
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        if instances is None:
            zeta = measure.zeta(None)
            acceptance = measure.fg_lower_bound(window) / (2.0 * zeta * window)
            instances = max(1, math.ceil(math.log(1.0 / delta) / acceptance))
        self._instances = instances
        self._t = 0
        self._generations: list[_Generation] = []

    @property
    def window(self) -> int:
        return self._window

    @property
    def instances(self) -> int:
        return self._instances

    @property
    def position(self) -> int:
        return self._t

    @property
    def generation_count(self) -> int:
        return len(self._generations)

    def approx_size_bytes(self) -> int:
        return (
            INSTANCE_BYTES
            + RNG_STATE_BYTES
            + sum(
                INSTANCE_BYTES + gen.pool.approx_size_bytes()
                for gen in self._generations
            )
        )

    def merge(self, other) -> None:
        raise _count_window_merge_error(type(self).__name__)

    def update(self, item: int) -> None:
        # A new generation starts at positions 1, W+1, 2W+1, ...
        if self._t % self._window == 0:
            self._generations.append(
                _Generation(SamplerPool(self._instances, self._rng), self._t)
            )
            if len(self._generations) > 2:
                self._generations.pop(0)
        self._t += 1
        for gen in self._generations:
            gen.pool.update(item)

    def extend(self, items) -> None:
        """Delegates to :meth:`update_batch` (distributionally
        equivalent to the scalar loop — see its docstring for the RNG
        draw-order caveat)."""
        self.update_batch(as_item_array(items))

    def update_batch(self, items) -> None:
        """Vectorized ingestion: the chunk is split at generation
        boundaries (every ``W`` updates) and each segment goes through
        the pools' batched path.

        Distributionally equivalent to the scalar loop — the generations
        share one RNG stream, and batching hands each pool a different
        (but still i.i.d.) subsequence of draws than the interleaved
        scalar order, so states are not bitwise comparable across the
        two paths (they are for single-pool samplers).
        """
        arr = np.asarray(items, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("update_batch expects a 1-d sequence of items")
        start = 0
        length = int(arr.size)
        while start < length:
            if self._t % self._window == 0:
                self._generations.append(
                    _Generation(SamplerPool(self._instances, self._rng), self._t)
                )
                if len(self._generations) > 2:
                    self._generations.pop(0)
            step = min(length - start, self._window - self._t % self._window)
            segment = arr[start:start + step]
            for gen in self._generations:
                gen.pool.update_batch(segment)
            self._t += step
            start += step

    def _covering_generation(self) -> _Generation | None:
        """The oldest kept generation — its substream covers the window."""
        if not self._generations:
            return None
        return self._generations[0]

    def snapshot(self) -> dict:
        """Checkpoint generations + RNG state.

        The generations' pools share the sampler's RNG object, so the
        pool snapshots record the same RNG state redundantly; restore
        re-establishes the sharing, making the restored sampler continue
        bitwise-identically.  (Count-based windows snapshot and restore
        but do *not* merge: "the last W updates" of a sharded stream is
        undefined without a global arrival order — use
        :mod:`repro.windows` for mergeable, time-based windows.)
        """
        return {
            "kind": "sw_g",
            "measure": self._measure.name,
            "window": self._window,
            "instances": self._instances,
            "position": self._t,
            "generations": {
                str(i): {"start": gen.start, "pool": gen.pool.snapshot()}
                for i, gen in enumerate(self._generations)
            },
            "rng_state": self._rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        if state.get("kind") != "sw_g":
            raise ValueError(f"not a sw_g snapshot: {state.get('kind')!r}")
        if state.get("measure") != self._measure.name:
            raise ValueError(
                f"snapshot is for measure {state.get('measure')!r}, sampler "
                f"has {self._measure.name!r}"
            )
        if int(state["window"]) != self._window:
            raise ValueError(
                f"snapshot has window={state['window']}, sampler has "
                f"{self._window}"
            )
        self._instances = int(state["instances"])
        self._t = int(state["position"])
        rng = generator_from_state(state["rng_state"])
        self._rng = rng
        generations: list[_Generation] = []
        entries = state["generations"]
        for i in range(len(entries)):
            entry = entries[str(i)]
            pool = SamplerPool.from_snapshot(entry["pool"])
            pool._rng = rng  # re-establish the shared stream
            generations.append(_Generation(pool, int(entry["start"])))
        self._generations = generations

    def sample(self) -> SampleResult:
        """Rejection step over the covering generation's instances.

        An instance contributes only when its sampled position is still
        active (Algorithm 4 line 6); acceptance then uses
        ``(G(c) − G(c−1))/ζ`` with the measure's global ζ.
        """
        gen = self._covering_generation()
        if gen is None:
            return SampleResult.empty()
        finals = gen.pool.finalize()
        if not finals:
            return SampleResult.empty()
        zeta = self._measure.zeta(None)
        window_start = self._t - self._window  # active positions are > this
        coins = self._rng.random(len(finals))
        measure = self._measure
        for (item, count, rel_ts), coin in zip(finals, coins):
            abs_ts = gen.start + rel_ts
            if abs_ts <= window_start:
                continue  # the sampled position has expired
            weight = measure.increment(count)
            if weight > zeta * (1.0 + 1e-12):
                raise ValueError(
                    f"invalid zeta {zeta}: increment at c={count} is {weight}"
                )
            if coin < weight / zeta:
                return SampleResult.of(
                    item, count=count, timestamp=abs_ts, zeta=zeta
                )
        return SampleResult.fail(zeta=zeta)

    def sample_many(self, k: int) -> list[SampleResult]:
        """``k`` independent window samples from one finalize + one
        batched coin block — bitwise identical to ``k`` back-to-back
        :meth:`sample` calls (expired instances stay masked without
        consuming extra coins, exactly like the scalar scan)."""
        gen = self._covering_generation()
        finals = gen.pool.finalize() if gen is not None else []
        if not finals:
            if k < 0:
                raise ValueError(f"need a non-negative draw count, got {k}")
            return [SampleResult.empty() for __ in range(k)]
        zeta = self._measure.zeta(None)
        window_start = self._t - self._window
        measure = self._measure
        weights = [measure.increment(c) for __, c, __ in finals]
        abs_ts = [gen.start + ts for __, __, ts in finals]
        active = np.array([ts > window_start for ts in abs_ts], dtype=bool)

        def make(j: int) -> SampleResult:
            item, count, __ = finals[j]
            return SampleResult.of(
                item, count=count, timestamp=abs_ts[j], zeta=zeta
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

    def run(self, stream) -> SampleResult:
        self.extend(stream)
        return self.sample()
