"""Algorithm 6 — truly perfect Lp sampling on sliding windows
(Theorem 1.4, sliding-window part).

Structure: the two-generation checkpoint scheme of Algorithm 4, an Lp
measure, and a *certified* normalizer from a smooth histogram.

The paper's Algorithm 6 pairs each checkpoint with a [BO07] ``Estimate``
instance giving ``F ≤ L_p(window) ≤ 2F``.  We run the smooth histogram
with exact suffix-``F_p`` inner estimators, which makes the sandwich
deterministic ([BO07] smoothness is a property of the *function*, so with
exact inner values the histogram's guarantee holds with probability 1 —
keeping the sampler truly perfect; see DESIGN.md §4 on this substitution).
The rejection weight is ``(c^p − (c−1)^p)/ζ`` with
``ζ = p·(upper bound on window ‖f‖∞)^{p−1}`` derived from the histogram's
certified range.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.g_sampler import SamplerPool
from repro.core.rejection import rejection_many
from repro.core.types import SampleResult, as_item_array
from repro.lifecycle.memory import INSTANCE_BYTES, RNG_STATE_BYTES
from repro.lifecycle.protocol import StaticLifecycleMixin
from repro.lifecycle.rng import generator_from_state
from repro.sketches.smooth_histogram import SmoothHistogram, ExactSuffixFp, fp_smoothness
from repro.sliding_window.window_sampler import _count_window_merge_error

__all__ = ["SlidingWindowLpSampler", "sliding_window_lp_instances"]


def sliding_window_lp_instances(p: float, window: int, delta: float) -> int:
    """Theorem 1.4's repetition count ``O(W^{1−1/p})`` with the proof's
    constant ``p·2^{p−1}`` and the ≤2W substream slack (another 2)."""
    if p < 1:
        raise ValueError("the sliding-window Lp sampler requires p ≥ 1")
    log_term = math.log(1.0 / delta)
    return max(1, math.ceil(2.0 * p * 2 ** (p - 1) * window ** (1.0 - 1.0 / p) * log_term))


class _Generation:
    __slots__ = ("pool", "start")

    def __init__(self, pool: SamplerPool, start: int) -> None:
        self.pool = pool
        self.start = start


class SlidingWindowLpSampler(StaticLifecycleMixin):
    """Truly perfect Lp sampler over the last ``window`` updates, ``p ≥ 1``.

    Parameters
    ----------
    p:
        Moment order ≥ 1 (``p = 1`` needs no normalizer and accepts
        always).
    window:
        Window size ``W``.
    alpha:
        Smooth-histogram accuracy (drives checkpoint count
        ``O((p/α)^p log W)``).
    """

    def __init__(
        self,
        p: float,
        window: int,
        instances: int | None = None,
        delta: float = 0.05,
        alpha: float = 0.5,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if p < 1:
            raise ValueError("SlidingWindowLpSampler requires p ≥ 1")
        if window <= 0:
            raise ValueError("window must be positive")
        self._p = p
        self._window = window
        self._alpha = alpha
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        if instances is None:
            instances = sliding_window_lp_instances(p, window, delta)
        self._instances = instances
        self._t = 0
        self._generations: list[_Generation] = []
        if p > 1:
            __, beta = fp_smoothness(p, alpha)
            self._hist: SmoothHistogram | None = SmoothHistogram(
                lambda: ExactSuffixFp(p), beta, window
            )
        else:
            self._hist = None

    @property
    def p(self) -> float:
        return self._p

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
    def histogram_checkpoints(self) -> int:
        return self._hist.checkpoint_count if self._hist is not None else 0

    def approx_size_bytes(self) -> int:
        hist_bytes = (
            self._hist.approx_size_bytes() if self._hist is not None else 0
        )
        return (
            INSTANCE_BYTES
            + RNG_STATE_BYTES
            + hist_bytes
            + sum(
                INSTANCE_BYTES + gen.pool.approx_size_bytes()
                for gen in self._generations
            )
        )

    def merge(self, other) -> None:
        raise _count_window_merge_error(type(self).__name__)

    def update(self, item: int) -> None:
        if self._t % self._window == 0:
            self._generations.append(
                _Generation(SamplerPool(self._instances, self._rng), self._t)
            )
            if len(self._generations) > 2:
                self._generations.pop(0)
        self._t += 1
        for gen in self._generations:
            gen.pool.update(item)
        if self._hist is not None:
            self._hist.update(item)

    def extend(self, items) -> None:
        """Delegates to :meth:`update_batch` (distributionally
        equivalent to the scalar loop — see its docstring)."""
        self.update_batch(as_item_array(items))

    def update_batch(self, items) -> None:
        """Vectorized ingestion (pools batched; the smooth histogram's
        checkpoint schedule is inherently per-update, so it replays
        scalar).  Distributionally equivalent to the scalar loop — see
        :meth:`SlidingWindowGSampler.update_batch`."""
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
            if self._hist is not None:
                for item in segment.tolist():
                    self._hist.update(item)
            self._t += step
            start += step

    def snapshot(self) -> dict:
        """Checkpoint generations, smooth histogram, and RNG state (see
        :meth:`SlidingWindowGSampler.snapshot` for the sharing and the
        no-merge caveat)."""
        state = {
            "kind": "sw_lp",
            "p": self._p,
            "window": self._window,
            "alpha": self._alpha,
            "instances": self._instances,
            "position": self._t,
            "generations": {
                str(i): {"start": gen.start, "pool": gen.pool.snapshot()}
                for i, gen in enumerate(self._generations)
            },
            "rng_state": self._rng.bit_generator.state,
        }
        if self._hist is not None:
            state["hist"] = self._hist.snapshot()
        return state

    def restore(self, state: dict) -> None:
        if state.get("kind") != "sw_lp":
            raise ValueError(f"not a sw_lp snapshot: {state.get('kind')!r}")
        if float(state["p"]) != self._p or int(state["window"]) != self._window:
            raise ValueError(
                f"snapshot has p={state['p']}, window={state['window']}; "
                f"sampler has p={self._p}, window={self._window}"
            )
        self._alpha = float(state["alpha"])
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
        if self._hist is not None:
            self._hist.restore(state["hist"])
        elif "hist" in state:
            raise ValueError("snapshot carries a histogram but p ≤ 1 needs none")

    def normalizer(self) -> float:
        """Certified ζ for the active window's frequencies.

        The histogram estimate ``E`` satisfies
        ``(1−α)·F_p(window) ≤ E ≤ F_p(superset)``, and every window
        frequency obeys ``c ≤ ‖f‖∞ ≤ F_p^{1/p} ≤ (E/(1−α))^{1/p}``; the
        max increment is then at most ``z^p − (z−1)^p`` at
        ``z = (E/(1−α))^{1/p}``.
        """
        if self._p <= 1:
            return 1.0
        est = self._hist.estimate()
        z = max(1.0, (est / (1.0 - self._alpha)) ** (1.0 / self._p))
        return z**self._p - (z - 1.0) ** self._p

    def sample(self) -> SampleResult:
        if not self._generations:
            return SampleResult.empty()
        gen = self._generations[0]
        finals = gen.pool.finalize()
        if not finals:
            return SampleResult.empty()
        zeta = self.normalizer()
        window_start = self._t - self._window
        p = self._p
        coins = self._rng.random(len(finals))
        for (item, count, rel_ts), coin in zip(finals, coins):
            abs_ts = gen.start + rel_ts
            if abs_ts <= window_start:
                continue
            weight = count**p - (count - 1) ** p
            if weight > zeta * (1.0 + 1e-12):
                raise ValueError(
                    f"certified normalizer violated: increment {weight} > ζ {zeta}"
                )
            if coin < weight / zeta:
                return SampleResult.of(item, count=count, timestamp=abs_ts, zeta=zeta)
        return SampleResult.fail(zeta=zeta)

    def sample_many(self, k: int) -> list[SampleResult]:
        """``k`` independent window samples from one finalize + one
        batched coin block — bitwise identical to ``k`` back-to-back
        :meth:`sample` calls (the certified normalizer is computed once;
        it is query-invariant between ingests)."""
        gen = self._generations[0] if self._generations else None
        finals = gen.pool.finalize() if gen is not None else []
        if not finals:
            if k < 0:
                raise ValueError(f"need a non-negative draw count, got {k}")
            return [SampleResult.empty() for __ in range(k)]
        zeta = self.normalizer()
        window_start = self._t - self._window
        p = self._p
        counts = np.array([c for __, c, __ in finals], dtype=np.float64)
        weights = counts**p - (counts - 1.0) ** p
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
                f"certified normalizer violated: increment {weights[j]} > "
                f"ζ {zeta}"
            ),
        )

    def run(self, stream) -> SampleResult:
        self.extend(stream)
        return self.sample()
