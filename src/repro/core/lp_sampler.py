"""Truly perfect Lp samplers for insertion-only streams (Theorems 1.4,
3.3, 3.4, 3.5).

For ``p ∈ [1, 2]`` the rejection step needs ``ζ ≥ c^p − (c−1)^p`` for
every frequency ``c``, so a certified upper bound ``Z ≥ ‖f‖∞`` is
required.  Crucially this bound must hold *with probability 1* — any
randomized estimator's failure event would leak additive error into the
output distribution.  A Misra–Gries summary with ``⌈n^{1−1/p}⌉`` counters
gives ``‖f‖∞ ≤ Z ≤ ‖f‖∞ + m/n^{1−1/p}`` deterministically
(Theorem 3.2), which the Theorem 3.4 analysis turns into a per-instance
acceptance probability ≥ ``1/(4n^{1−1/p})``.

For ``p ∈ (0, 1]`` increments are globally ≤ 1 (``ζ = 1``) and the
acceptance probability is ``F_p/m ≥ m^{p−1}``, so ``O(m^{1−p})``
instances suffice (Theorem 3.5) and no normalizer is needed.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from repro.core.g_sampler import SamplerPool, clone_pool_first
from repro.core.measures import LpMeasure
from repro.core.rejection import rejection_many
from repro.core.types import SampleResult, as_item_array
from repro.lifecycle.memory import INSTANCE_BYTES
from repro.lifecycle.protocol import StaticLifecycleMixin
from repro.sketches.misra_gries import MisraGries

__all__ = ["TrulyPerfectLpSampler", "lp_instance_bound"]


def lp_instance_bound(p: float, n: int, delta: float, m_hint: int | None = None) -> int:
    """The paper's repetition counts.

    ``⌈4·n^{1−1/p}·ln(1/δ)⌉`` for ``p ≥ 1`` (Theorem 3.4) and
    ``⌈m^{1−p}·ln(1/δ)⌉`` for ``p < 1`` (Theorem 3.5, needs ``m_hint``).
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    log_term = math.log(1.0 / delta)
    if p >= 1:
        return max(1, math.ceil(4.0 * n ** (1.0 - 1.0 / p) * log_term))
    if m_hint is None:
        raise ValueError("p < 1 sizing needs m_hint (space scales with m^{1-p})")
    return max(1, math.ceil(m_hint ** (1.0 - p) * log_term))


class TrulyPerfectLpSampler(StaticLifecycleMixin):
    """Truly perfect Lp sampler, ``p ∈ (0, 2]`` (Theorem 3.3).

    Parameters
    ----------
    p:
        Moment order.  ``p = 1`` degenerates to reservoir sampling (every
        instance accepts).
    n:
        Universe size (drives the instance count and Misra-Gries capacity
        for ``p ≥ 1``).
    delta:
        FAIL probability target.
    m_hint:
        Stream length hint; required for ``p < 1``.
    instances:
        Explicit pool-size override.

    Notes
    -----
    ``p > 2`` is accepted too: the same telescoping argument is valid for
    any ``p ≥ 1``; only the instance bound (``n^{1−1/p}``) keeps growing
    toward linear.  The paper states results for ``p ∈ [1,2]``; we follow
    the construction, which never uses ``p ≤ 2`` anywhere except in the
    constant of the acceptance bound.
    """

    def __init__(
        self,
        p: float,
        n: int,
        delta: float = 0.05,
        m_hint: int | None = None,
        instances: int | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if p <= 0:
            raise ValueError(f"p must be positive, got {p}")
        if n <= 0:
            raise ValueError(f"universe size must be positive, got {n}")
        self._p = p
        self._n = n
        self._measure = LpMeasure(p)
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        if instances is None:
            instances = lp_instance_bound(p, n, delta, m_hint)
        self._pool = SamplerPool(instances, self._rng)
        if p > 1:
            capacity = max(1, math.ceil(n ** (1.0 - 1.0 / p)))
            self._mg: MisraGries | None = MisraGries(capacity)
        else:
            self._mg = None

    @property
    def p(self) -> float:
        return self._p

    @property
    def instances(self) -> int:
        return self._pool.instances

    @property
    def position(self) -> int:
        return self._pool.position

    @property
    def space_words(self) -> int:
        mg_words = 2 * self._mg.capacity if self._mg is not None else 0
        return 4 * self._pool.instances + 2 * self._pool.tracked_items + mg_words

    def approx_size_bytes(self) -> int:
        mg_bytes = self._mg.approx_size_bytes() if self._mg is not None else 0
        return INSTANCE_BYTES + self._pool.approx_size_bytes() + mg_bytes

    def update(self, item: int) -> None:
        self._pool.update(item)
        if self._mg is not None:
            self._mg.update(item)

    def extend(self, items) -> None:
        """Delegates to :meth:`update_batch` (see its note on the p > 1
        Misra–Gries normalizer)."""
        self.update_batch(as_item_array(items))

    def update_batch(self, items) -> None:
        """Vectorized ingestion of a chunk of items.

        The pool path is bitwise identical to the scalar loop for a fixed
        seed; the Misra–Gries path uses weighted per-distinct updates, so
        for ``p > 1`` the certified normalizer ζ may differ slightly from
        the scalar run — the *conditional output distribution* is exactly
        the target either way (any certified ζ is), only the FAIL rate
        can shift marginally.
        """
        arr = np.asarray(items, dtype=np.int64)
        self._pool.update_batch(arr)
        if self._mg is not None:
            self._mg.update_batch(arr)

    def snapshot(self) -> dict:
        state = {
            "kind": "truly_perfect_lp",
            "p": self._p,
            "n": self._n,
            "pool": self._pool.snapshot(),
        }
        if self._mg is not None:
            state["mg"] = self._mg.snapshot()
        return state

    def restore(self, state: dict) -> None:
        if state.get("kind") != "truly_perfect_lp":
            raise ValueError(f"not a truly_perfect_lp snapshot: {state.get('kind')!r}")
        if float(state["p"]) != self._p:
            raise ValueError(f"snapshot is for p={state['p']}, sampler has p={self._p}")
        self._n = int(state["n"])
        self._pool.restore(state["pool"])
        self._rng = self._pool._rng
        if self._mg is not None:
            self._mg.restore(state["mg"])

    def merge(self, other: "TrulyPerfectLpSampler") -> None:
        """Absorb a sampler fed a *disjoint* partition of the universe.

        Pool merge is exact under the partition contract (see
        :meth:`repro.core.g_sampler.SamplerPool.merge`); the merged
        Misra–Gries summary certifies ``max_shards ‖f‖∞`` globally, so
        the rejection step stays truly perfect.
        """
        if not isinstance(other, TrulyPerfectLpSampler):
            raise TypeError(
                f"cannot merge TrulyPerfectLpSampler with {type(other).__name__}"
            )
        if other._p != self._p:
            raise ValueError(f"p differs: {self._p} vs {other._p}")
        self._pool.merge(other._pool)
        if self._mg is not None:
            self._mg.merge(other._mg)

    def __deepcopy__(self, memo: dict) -> "TrulyPerfectLpSampler":
        return clone_pool_first(self, memo)

    def spawn_query_rng(self, rng: np.random.Generator) -> "TrulyPerfectLpSampler":
        """The optional lifecycle query-view hook (see
        :mod:`repro.lifecycle.rng`): a clone whose query coins and pool
        draw from ``rng`` — what the generic deep copy plus rebind walk
        builds, without the walk."""
        return copy.deepcopy(self, {id(self._rng): rng, id(self._pool._rng): rng})

    def normalizer(self) -> float:
        """The certified ζ for the rejection step at the current time."""
        if self._p <= 1:
            return 1.0
        z = self._mg.linf_upper_bound()
        return self._measure.zeta(max(z, 1.0))

    def sample(self) -> SampleResult:
        """Rejection step across the pool; first acceptor wins."""
        finals = self._pool.finalize()
        if not finals:
            return SampleResult.empty()
        zeta = self.normalizer()
        measure = self._measure
        coins = self._rng.random(len(finals))
        for (item, count, ts), coin in zip(finals, coins):
            weight = measure.increment(count)
            if weight > zeta * (1.0 + 1e-12):
                raise ValueError(
                    "Misra-Gries normalizer violated: increment at "
                    f"c={count} is {weight} > zeta={zeta}"
                )
            if coin < weight / zeta:
                return SampleResult.of(item, count=count, timestamp=ts, zeta=zeta)
        return SampleResult.fail(zeta=zeta)

    def sample_many(self, k: int) -> list[SampleResult]:
        """``k`` independent samples from one finalize + one batched coin
        block — bitwise identical to ``k`` back-to-back :meth:`sample`
        calls (the normalizer is computed once; it is query-invariant
        between ingests)."""
        finals = self._pool.finalize()
        if not finals:
            if k < 0:
                raise ValueError(f"need a non-negative draw count, got {k}")
            return [SampleResult.empty() for __ in range(k)]
        zeta = self.normalizer()
        measure = self._measure
        weights = [measure.increment(c) for __, c, __ in finals]

        def make(j: int) -> SampleResult:
            item, count, ts = finals[j]
            return SampleResult.of(item, count=count, timestamp=ts, zeta=zeta)

        return rejection_many(
            self._rng,
            k,
            weights,
            zeta,
            make,
            lambda: SampleResult.fail(zeta=zeta),
            describe=lambda j: (
                "Misra-Gries normalizer violated: increment at "
                f"c={finals[j][1]} is {weights[j]} > zeta={zeta}"
            ),
        )

    def run(self, stream) -> SampleResult:
        self.extend(stream)
        return self.sample()
