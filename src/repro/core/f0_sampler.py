"""Truly perfect F0 (support) sampling — Section 5.

``F0`` sampling outputs a uniformly random element of the support
``{i : f_i ≠ 0}``.  Framework 1.3 does not apply directly (``F_0`` can be
far smaller than ``m``), so Algorithm 5 uses a two-regime construction:

* track the first ``√n`` distinct items ``T`` — if the stream's support
  fits, output a uniform element of ``T`` (exact, never fails);
* otherwise a pre-drawn uniform random set ``S`` of ``2√n`` universe
  elements intersects the support with probability ≥ ``1 − e^{−2}``;
  output a uniform element of ``U = S ∩ support``, which is uniform on the
  support by symmetry of ``S``.

With a random oracle the classic min-hash sampler is truly perfect in
O(log n) bits (Remark 5.1); we materialize the oracle table to make its
Ω(n) randomness cost explicit.

The Tukey M-estimator is bounded, so the paper samples it through an F0
sampler: accept an F0 sample ``i`` with probability ``G(f_i)/G(τ)``
(Theorem 5.4) — implemented here as :class:`TukeySampler`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.measures import BoundedMeasure, TukeyMeasure
from repro.core.rejection import uniform_candidate_many, uniform_candidate_sample
from repro.core.types import SampleResult, as_item_array
from repro.lifecycle.memory import (
    INSTANCE_BYTES,
    RNG_STATE_BYTES,
    mapping_bytes,
    ndarray_bytes,
    set_bytes,
)
from repro.lifecycle.protocol import StaticLifecycleMixin
from repro.lifecycle.rng import generator_from_state
from repro.sketches.hashing import random_oracle_hash

__all__ = [
    "Algorithm5F0Sampler",
    "TrulyPerfectF0Sampler",
    "RandomOracleF0Sampler",
    "BoundedMeasureSampler",
    "TukeySampler",
]


class Algorithm5F0Sampler(StaticLifecycleMixin):
    """One copy of Algorithm 5 (√n-space truly perfect F0 sampler).

    Tracks exact frequencies of the items in ``T`` and ``S`` so the
    sampled index is reported together with ``f_i`` (Theorem 5.2).
    """

    __slots__ = ("_n", "_threshold", "_first", "_overflowed", "_s_set", "_counts",
                 "_rng", "_t")

    def __init__(self, n: int, seed: int | np.random.Generator | None = None) -> None:
        if n < 1:
            raise ValueError("universe size must be ≥ 1")
        self._n = n
        self._threshold = max(1, math.isqrt(n) + (0 if math.isqrt(n) ** 2 == n else 1))
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        s_size = min(2 * self._threshold, n)
        self._s_set = set(
            int(x) for x in self._rng.choice(n, size=s_size, replace=False)
        )
        self._first: dict[int, None] = {}
        self._overflowed = False
        self._counts: dict[int, int] = {}
        self._t = 0

    @property
    def threshold(self) -> int:
        """The ``√n`` cut-off between the T and S regimes."""
        return self._threshold

    @property
    def position(self) -> int:
        """Number of updates processed."""
        return self._t

    @property
    def space_words(self) -> int:
        return 2 * (len(self._first) + len(self._s_set)) + len(self._counts)

    def approx_size_bytes(self) -> int:
        return (
            INSTANCE_BYTES
            + RNG_STATE_BYTES
            + set_bytes(len(self._s_set))
            + mapping_bytes(len(self._first))
            + mapping_bytes(len(self._counts))
        )

    def update(self, item: int) -> None:
        if not 0 <= item < self._n:
            raise ValueError(f"item {item} outside universe [0, {self._n})")
        self._t += 1
        # An item is provably *new* at its first arrival: it is in neither
        # T nor the counted part of S.  (Later arrivals of an untracked
        # item re-trigger the overflow flag, which is harmless.)
        seen = item in self._first or self._counts.get(item, 0) > 0
        if not seen:
            if len(self._first) < self._threshold:
                self._first[item] = None
            else:
                self._overflowed = True
        if item in self._first or item in self._s_set:
            self._counts[item] = self._counts.get(item, 0) + 1

    def extend(self, items) -> None:
        """Delegates to :meth:`update_batch` (bitwise identical — updates
        consume no randomness)."""
        self.update_batch(as_item_array(items))

    @staticmethod
    def chunk_pairs(arr: np.ndarray) -> list[tuple[int, int]]:
        """``(item, chunk occurrences)`` pairs in first-appearance order —
        the distinct-item digest :meth:`ingest_pairs` consumes.  Computed
        once per chunk and shared across amplification copies."""
        uniq, first_at, occurrences = np.unique(
            arr, return_index=True, return_counts=True
        )
        order = np.argsort(first_at, kind="stable")
        return list(zip(uniq[order].tolist(), occurrences[order].tolist()))

    def ingest_pairs(self, pairs: list[tuple[int, int]], length: int) -> None:
        """Apply a chunk digest (from :meth:`chunk_pairs`) of a chunk of
        ``length`` already-validated items."""
        for item, __ in pairs:
            seen = item in self._first or self._counts.get(item, 0) > 0
            if not seen:
                if len(self._first) < self._threshold:
                    self._first[item] = None
                else:
                    self._overflowed = True
        for item, count in pairs:
            if item in self._first or item in self._s_set:
                self._counts[item] = self._counts.get(item, 0) + count
        self._t += length

    def update_batch(self, items) -> None:
        """Vectorized chunk ingestion — bitwise identical to the scalar
        loop (no randomness is consumed by updates).

        Membership of ``T ∪ S`` only ever turns *on* for an item (at its
        first arrival), so per-position work collapses to: adopt new
        distinct items in first-appearance order, then add whole-chunk
        occurrence counts for every tracked item.
        """
        arr = np.asarray(items, dtype=np.int64)
        if arr.size == 0:
            return
        if int(arr.min()) < 0 or int(arr.max()) >= self._n:
            raise ValueError(f"items outside universe [0, {self._n})")
        self.ingest_pairs(self.chunk_pairs(arr), int(arr.size))

    def snapshot(self) -> dict:
        n_counts = len(self._counts)
        return {
            "kind": "algorithm5_f0",
            "n": self._n,
            "position": self._t,
            "overflowed": self._overflowed,
            # Canonical (sorted) order, matching sample()'s iteration:
            # the set's raw order leaks its insertion history, which a
            # restore does not replay.
            "s_set": np.fromiter(sorted(self._s_set), dtype=np.int64,
                                 count=len(self._s_set)),
            "first": np.fromiter(self._first.keys(), dtype=np.int64, count=len(self._first)),
            "count_keys": np.fromiter(self._counts.keys(), dtype=np.int64, count=n_counts),
            "count_vals": np.fromiter(self._counts.values(), dtype=np.int64, count=n_counts),
            "rng_state": self._rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        if state.get("kind") != "algorithm5_f0":
            raise ValueError(f"not an algorithm5_f0 snapshot: {state.get('kind')!r}")
        if int(state["n"]) != self._n:
            raise ValueError(f"snapshot is for n={state['n']}, sampler has n={self._n}")
        self._t = int(state["position"])
        self._overflowed = bool(state["overflowed"])
        self._s_set = set(int(x) for x in state["s_set"])
        self._first = {int(x): None for x in state["first"]}
        self._counts = {
            int(k): int(v) for k, v in zip(state["count_keys"], state["count_vals"])
        }
        self._rng = generator_from_state(state["rng_state"])

    def merge(self, other: "Algorithm5F0Sampler") -> None:
        """Absorb a copy fed a *disjoint* partition of the universe.

        Requires an identical random subset ``S`` (construct shard copies
        from the same seed).  The result is the exact state of one copy
        run over the concatenation self‖other: ``other``'s ``T`` entries
        append in first-appearance order until ``T`` fills (an overflowed
        ``other`` always carries a full table, so no adopted-item order
        information is ever missing), and dropped entries keep their
        counts only when ``S`` would have tracked them.
        """
        if not isinstance(other, Algorithm5F0Sampler):
            raise TypeError(
                f"cannot merge Algorithm5F0Sampler with {type(other).__name__}"
            )
        if other._n != self._n:
            raise ValueError(f"universe sizes differ: {self._n} vs {other._n}")
        if other._s_set != self._s_set:
            raise ValueError(
                "merge requires identical random subsets S — construct the "
                "shard samplers from the same seed"
            )
        self._t += other._t
        dropped: set[int] = set()
        for item in other._first:
            if len(self._first) < self._threshold:
                self._first[item] = None
            else:
                self._overflowed = True
                if item not in self._s_set:
                    dropped.add(item)
        self._overflowed = self._overflowed or other._overflowed
        for item, count in other._counts.items():
            if item in dropped:
                continue  # untracked in the single-stream run
            self._counts[item] = self._counts.get(item, 0) + count

    def _support_candidates(self) -> tuple[str, list[int] | None]:
        """The state-determined part of :meth:`sample`: which regime
        answers and its candidate items (``("empty", None)`` for ⊥; an
        empty S-regime list means FAIL).  No randomness is consumed, so
        batched queries can resolve the regime once and vectorize the
        uniform index draws."""
        if not self._counts and not self._overflowed:
            return "empty", None
        if len(self._first) < self._threshold and not self._overflowed:
            # The support fits in T entirely: exact uniform sampling.
            return "T", list(self._first)
        # Canonical (sorted) iteration: the set's raw order leaks its
        # insertion history, which a restore does not replay — sampling
        # must pick the same item for the same coin either way.
        return "S", [s for s in sorted(self._s_set) if self._counts.get(s, 0) > 0]

    def sample(self) -> SampleResult:
        regime, candidates = self._support_candidates()
        return uniform_candidate_sample(
            self._rng,
            regime,
            candidates,
            lambda item: SampleResult.of(
                item, frequency=self._counts[item], regime=regime
            ),
        )

    def sample_many(self, k: int) -> list[SampleResult]:
        """``k`` independent samples with one regime resolution and one
        batched index draw — bitwise identical to ``k`` back-to-back
        :meth:`sample` calls (a sized ``integers`` draw consumes the
        stream exactly as the scalar draws do)."""
        regime, candidates = self._support_candidates()
        return uniform_candidate_many(
            self._rng,
            k,
            regime,
            candidates,
            lambda item: SampleResult.of(
                item, frequency=self._counts[item], regime=regime
            ),
        )


class TrulyPerfectF0Sampler(StaticLifecycleMixin):
    """Theorem 5.2: Algorithm 5 amplified to FAIL probability ≤ δ.

    The ``T`` regime is deterministic, so only the random-set part is
    replicated: ``⌈ln(1/δ)/2⌉`` independent copies drive the FAIL
    probability below ``e^{−2·copies} ≤ δ``.
    """

    def __init__(
        self,
        n: int,
        delta: float = 0.05,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        copies = max(1, math.ceil(math.log(1.0 / delta) / 2.0))
        self._copies = [Algorithm5F0Sampler(n, rng) for _ in range(copies)]

    @property
    def copies(self) -> int:
        return len(self._copies)

    @property
    def position(self) -> int:
        """Number of updates processed."""
        return self._copies[0].position

    @property
    def space_words(self) -> int:
        return sum(c.space_words for c in self._copies)

    def approx_size_bytes(self) -> int:
        return INSTANCE_BYTES + sum(c.approx_size_bytes() for c in self._copies)

    def update(self, item: int) -> None:
        for copy in self._copies:
            copy.update(item)

    def extend(self, items) -> None:
        """Delegates to :meth:`update_batch` (bitwise identical — updates
        consume no randomness)."""
        self.update_batch(as_item_array(items))

    def update_batch(self, items) -> None:
        """Vectorized chunk ingestion, bitwise identical to the scalar
        loop (updates consume no randomness).  The chunk's distinct-item
        digest is computed once and shared by all amplification copies —
        the dominant O(L log L) cost does not scale with ``copies``."""
        arr = np.asarray(items, dtype=np.int64)
        if arr.size == 0:
            return
        n = self._copies[0]._n
        if int(arr.min()) < 0 or int(arr.max()) >= n:
            raise ValueError(f"items outside universe [0, {n})")
        pairs = Algorithm5F0Sampler.chunk_pairs(arr)
        for copy in self._copies:
            copy.ingest_pairs(pairs, int(arr.size))

    def snapshot(self) -> dict:
        return {
            "kind": "truly_perfect_f0",
            "copies": {str(i): c.snapshot() for i, c in enumerate(self._copies)},
        }

    def restore(self, state: dict) -> None:
        if state.get("kind") != "truly_perfect_f0":
            raise ValueError(f"not a truly_perfect_f0 snapshot: {state.get('kind')!r}")
        copies = state["copies"]
        if len(copies) != len(self._copies):
            raise ValueError(
                f"snapshot has {len(copies)} copies, sampler has {len(self._copies)}"
            )
        for i, copy in enumerate(self._copies):
            copy.restore(copies[str(i)])
        # Construction shares one generator across copies; restore the
        # sharing so post-restore replay stays deterministic.
        shared = self._copies[0]._rng
        for copy in self._copies:
            copy._rng = shared

    def merge(self, other: "TrulyPerfectF0Sampler") -> None:
        """Copy-wise merge over a disjoint universe partition; shard
        samplers must be constructed from the same seed so each pair of
        copies shares its random subset ``S``."""
        if not isinstance(other, TrulyPerfectF0Sampler):
            raise TypeError(
                f"cannot merge TrulyPerfectF0Sampler with {type(other).__name__}"
            )
        if len(other._copies) != len(self._copies):
            raise ValueError(
                f"copy counts differ: {len(self._copies)} vs {len(other._copies)}"
            )
        for mine, theirs in zip(self._copies, other._copies):
            mine.merge(theirs)

    def sample(self) -> SampleResult:
        result = SampleResult.fail()
        for copy in self._copies:
            result = copy.sample()
            if not result.is_fail:
                return result
        return result

    def sample_many(self, k: int) -> list[SampleResult]:
        """``k`` independent samples — bitwise identical to ``k``
        back-to-back :meth:`sample` calls.  Which amplification copy
        answers is state-determined (failed copies consume no
        randomness), so the first non-failing copy resolves all ``k``
        draws in one batched pass."""
        if k < 0:
            raise ValueError(f"need a non-negative draw count, got {k}")
        for copy in self._copies:
            __, candidates = copy._support_candidates()
            if candidates is None or candidates:
                return copy.sample_many(k)
        return [SampleResult.fail(regime="S") for __ in range(k)]

    def run(self, stream) -> SampleResult:
        self.extend(stream)
        return self.sample()


class RandomOracleF0Sampler(StaticLifecycleMixin):
    """Remark 5.1: min-hash F0 sampling under a random oracle.

    The oracle table ``h : [0,n) → [0,1)`` is materialized (Ω(n) random
    words — exactly the cost the paper notes the model hides); the
    streaming state beyond it is O(1) words.  The argmin item changes only
    at the *first* occurrence of the new argmin, so its exact frequency
    can be tracked alongside.
    """

    __slots__ = ("_h", "_min_item", "_min_val", "_count", "_t")

    def __init__(self, n: int, seed: int | np.random.Generator | None = None) -> None:
        self._h = random_oracle_hash(n, seed)
        self._min_item: int | None = None
        self._min_val = math.inf
        self._count = 0
        self._t = 0

    @property
    def position(self) -> int:
        """Number of updates processed."""
        return self._t

    def approx_size_bytes(self) -> int:
        return INSTANCE_BYTES + ndarray_bytes(self._h)

    def update(self, item: int) -> None:
        self._t += 1
        val = self._h[item]
        if val < self._min_val:
            self._min_val = val
            self._min_item = item
            self._count = 0
        if item == self._min_item:
            self._count += 1

    def extend(self, items) -> None:
        """Delegates to :meth:`update_batch` (identical to the scalar
        loop — min-hash tracking consumes no randomness)."""
        self.update_batch(as_item_array(items))

    def update_batch(self, items) -> None:
        """Vectorized chunk ingestion, identical to the scalar loop.

        The argmin item over a chunk is a single vectorized reduction;
        its tracked frequency counts occurrences from its first arrival,
        which is its full chunk count when it dethrones the incumbent.
        """
        arr = np.asarray(items, dtype=np.int64)
        if arr.size == 0:
            return
        self._t += int(arr.size)
        vals = self._h[arr]
        best = int(np.argmin(vals))
        if vals[best] < self._min_val:
            self._min_val = float(vals[best])
            self._min_item = int(arr[best])
            self._count = int(np.count_nonzero(arr == self._min_item))
        elif self._min_item is not None:
            self._count += int(np.count_nonzero(arr == self._min_item))

    def snapshot(self) -> dict:
        return {
            "kind": "random_oracle_f0",
            "position": self._t,
            "min_item": -1 if self._min_item is None else self._min_item,
            "min_val": self._min_val if math.isfinite(self._min_val) else None,
            "count": self._count,
            "oracle": self._h,
        }

    def restore(self, state: dict) -> None:
        if state.get("kind") != "random_oracle_f0":
            raise ValueError(f"not a random_oracle_f0 snapshot: {state.get('kind')!r}")
        self._t = int(state["position"])
        min_item = int(state["min_item"])
        self._min_item = None if min_item < 0 else min_item
        self._min_val = math.inf if state["min_val"] is None else float(state["min_val"])
        self._count = int(state["count"])
        self._h = np.asarray(state["oracle"], dtype=np.float64)

    def merge(self, other: "RandomOracleF0Sampler") -> None:
        """Keep the globally smallest hash value.

        Exact for samplers fed *disjoint* partitions of the universe:
        all hash values are i.i.d. uniform (whether the shards share one
        oracle table or drew independent ones), so the global argmin is
        uniform over the union support.  A merged sampler should be
        treated as query-only unless the shards share one oracle table.
        """
        if not isinstance(other, RandomOracleF0Sampler):
            raise TypeError(
                f"cannot merge RandomOracleF0Sampler with {type(other).__name__}"
            )
        self._t += other._t
        if other._min_val < self._min_val:
            self._min_val = other._min_val
            self._min_item = other._min_item
            self._count = other._count

    def sample(self) -> SampleResult:
        if self._min_item is None:
            return SampleResult.empty()
        return SampleResult.of(self._min_item, frequency=self._count, regime="oracle")

    def sample_many(self, k: int) -> list[SampleResult]:
        """``k`` samples (the min-hash answer is deterministic between
        ingests, so all draws coincide — kept for API uniformity)."""
        if k < 0:
            raise ValueError(f"need a non-negative draw count, got {k}")
        return [self.sample() for __ in range(k)]

    def run(self, stream) -> SampleResult:
        self.extend(stream)
        return self.sample()


class BoundedMeasureSampler(StaticLifecycleMixin):
    """Theorems 5.4/5.5 generalized: truly perfect sampling for any
    *bounded* measure via an F0-sampler subroutine.

    Each of ``R = ⌈G_max/G(1)·ln(1/δ)⌉`` repetitions draws an F0 sample
    ``i`` (with its exact frequency) and accepts with probability
    ``G(f_i)/G_max``; conditioned on acceptance the output is exactly
    ``G(f_i)/F_G`` distributed.

    Parameters
    ----------
    measure:
        Any :class:`repro.core.measures.BoundedMeasure` (Tukey,
        Geman–McClure, ...).
    oracle:
        Use the O(log n)-space random-oracle F0 sampler (default) or the
        √n-space Algorithm 5 variant.
    """

    def __init__(
        self,
        measure: BoundedMeasure,
        n: int,
        delta: float = 0.05,
        oracle: bool = True,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        self._measure = measure
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self._rng = rng
        acceptance = measure(1.0) / measure.saturation
        if acceptance <= 0:
            raise ValueError("measure must satisfy G(1) > 0")
        self._oracle = bool(oracle)
        reps = max(1, math.ceil(math.log(1.0 / delta) / acceptance))
        if oracle:
            self._samplers: list = [RandomOracleF0Sampler(n, rng) for _ in range(reps)]
        else:
            self._samplers = [Algorithm5F0Sampler(n, rng) for _ in range(reps)]

    @property
    def measure(self) -> BoundedMeasure:
        return self._measure

    @property
    def repetitions(self) -> int:
        return len(self._samplers)

    @property
    def position(self) -> int:
        """Number of updates processed."""
        return self._samplers[0].position

    def approx_size_bytes(self) -> int:
        return (
            INSTANCE_BYTES
            + RNG_STATE_BYTES
            + sum(s.approx_size_bytes() for s in self._samplers)
        )

    def update(self, item: int) -> None:
        for s in self._samplers:
            s.update(item)

    def extend(self, items) -> None:
        """Delegates to :meth:`update_batch` (bitwise identical — F0
        subroutine updates consume no randomness)."""
        self.update_batch(as_item_array(items))

    def update_batch(self, items) -> None:
        """Vectorized chunk ingestion, bitwise identical to the scalar
        loop (F0 subroutine updates consume no randomness)."""
        arr = np.asarray(items, dtype=np.int64)
        if arr.size == 0:
            return
        for s in self._samplers:
            s.update_batch(arr)

    def snapshot(self) -> dict:
        """Checkpoint every F0 repetition plus the acceptance-coin RNG
        (the measure is construction-time configuration; its name is
        recorded so a mismatched restore fails loudly)."""
        return {
            "kind": "bounded_measure",
            "measure": self._measure.name,
            "oracle": self._oracle,
            "samplers": {str(i): s.snapshot() for i, s in enumerate(self._samplers)},
            "rng_state": self._rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        if state.get("kind") != "bounded_measure":
            raise ValueError(f"not a bounded_measure snapshot: {state.get('kind')!r}")
        if state.get("measure") != self._measure.name:
            raise ValueError(
                f"snapshot is for measure {state.get('measure')!r}, sampler "
                f"has {self._measure.name!r}"
            )
        if bool(state["oracle"]) != self._oracle:
            raise ValueError("snapshot and sampler disagree on oracle=")
        entries = state["samplers"]
        if len(entries) != len(self._samplers):
            raise ValueError(
                f"snapshot has {len(entries)} repetitions, sampler has "
                f"{len(self._samplers)}"
            )
        for i, s in enumerate(self._samplers):
            s.restore(entries[str(i)])
        rng = generator_from_state(state["rng_state"])
        self._rng = rng
        if not self._oracle:
            # Construction shares one generator across the Algorithm 5
            # copies and the acceptance coins; restore the sharing so
            # post-restore replay stays deterministic.
            for s in self._samplers:
                s._rng = rng

    def merge(self, other: "BoundedMeasureSampler") -> None:
        """Repetition-wise merge over a disjoint universe partition;
        shard samplers must be constructed from the same seed so each
        pair of F0 repetitions shares its randomness (the engine's
        shared-seed rule for the ``bounded`` kind)."""
        if not isinstance(other, BoundedMeasureSampler):
            raise TypeError(
                f"cannot merge BoundedMeasureSampler with {type(other).__name__}"
            )
        if other._measure.name != self._measure.name:
            raise ValueError(
                f"measures differ: {self._measure.name} vs {other._measure.name}"
            )
        if len(other._samplers) != len(self._samplers) or other._oracle != self._oracle:
            raise ValueError("repetition layouts differ")
        for mine, theirs in zip(self._samplers, other._samplers):
            mine.merge(theirs)

    def sample(self) -> SampleResult:
        saw_any = False
        for s in self._samplers:
            res = s.sample()
            if res.is_empty:
                return res
            if res.is_fail:
                continue
            saw_any = True
            freq = res.metadata["frequency"]
            accept_p = self._measure(freq) / self._measure.saturation
            if self._rng.random() < accept_p:
                return SampleResult.of(res.item, frequency=freq)
        if not saw_any:
            return SampleResult.fail(reason="all F0 copies failed")
        return SampleResult.fail(reason="all repetitions rejected")

    def sample_many(self, k: int) -> list[SampleResult]:
        """``k`` independent samples (sequential — the repetition scan
        consumes a data-dependent number of acceptance coins per draw,
        so the lazy scalar path is already optimal coin-wise; kept for
        API uniformity with the vectorized families)."""
        if k < 0:
            raise ValueError(f"need a non-negative draw count, got {k}")
        return [self.sample() for __ in range(k)]

    def run(self, stream) -> SampleResult:
        self.extend(stream)
        return self.sample()


class TukeySampler(BoundedMeasureSampler):
    """Theorem 5.4's named instantiation: the Tukey biweight via F0."""

    def __init__(
        self,
        n: int,
        tau: float = 5.0,
        delta: float = 0.05,
        oracle: bool = True,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(TukeyMeasure(tau), n, delta=delta, oracle=oracle, seed=seed)
