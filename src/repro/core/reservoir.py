"""Reservoir sampling primitives (Algorithm 1 and its fast variants).

``TimestampedReservoir`` is the paper's ``Sampler``: a single-slot uniform
reservoir over stream *positions* that also tracks how many occurrences of
the held item arrive from its sampling position onward.  ``skip_length``
implements the Li-style jump ([Li94], cited for the O(k log n) total-time
optimization): instead of flipping a coin per update, draw the next
replacement time directly from its exact distribution — the key to the
O(1) amortized update time of Theorem 3.1.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "TimestampedReservoir",
    "KReservoir",
    "skip_next_replacement",
    "skip_wakes",
]


def skip_next_replacement(t: int, rng: np.random.Generator) -> int:
    """The next stream position (> t) at which a single-slot reservoir
    replaces its sample.

    The replacement indicator at position ``r`` fires with probability
    ``1/r`` independently, so ``P(T > u | T > t) = t/u``; inverting the
    CDF gives ``T = ⌈t/U⌉`` for ``U ~ Uniform(0,1)``.  For ``t = 0`` the
    first position always replaces.  For ``t < 2^63 − 1`` the jump is
    capped at ``2^63 − 1``, so a wake time always fits the int64 a
    snapshot (and the compiled ingest loop) holds it in.
    """
    if t <= 0:
        return 1
    return _jump(t, rng.random())


#: The largest wake time an int64 holds; jumps from positions below it
#: saturate there.
_WAKE_CAP = (1 << 63) - 1
#: Above these the float path could round where the scalar rule does
#: not: ``t`` must convert to float64 exactly, and the ceiling must fit
#: an int64 with room to spare.
_EXACT_T = 1 << 53
_EXACT_JUMP = float(1 << 62)


def _jump(t: int, u: float) -> int:
    """The scalar jump rule for a position ``t > 0`` and uniform ``u``."""
    if u <= 0.0:  # pragma: no cover - measure-zero guard
        return t + 1
    nxt = max(t + 1, math.ceil(t / u))
    return min(nxt, _WAKE_CAP) if t < _WAKE_CAP else nxt


def skip_wakes(t: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` calls of :func:`skip_next_replacement` at one position
    ``0 < t < 2^63 − 1``, from one batched uniform draw, as int64.

    Bitwise identical to the scalar calls in order: ``rng.random(count)``
    hands out exactly the floats ``count`` scalar ``rng.random()`` calls
    would, and the ceiling ``⌈t/u⌉`` is one float64 division each,
    exactly as the scalar ``math.ceil(t / u)`` computes it; when ``t``
    reaches 2^53 or a jump reaches 2^62 the same uniforms go through the
    scalar rule's Python-int arithmetic (and its 2^63 − 1 cap) instead.
    """
    u = rng.random(count)
    if t < _EXACT_T and u.min(initial=1.0) > 0.0:
        ceil = np.ceil(t / u)
        if ceil.max(initial=0.0) < _EXACT_JUMP:
            return np.maximum(ceil.astype(np.int64), t + 1)
    return np.array([_jump(t, x) for x in u.tolist()], dtype=np.int64)


class TimestampedReservoir:
    """Algorithm 1 (``Sampler``): uniform position sample + forward counter.

    After processing a stream of length ``m``:

    * ``item`` is ``u_J`` for ``J`` uniform on ``[1, m]``;
    * ``count`` is the number of occurrences of ``item`` at positions
      ``≥ J`` (inclusive of the sampled occurrence, so ``count ≥ 1``);
      if ``item`` is the j-th of ``f_i`` occurrences, ``count = f_i − j + 1``.

    Uses the skip-ahead jump, so a full pass costs ``O(m)`` with O(1) work
    per update plus ``O(log m)`` replacements in expectation.
    """

    __slots__ = ("item", "count", "timestamp", "_t", "_next", "_rng")

    def __init__(self, seed: int | np.random.Generator | None = None) -> None:
        self.item: int | None = None
        self.count = 0
        self.timestamp = 0  # position at which the current item was sampled
        self._t = 0
        self._next = 1
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )

    @property
    def position(self) -> int:
        """Number of updates processed."""
        return self._t

    def update(self, item: int) -> None:
        self._t += 1
        if self._t == self._next:
            self.item = item
            self.count = 0
            self.timestamp = self._t
            self._next = skip_next_replacement(self._t, self._rng)
        if item == self.item:
            self.count += 1

    def extend(self, items) -> None:
        for item in items:
            self.update(item)


class KReservoir:
    """Classic k-slot uniform reservoir (Vitter's Algorithm R).

    Used by the F0 samplers and harness utilities; per-update cost O(k)
    worst case but O(k log(m/k)) total replacements in expectation.
    """

    __slots__ = ("_k", "_slots", "_t", "_rng")

    def __init__(self, k: int, seed: int | np.random.Generator | None = None) -> None:
        if k < 1:
            raise ValueError(f"k must be ≥ 1, got {k}")
        self._k = k
        self._slots: list[int] = []
        self._t = 0
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )

    @property
    def k(self) -> int:
        return self._k

    @property
    def position(self) -> int:
        return self._t

    def update(self, item: int) -> None:
        self._t += 1
        if len(self._slots) < self._k:
            self._slots.append(item)
            return
        j = self._rng.integers(0, self._t)
        if j < self._k:
            self._slots[j] = item

    def extend(self, items) -> None:
        for item in items:
            self.update(item)

    def sample(self) -> list[int]:
        """The current reservoir contents (uniform k-subset of positions)."""
        return list(self._slots)
