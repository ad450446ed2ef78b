"""Exponential-scaling machinery for precision sampling (Appendix B).

The core fact (Lemma B.3 / [Nag06]): if ``E_i`` are independent rate-1
exponentials, then ``argmax_i f_i/E_i^{1/p}`` equals ``i`` with probability
exactly ``f_i^p/F_p`` — because ``(f_i/E_i^{1/p})^{-p} = E_i/f_i^p`` is an
exponential with rate ``f_i^p`` and the minimum of independent
exponentials picks index ``i`` with probability proportional to its rate.

``ExponentialAssignment`` provides lazily generated, *consistent* per-key
exponentials: every reference to key ``(item, duplicate)`` sees the same
draw, which is what the paper's Nisan-PRG derandomization buys and what a
seeded counter-based PRG gives us directly: each draw is a function of
the seed and the key, regenerated on demand instead of stored.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ExponentialAssignment", "sample_p_stable"]


class ExponentialAssignment:
    """Consistent lazy table of ``1/E^{1/p}`` scalings.

    Parameters
    ----------
    p:
        The Lp order (the scaling exponent is ``1/p``).
    seed:
        Master seed; key draws are derived as ``default_rng([seed, item,
        dup])`` so the table is reproducible without storing it (the
        random-oracle substitution).
    """

    __slots__ = ("_p", "_seed", "_cache")

    def __init__(self, p: float, seed: int = 0) -> None:
        if p <= 0:
            raise ValueError("p must be positive")
        self._p = p
        self._seed = int(seed)
        self._cache: dict[tuple[int, int], float] = {}

    @property
    def p(self) -> float:
        return self._p

    def exponential(self, item: int, dup: int = 0) -> float:
        """The raw exponential ``E_{item,dup}``."""
        key = (item, dup)
        val = self._cache.get(key)
        if val is None:
            rng = np.random.default_rng([self._seed, item, dup])
            val = float(rng.exponential(1.0))
            self._cache[key] = val
        return val

    def scale(self, item: int, dup: int = 0) -> float:
        """``1/E_{item,dup}^{1/p}`` — the update weight of precision
        sampling."""
        return self.exponential(item, dup) ** (-1.0 / self._p)

    def argmax_exact(self, frequencies: np.ndarray, duplication: int = 1) -> int:
        """Oracle: the exact argmax of the scaled duplicated vector —
        an *exactly* ``f_i^p/F_p``-distributed index (used as the ground
        truth the sketch-based samplers approximate)."""
        best_val = -math.inf
        best_item = -1
        for i, f in enumerate(frequencies):
            if f == 0:
                continue
            for j in range(duplication):
                val = abs(float(f)) * self.scale(i, j)
                if val > best_val:
                    best_val = val
                    best_item = i
        if best_item < 0:
            raise ValueError("zero frequency vector has no argmax")
        return best_item


def sample_p_stable(
    p: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Standard p-stable samples via Chambers–Mallows–Stuck.

    Theorem B.10 approximates ``Σ_j 1/e_j^{1/p}`` by a p-stable draw —
    the trick behind the polylog update time of Corollary B.11.  Valid for
    ``p ∈ (0, 2)``, ``p ≠ 1``.
    """
    if not 0 < p < 2 or p == 1:
        raise ValueError("CMS sampling requires p in (0,2), p != 1")
    theta = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
    w = rng.exponential(1.0, size=size)
    num = np.sin(p * theta) / np.cos(theta) ** (1.0 / p)
    tail = (np.cos((1.0 - p) * theta) / w) ** ((1.0 - p) / p)
    return num * tail
