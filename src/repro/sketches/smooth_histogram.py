"""The Braverman–Ostrovsky smooth histogram framework ([BO07]; paper
Definitions A.1–A.3, Theorems A.4/A.5, Figure 1).

A *smooth* function admits sliding-window estimation by maintaining a
logarithmic number of suffix estimators ("checkpoints"): once a suffix's
value is within ``(1 − β)`` of an enclosing suffix it stays within
``(1 − α)`` forever, so middle checkpoints can be discarded.  The active
window is always sandwiched between two adjacent checkpoints (the paper's
Figure 1), and the younger one's estimate is a ``(1 ± α)``-approximation.

The histogram is generic over the per-suffix estimator: any object exposing
``update(item)`` and ``estimate() -> float``.  ``ExactSuffixFp`` (linear
space, exact) and :class:`repro.sketches.lp_norm.FpEstimator` (sublinear,
randomized) are the two stock choices.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.lifecycle.memory import INSTANCE_BYTES, mapping_bytes

__all__ = [
    "fp_smoothness",
    "ExactSuffixFp",
    "SmoothHistogram",
    "SlidingWindowFpEstimate",
    "SlidingWindowCountEstimate",
]


def fp_smoothness(p: float, alpha: float) -> tuple[float, float]:
    """The ``(α, β)`` smoothness of ``F_p`` (Theorem A.4).

    For ``p ≥ 1``, ``F_p`` is ``(α, α^p/p^p)``-smooth; for ``p < 1`` it is
    ``(α, α)``-smooth.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    if p <= 0:
        raise ValueError("p must be positive")
    if p < 1:
        return alpha, alpha
    return alpha, (alpha / p) ** p


class ExactSuffixFp:
    """Exact ``F_p`` of a suffix — the simplest smooth-histogram estimator.

    Linear space in the suffix support; used when the experiment's focus is
    the histogram machinery rather than the inner sketch.
    """

    __slots__ = ("_p", "_freq", "_fp")

    def __init__(self, p: float) -> None:
        self._p = p
        self._freq: dict[int, int] = {}
        self._fp = 0.0

    def update(self, item: int) -> None:
        c = self._freq.get(item, 0)
        self._freq[item] = c + 1
        self._fp += (c + 1) ** self._p - c**self._p

    def estimate(self) -> float:
        return self._fp

    def approx_size_bytes(self) -> int:
        return INSTANCE_BYTES + mapping_bytes(len(self._freq))


class _Checkpoint:
    __slots__ = ("start", "estimator")

    def __init__(self, start: int, estimator) -> None:
        self.start = start
        self.estimator = estimator


class SmoothHistogram:
    """Maintain ``(1 ± α)`` sliding-window estimates of a smooth function.

    Parameters
    ----------
    estimator_factory:
        Zero-argument callable producing a fresh suffix estimator.
    beta:
        The smoothness parameter β controlling checkpoint density; the
        number of live checkpoints is ``O((1/β) log(max value))``.
    window:
        Window size ``W``.
    """

    __slots__ = ("_factory", "_beta", "_window", "_checkpoints", "_t")

    def __init__(
        self,
        estimator_factory: Callable[[], object],
        beta: float,
        window: int,
    ) -> None:
        if not 0 < beta < 1:
            raise ValueError("beta must be in (0, 1)")
        if window <= 0:
            raise ValueError("window must be positive")
        self._factory = estimator_factory
        self._beta = beta
        self._window = window
        self._checkpoints: list[_Checkpoint] = []
        self._t = 0

    @property
    def window(self) -> int:
        return self._window

    @property
    def time(self) -> int:
        return self._t

    @property
    def checkpoint_count(self) -> int:
        return len(self._checkpoints)

    def checkpoint_starts(self) -> list[int]:
        """Timestamps (start indices) of the live checkpoints."""
        return [c.start for c in self._checkpoints]

    def approx_size_bytes(self) -> int:
        """Approximate resident bytes across the live checkpoints
        (inner estimators without their own accounting count as one
        instance shell each)."""
        total = INSTANCE_BYTES
        for cp in self._checkpoints:
            sizer = getattr(cp.estimator, "approx_size_bytes", None)
            total += INSTANCE_BYTES + (sizer() if callable(sizer) else INSTANCE_BYTES)
        return total

    def update(self, item: int) -> None:
        """Process one stream update."""
        self._t += 1
        # A new checkpoint starts at every update (Definition A.2); pruning
        # keeps only logarithmically many alive.
        self._checkpoints.append(_Checkpoint(self._t, self._factory()))
        for cp in self._checkpoints:
            cp.estimator.update(item)
        self._prune()
        self._expire()

    def _prune(self) -> None:
        """Enforce Definition A.2 (3): among any x_i < x_{i+1} < x_{i+2},
        drop x_{i+1} when g(x_{i+2}) ≥ (1 − β/2)·g(x_i)."""
        kept = self._checkpoints
        changed = True
        threshold = 1.0 - self._beta / 2.0
        while changed:
            changed = False
            i = 0
            while i + 2 < len(kept):
                outer = kept[i].estimator.estimate()
                inner = kept[i + 2].estimator.estimate()
                if inner >= threshold * outer:
                    del kept[i + 1]
                    changed = True
                else:
                    i += 1

    def _expire(self) -> None:
        """Drop all but one checkpoint that precedes the active window."""
        window_start = self._t - self._window + 1
        while (
            len(self._checkpoints) >= 2
            and self._checkpoints[1].start <= window_start
        ):
            self._checkpoints.pop(0)

    def estimate(self) -> float:
        """Estimate of the function over the active window.

        Returns the younger of the two sandwiching checkpoints (the
        paper's ``x_2``), falling back to ``x_1`` when the stream is still
        shorter than the window.
        """
        if not self._checkpoints:
            return 0.0
        window_start = self._t - self._window + 1
        for cp in self._checkpoints:
            if cp.start >= window_start:
                return cp.estimator.estimate()
        return self._checkpoints[-1].estimator.estimate()

    def sandwich(self) -> tuple[float, float]:
        """The (older, younger) sandwiching estimates around the window.

        The true window value lies between them for monotone functions;
        the pair width certifies the approximation quality (Figure 1).
        """
        if not self._checkpoints:
            return 0.0, 0.0
        window_start = self._t - self._window + 1
        older = self._checkpoints[0].estimator.estimate()
        for cp in self._checkpoints:
            if cp.start >= window_start:
                return older, cp.estimator.estimate()
            older = cp.estimator.estimate()
        return older, self._checkpoints[-1].estimator.estimate()


class SlidingWindowFpEstimate:
    """Theorem A.5 substitute: an estimate ``F`` with ``F ≤ L_p ≤ 2F``.

    Wraps a smooth histogram over exact suffix ``F_p`` with ``β`` chosen so
    the histogram's multiplicative error is at most 2; the returned value is
    the histogram estimate deflated by the guaranteed over-approximation
    factor, yielding the one-sided guarantee Algorithm 6 consumes.
    """

    __slots__ = ("_hist", "_p")

    def __init__(self, p: float, window: int, alpha: float = 0.5) -> None:
        __, beta = fp_smoothness(p, alpha)
        self._p = p
        self._hist = SmoothHistogram(lambda: ExactSuffixFp(p), beta, window)

    def update(self, item: int) -> None:
        self._hist.update(item)

    def lp_lower_bound(self) -> float:
        """A value ``F`` with ``F ≤ ‖f_window‖_p ≤ 2F`` (when the window
        is full; early in the stream the histogram covers a superset)."""
        fp_over = self._hist.estimate()  # within (1±α) of window Fp
        lp_over = max(fp_over, 0.0) ** (1.0 / self._p)
        # Estimate can exceed the truth by (1+α)^{1/p} ≤ 2^{1/p} ≤ 2;
        # deflate so the result is a certified lower bound with ratio ≤ 2.
        return lp_over / 2.0 ** (1.0 / self._p)

    @property
    def checkpoint_count(self) -> int:
        return self._hist.checkpoint_count


class SlidingWindowCountEstimate:
    """Smooth-histogram estimate of the window's update count (``F_1``).

    ``F_1`` of the active window is ``min(t, W)`` and is known exactly, so
    this class mainly exists to exercise/validate the histogram on the one
    function whose truth is trivially available.
    """

    __slots__ = ("_hist", "_t", "_window")

    def __init__(self, window: int, beta: float = 0.25) -> None:
        self._hist = SmoothHistogram(lambda: ExactSuffixFp(1.0), beta, window)
        self._t = 0
        self._window = window

    def update(self, item: int) -> None:
        self._t += 1
        self._hist.update(item)

    def estimate(self) -> float:
        return self._hist.estimate()

    def exact(self) -> int:
        return min(self._t, self._window)

    @property
    def checkpoint_count(self) -> int:
        return self._hist.checkpoint_count


def expected_checkpoints(beta: float, max_value: float) -> int:
    """The ``O((1/β)·log(max value))`` checkpoint bound, for assertions."""
    if max_value <= 1:
        return 2
    return math.ceil(2.0 / beta * math.log2(max_value)) + 2
