"""Algorithm 6 — truly perfect Lp sampling on sliding windows
(Theorem 1.4, sliding-window part).

Structure: the two-generation checkpoint scheme of Algorithm 4 (on the
arrival clock, see :mod:`repro.sliding_window.arrival_clock`), an Lp
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

import numpy as np

from repro.sketches.smooth_histogram import SmoothHistogram, ExactSuffixFp, fp_smoothness
from repro.sliding_window.arrival_clock import _ArrivalClock
from repro.windows.chunking import parsing
from repro.windows.time_window import (
    _TimeWindowPoolSampler,
    lp_window_instances as sliding_window_lp_instances,
)

__all__ = ["SlidingWindowLpSampler", "sliding_window_lp_instances"]


class SlidingWindowLpSampler(_ArrivalClock, _TimeWindowPoolSampler):
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

    _KIND = "sw_lp"

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
        if instances is None:
            instances = sliding_window_lp_instances(p, window, delta)
        super().__init__(window, instances, delta, seed)
        self._p = float(p)
        self._alpha = float(alpha)
        self._hist = self._new_hist()

    def _new_hist(self) -> SmoothHistogram | None:
        """An empty smooth histogram over the window (``None`` for
        ``p ≤ 1``, which needs no normalizer)."""
        if self._p <= 1:
            return None
        p = self._p
        __, beta = fp_smoothness(p, self._alpha)
        return SmoothHistogram(lambda: ExactSuffixFp(p), beta, self.window)

    @property
    def p(self) -> float:
        return self._p

    @property
    def histogram_checkpoints(self) -> int:
        return self._hist.checkpoint_count if self._hist is not None else 0

    def approx_size_bytes(self) -> int:
        hist_bytes = (
            self._hist.approx_size_bytes() if self._hist is not None else 0
        )
        return super().approx_size_bytes() + hist_bytes

    def update(self, item: int) -> None:
        super().update(item)
        if self._hist is not None:
            self._hist.update(item)

    def _ingest(self, arr: np.ndarray, ts: np.ndarray) -> None:
        """Pools batched; the smooth histogram's checkpoint schedule is
        inherently per-update, so it replays scalar."""
        super()._ingest(arr, ts)
        if self._hist is not None:
            for item in arr.tolist():
                self._hist.update(item)

    def _config_fingerprint(self) -> dict:
        return {**super()._config_fingerprint(), "p": self._p, "alpha": self._alpha}

    def snapshot(self) -> dict:
        state = super().snapshot()
        if self._hist is not None:
            state["hist"] = self._hist.snapshot()
        return state

    def _parse(self, state: dict) -> dict:
        """The pool sampler's fields plus a histogram restored off to the
        side, so :meth:`restore` stays all-or-nothing."""
        fields = super()._parse(state)
        hist = self._new_hist()
        if hist is None:
            if "hist" in state:
                raise ValueError("snapshot carries a histogram but p ≤ 1 needs none")
            return fields
        with parsing(self._KIND):
            hist.restore(state["hist"])
        return {**fields, "_hist": hist}

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

    def _zeta(self, gen) -> float:
        return self.normalizer()

    def _weight(self, count: int) -> float:
        return count**self._p - (count - 1) ** self._p
