"""Algorithm 6 — truly perfect Lp sampling on sliding windows
(Theorem 1.4, sliding-window part).

Structure: the two-generation checkpoint scheme of Algorithm 4, an Lp
measure, and a *certified* normalizer ζ bounding every window increment.
The paper's Algorithm 6 certifies ζ with a [BO07] smooth histogram; any
deterministic upper bound on the window's ``‖f‖∞`` serves the proof as
well.  Here ζ is ``z^p − (z−1)^p`` at the covering generation's exact
suffix-``‖f‖∞`` ``z``: the covering substream contains the window, so
``z`` dominates every window frequency, and ζ is a function of the
stream alone — the sampler stays truly perfect, and the bound's
slack (a ``z`` counted over up to ``2W`` updates) moves only the FAIL
rate.  The scheme is :class:`repro.windows.TimeWindowLpSampler`'s on the
arrival clock.
"""

from __future__ import annotations

import numpy as np

from repro.sliding_window.arrival_clock import _ArrivalClock
from repro.windows.time_window import (
    TimeWindowLpSampler,
    lp_window_instances as sliding_window_lp_instances,
)

__all__ = ["SlidingWindowLpSampler", "sliding_window_lp_instances"]


class SlidingWindowLpSampler(_ArrivalClock, TimeWindowLpSampler):
    """Truly perfect Lp sampler over the last ``window`` updates, ``p ≥ 1``.

    Parameters
    ----------
    p:
        Moment order ≥ 1 (``p = 1`` needs no normalizer and accepts
        always).
    window:
        Window size ``W``.
    instances:
        Instances per generation; defaults to Theorem 1.4's
        ``O(W^{1−1/p}·log(1/δ))`` (:func:`sliding_window_lp_instances`).
    """

    _KIND = "sw_lp"

    def __init__(
        self,
        p: float,
        window: int,
        instances: int | None = None,
        delta: float = 0.05,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(
            p, window, instances, delta, expected_window_count=window,
            seed=seed,
        )
