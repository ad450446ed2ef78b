"""E7 — Theorem 1.4 (sliding-window Lp, Algorithm 6): instance count
scales as ``W^{1−1/p}`` and the normalizer is certified.

Claim: on the normalizer's worst-case window, per-instance acceptance
decays like ``W^{1/p−1}``, so required instances grow with slope
``1−1/p`` in ``W``; ζ, the covering generation's exact suffix-``‖f‖∞``
bound, always dominates the window's largest increment.
"""

import numpy as np

from conftest import loglog_slope, write_table
from repro.sketches.lp_norm import exact_fp
from repro.sliding_window import SlidingWindowLpSampler
from repro.sliding_window.lp_window import sliding_window_lp_instances
from repro.streams import Stream, zipf_stream


def heavy_over_distinct_stream(window: int, p: float) -> Stream:
    """``2W`` updates: item 0 at every ``round(W^{1−1/p})``-th position, so
    about ``W^{1/p}`` times per window, and a fresh item everywhere else.

    The worst case for a ζ read off ``‖f‖∞``: one item makes ζ grow
    like ``W^{(p−1)/p}`` while the window's ``F_p`` stays ≈ ``2W``.  On
    a uniform window ``‖f‖∞`` stays near constant, and so does
    acceptance.
    """
    m = 2 * window
    step = max(1, round(window ** (1.0 - 1.0 / p)))
    items = np.arange(1, m + 1, dtype=np.int64)
    items[::step] = 0
    return Stream(items, m + 1)


def _algorithm_acceptance(p: float, window: int) -> float:
    """Exact acceptance probability on the worst-case window.

    Only ζ is data-dependent: acceptance per instance is
    ``F_p(window)/(ζ·L)`` with ``L`` the covering generation's substream
    length.  Computing it directly removes the Monte-Carlo noise that
    would otherwise need thousands of trials at large ``W``.
    """
    stream = heavy_over_distinct_stream(window, p)
    s = SlidingWindowLpSampler(p, window=window, instances=1, seed=0)
    s.extend(stream)
    gen = s._generations[0]
    substream_len = s.position - gen.bucket * window
    zeta = s.normalizer()
    fp = exact_fp(stream.window_frequencies(window), p)
    return fp / (zeta * substream_len)


def _run_experiment():
    p = 2.0
    lines = []
    ws = [64, 256, 1024, 4096]
    needed = []
    for w in ws:
        rate = _algorithm_acceptance(p, w)
        needed.append(1.0 / max(rate, 1e-6))
        lines.append(
            f"W={w:<6d} acceptance={rate:8.5f} "
            f"instances-for-const-success={needed[-1]:8.1f} "
            f"theorem-bound={sliding_window_lp_instances(p, w, 0.5):6d}"
        )
    slope = loglog_slope([float(w) for w in ws], needed)
    lines.append(f"measured slope {slope:.3f} (theory 1-1/p = {1 - 1/p:.3f})")
    return lines, slope


def test_e07_sw_lp_scaling(benchmark):
    lines, slope = benchmark.pedantic(_run_experiment, rounds=1, iterations=1)
    write_table("E07", "Sliding-window Lp instance scaling (Thm 1.4)", lines)
    benchmark.extra_info["slope"] = slope
    assert abs(slope - 0.5) < 0.3


def test_e07_normalizer_certified(benchmark):
    """ζ must dominate the worst window increment on every checked
    prefix, and equal the covering generation's exact ``‖f‖∞`` bound."""

    def check():
        p, window = 2.0, 200
        violations = 0
        for seed in range(5):
            stream = zipf_stream(n=32, m=1000, alpha=1.2, seed=seed)
            s = SlidingWindowLpSampler(p, window=window, instances=2, seed=seed)
            items = list(stream)
            for t, item in enumerate(items, 1):
                s.update(item)
                if t % 200 == 0:
                    wfreq = stream.prefix(t).window_frequencies(window)
                    linf = int(wfreq.max())
                    worst = linf**p - (linf - 1) ** p
                    covering = s._generations[0].bucket * window
                    z = int(np.bincount(items[covering:t]).max())
                    if s.normalizer() < worst - 1e-9:
                        violations += 1
                    if s.normalizer() != z**p - (z - 1) ** p:
                        violations += 1
        return violations

    assert benchmark.pedantic(check, rounds=1, iterations=1) == 0
