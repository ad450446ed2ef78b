"""A2 — ablation: smooth-histogram β (checkpoint density vs accuracy).

Algorithm 6 as the paper states it takes its normalizer from a [BO07]
smooth histogram, whose space is ``O((1/β)·log F_p)`` checkpoints and
whose estimate loosens with α.  Sweeping β exposes that trade-off (the
count-window sampler here certifies ζ from exact suffix counts instead,
see :mod:`repro.sliding_window.lp_window`).
"""

from conftest import write_table
from repro.sketches.lp_norm import exact_fp
from repro.sketches.smooth_histogram import ExactSuffixFp, SmoothHistogram
from repro.streams import zipf_stream

WINDOW = 256
STREAM = zipf_stream(n=64, m=1200, alpha=1.1, seed=2)


def _run_for_beta(beta: float) -> tuple[int, float]:
    hist = SmoothHistogram(lambda: ExactSuffixFp(2.0), beta, WINDOW)
    worst = 0.0
    max_checkpoints = 0
    for t, item in enumerate(STREAM, 1):
        hist.update(item)
        max_checkpoints = max(max_checkpoints, hist.checkpoint_count)
        if t % 200 == 0:
            truth = exact_fp(STREAM.prefix(t).window_frequencies(WINDOW), 2.0)
            if truth > 0:
                worst = max(worst, abs(hist.estimate() - truth) / truth)
    return max_checkpoints, worst


def _run_experiment():
    lines = [f"{'beta':>8} {'max checkpoints':>16} {'worst rel err':>14}"]
    rows = []
    for beta in (0.5, 0.125, 0.03125):
        checkpoints, err = _run_for_beta(beta)
        rows.append((beta, checkpoints, err))
        lines.append(f"{beta:>8.4f} {checkpoints:>16d} {err:>14.4f}")
    return lines, rows


def test_a02_histogram_beta(benchmark):
    lines, rows = benchmark.pedantic(_run_experiment, rounds=1, iterations=1)
    write_table("A02", "Ablation: smooth-histogram beta sweep", lines)
    checkpoints = [r[1] for r in rows]
    errors = [r[2] for r in rows]
    # Smaller beta: more checkpoints, tighter estimates.
    assert checkpoints[0] < checkpoints[-1]
    assert errors[-1] <= errors[0] + 1e-9
    # Every error respects its (deterministic) alpha guarantee: for Fp
    # with p=2, beta = (alpha/2)^2 => alpha = 2*sqrt(beta).
    for beta, __, err in rows:
        assert err <= 2.0 * beta**0.5 + 1e-9
