"""E21 — WindowBank: batched windowed ingest throughput + sharded
windowed exactness.

Claims: (a) the bank's planned batched ingest runs a
multi-resolution ladder {1m, 5m, 1h} at ≥ 3× the scalar per-update
loop's throughput while staying *bitwise identical* to it (per-bucket
RNG streams mean batching reorders no randomness); (b) time-windowed
serving shards exactly — K = 8 hash-partitioned window_bank shards,
merged, pass the distribution test against the true time-window L2 law.

Scale knobs (for CI smoke runs): ``WINDOW_BENCH_M`` (stream length,
default 3·10^5; the ≥3× assertion relaxes to ≥1.5× below full scale)
and ``WINDOW_BENCH_TRIALS`` (distribution-check trials, default 200).
"""

import os
import time

import numpy as np

from conftest import write_table
from repro.engine import ShardedSamplerEngine
from repro.engine.state import state_to_bytes
from repro.stats import assert_matches_distribution, lp_target
from repro.streams import with_arrivals, zipf_stream
from repro.windows import WindowBank

M = int(os.environ.get("WINDOW_BENCH_M", 3 * 10**5))
TRIALS = int(os.environ.get("WINDOW_BENCH_TRIALS", 200))
N = 10**4
LADDER = (60.0, 300.0, 3600.0)  # 1m / 5m / 1h
RATE = 1000.0  # arrivals per second
CHUNK = 1 << 16


def _throughput_experiment():
    feed = with_arrivals(
        zipf_stream(n=N, m=M, alpha=1.2, seed=0),
        process="poisson",
        rate=RATE,
        seed=1,
    )
    lines = [
        f"ladder={tuple(int(h) for h in LADDER)}s  rate={RATE:.0f}/s  "
        f"span={feed.duration:.0f}s"
    ]
    rates = {}

    t0 = time.perf_counter()
    scalar_bank = WindowBank(LADDER, p=2.0, n=N, instances=32, seed=2)
    for item, when in feed:
        scalar_bank.update(item, when)
    rates["scalar"] = M / (time.perf_counter() - t0)

    t0 = time.perf_counter()
    batched_bank = WindowBank(LADDER, p=2.0, n=N, instances=32, seed=2)
    for start in range(0, M, CHUNK):
        batched_bank.update_batch(
            feed.items[start:start + CHUNK], feed.timestamps[start:start + CHUNK]
        )
    rates["batched"] = M / (time.perf_counter() - t0)

    for mode, rate in rates.items():
        lines.append(
            f"{mode:<8s} m={M:<8d} throughput={rate / 1e6:8.2f}M updates/s"
        )
    speedup = rates["batched"] / rates["scalar"]
    lines.append(f"batched/scalar speedup: {speedup:.1f}x")
    identical = state_to_bytes(scalar_bank.snapshot()) == state_to_bytes(
        batched_bank.snapshot()
    )
    lines.append(f"batched state bitwise-identical to scalar: {identical}")
    return lines, speedup, identical


def test_e21_window_bank_throughput(benchmark):
    lines, speedup, identical = benchmark.pedantic(
        _throughput_experiment, rounds=1, iterations=1
    )
    benchmark.extra_info["speedup"] = speedup
    required = 3.0 if M >= 3 * 10**5 else 1.5
    assert identical, "batched bank ingest must reproduce the scalar state exactly"
    assert speedup >= required, (
        f"batched bank ingest only {speedup:.1f}x scalar "
        f"(need ≥ {required}x at m={M})"
    )
    write_table(
        "E21", "WindowBank: scalar vs batched multi-resolution ingest", lines
    )


def test_e21_sharded_window_exactness(benchmark):
    """K=8 window_bank shards, merged, vs the true time-window L2 law."""
    feed = with_arrivals(
        zipf_stream(n=16, m=3000, alpha=1.1, seed=11),
        process="bursty",
        rate=40.0,
        burst_rate=300.0,
        seed=12,
    )
    horizon = 10.0
    target = lp_target(feed.window_frequencies(horizon), 2.0)

    def run(seed):
        engine = ShardedSamplerEngine(
            {
                "kind": "window_bank",
                "resolutions": [horizon, 4 * horizon],
                "p": 2.0,
                "n": 16,
                "instances": 150,
                "f0_seed": 77,
            },
            shards=8,
            seed=seed,
        )
        engine.ingest(feed)
        return engine.sample(horizon=horizon)

    def check():
        return assert_matches_distribution(run, target, trials=TRIALS)

    report = benchmark.pedantic(check, rounds=1, iterations=1)
    write_table(
        "E21b",
        "Sharded windowed exactness (window_bank, K=8, p=2)",
        [report.row("sharded window L2 K=8")],
    )
