"""Tests of the benchmark itself, on schedules small enough to run in
seconds:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "serve_proc_wide": dict(rounds=2, writes=3, write_items=512),
    "serve_windows": dict(rounds=2, queries=6, write_items=256, preload_rounds=1),
}
#: Per-layer metrics that are functions of the seed alone.  The rest are
#: times, or counts that depend on how worker batches happen to coalesce.
DETERMINISTIC = (
    "core.heap_events_per_kitem",
    "engine.fold_scratch",
    "engine.fold_hit",
    "windows.reclaimed_bytes",
    "executor.views_copied",
    "executor.fail_draws",
)


def tiny(name: str):
    workload = workloads.WORKLOADS[name]
    return type(workload)(replace(workload.schedule, **TINY[name]))


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_repeats_state_and_counts(name):
    workload = tiny(name)
    first, second = (
        run.run_epoch(workload, workload.inputs(5), traced=True) for __ in range(2)
    )
    assert first.failed == second.failed == 0
    assert first.attempted == second.attempted
    assert first.items == second.items > 0
    assert first.state_bytes == second.state_bytes > 0
    assert first.final == second.final
    for metric in DETERMINISTIC:
        assert first.layers[metric] == second.layers[metric], metric
    assert first.layers["trace.absent_entry_points"] == 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_check_passes_and_a_perturbed_reference_trips_it(name):
    workload = tiny(name)
    inputs = workload.inputs(3)
    epoch = run.run_epoch(workload, inputs)
    assert run.states_match(workload.reference_state(inputs), [epoch])
    # Drop the last item of the first write (and its timestamp).
    perturbed = {
        key: [value[0][:-1], *value[1:]] if isinstance(value, list) else value
        for key, value in inputs.items()
    }
    assert not run.states_match(workload.reference_state(perturbed), [epoch])


def test_percentiles_match_numpy(monkeypatch):
    monkeypatch.setattr(run, "MIN_ROUNDS", 4)
    rng = np.random.default_rng(0)
    epochs = [
        run.Epoch(
            setup_s=setup,
            setup_steal_ticks=setup_steal,
            rounds=[
                run.Round(
                    wall_s=0.5 + i,
                    items=100,
                    steal_ticks=i % 3,
                    write_s=list(rng.exponential(1e-3, 15)),
                    query_s=list(rng.exponential(1e-4, 12)),
                    visible_s=list(rng.exponential(1e-2, 1)),
                )
                for i in range(6)
            ],
            state_bytes=42,
        )
        for setup, setup_steal in ((0.3, 0), (0.1, 2), (0.2, 0), (0.4, 0))
    ]
    got = run.end_to_end(epochs)
    every = [r for e in epochs for r in e.rounds]
    kept = [r for r in every if r.steal_ticks == 0]  # 8 rounds, ≥ MIN_ROUNDS
    for metric, rounds, field, q, scale in (
        ("write_p50_us", every, "write_s", 50, 1e6),
        ("write_p90_us", every, "write_s", 90, 1e6),
        ("query_p50_us", every, "query_s", 50, 1e6),
        ("query_p90_us", every, "query_s", 90, 1e6),
        ("visible_p50_ms", kept, "visible_s", 50, 1e3),
        ("visible_p90_ms", kept, "visible_s", 90, 1e3),
    ):
        pooled = [v for r in rounds for v in getattr(r, field)]
        assert got[metric] == pytest.approx(np.percentile(pooled, q) * scale, rel=1e-12)
    assert got["setup_s"] == pytest.approx(0.3)  # the stolen 0.1 s set-up is out
    assert got["ingest_items_per_s"] == pytest.approx(800 / (4 * (0.5 + 3.5)))
    assert got["state_bytes"] == 42


def test_unstolen_falls_back_to_the_least_stolen():
    steal = [3, 0, 2, 0, 1, 5]
    assert run.unstolen(steal, lambda t: t, 2) == [0, 0]
    assert run.unstolen(steal, lambda t: t, 4) == [0, 0, 1, 2]


def test_missing_entry_point_is_absent_and_originals_come_back():
    from repro.engine.shard import ShardedSamplerEngine

    original = ShardedSamplerEngine.__dict__["ingest"]
    table = (
        ("engine.ingest", "repro.engine.shard", "ShardedSamplerEngine.ingest"),
        ("gone", "repro.engine.shard", "ShardedSamplerEngine.no_such_method"),
        ("gone", "repro.no_such_module", "thing"),
    )
    with layers.LayerClock(table) as clock:
        assert ShardedSamplerEngine.__dict__["ingest"] is not original
        engine = ShardedSamplerEngine(workloads.G_CONFIG, shards=2, seed=1)
        engine.ingest(np.arange(100))
    assert ShardedSamplerEngine.__dict__["ingest"] is original
    assert len(clock.absent) == 2
    assert len(clock.call_seconds("engine.ingest")) == 1
    assert clock.self_seconds("gone") == 0.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
