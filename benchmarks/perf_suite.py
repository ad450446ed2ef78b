#!/usr/bin/env python
"""The canonical query-fast-path + serving perf suite (E23).

Measures, on one process with fixed seeds:

* **ingest throughput** — items/second through the sharded engine's
  batched ingest path, per shard count;
* **query latency** — p50/p99 of ``ShardedSamplerEngine.sample()`` under
  mixed read/write workloads at read:write ratios 1:100, 1:1, and 100:1
  for K ∈ {1, 8, 32}, through the merged-view cache (``cached``:
  ``engine.sample()``) vs. the fold-per-query reference path (``fresh``:
  ``engine.compact()`` then ``engine.merged_sampler().sample()``);
* **sample_many scaling** — one ``sample_many(k)`` call vs. ``k``
  back-to-back ``sample()`` calls on the cached engine;
* **served scenario (PR 5)** — the same mixed workload through
  :class:`repro.serving.SamplerService` (4 ingest workers, 8 concurrent
  paced query clients, K=8) vs. the single-threaded engine loop that
  interleaves the identical write batches and cached-fold queries:
  served query p50/p99 off the published fold, and aggregate ingest
  throughput while serving.
* **obs overhead (PR 6)** — the identical served workload with the
  metrics registry enabled vs. disabled (``metrics=False``), best of
  several reps per mode: served ingest throughput and query p50 with
  metrics on must stay within 10% of the no-op configuration.
* **audit overhead (PR 7)** — the identical served workload with the
  statistical audit plane on (shadow truth fed per accepted batch +
  periodic audit ticks drawing dedicated ``sample_many`` batches) vs.
  off, metrics enabled in both: audited ingest throughput must stay
  ≥0.9x and query p50 ≤1.10x the audit-off run.
* **parallel ingest scaling (PR 8)** — identical write workloads
  through the thread-mode and process-mode ingest planes at 1, 2, and
  4 workers (K=8, best of ``PARALLEL_REPS``, steady-state: worker
  startup excluded).
* **ingest kernel** — the one batched ingest route over the grid
  K ∈ {1, 8, 32} × call size ∈ {2^11, 2^16, 2^20}: the same stream fed
  as successive ``ingest`` calls of that size, cells interleaved across
  ``INGEST_KERNEL_REPS`` repetitions, reported as median and quartiles
  of items/s plus the per-call p99 latency.
* **fold** — ``merged()`` of every shard and one ``spawn_query_view``
  of the fold, for a G engine at K ∈ {8, 32} and a window bank at K=8,
  after one fixed ingest; cells interleaved across ``FOLD_REPS``
  repetitions, median and quartiles in µs.  The G K=32 and bank K=8
  fold medians are gated (below); the views are report-only.
* **state** — report-only: ``save_state`` and ``load_state`` of one G
  pool (R=64) per shard of an 8-shard engine, and one process-plane
  ``collect`` (8 shards, 2 worker processes, every shard dirtied by a
  2048-item submit and flushed before the clock starts), the
  perfbench ``serve_proc_wide`` shape; the three cells interleave
  across ``STATE_REPS`` repetitions, median and quartiles in µs.
* **window** — report-only: a window bank of the perfbench
  ``serve_windows`` shape (R=64 Huber rungs at 60/300/3600 s, one
  shard's 1024-item share of an 8192-item submit) split into the cost
  of a generation's birth and steady ingest into live generations.  A
  *steady* chunk stays inside one bucket of every rung; a *crossing*
  chunk holds the same items, its first one before a boundary of all
  three rungs and the rest after it, so it feeds the same items to two
  generations per rung and births three.  Birth µs is the paired
  difference over three; both cells start from one restored state,
  interleave across ``WINDOW_REPS`` repetitions, median and quartiles.
* **telemetry overhead (PR 10)** — the identical process-mode ingest
  workload with the cross-process worker telemetry plane on
  (``worker_telemetry=True``: worker-side registries, span shipping,
  snapshot merging) vs. off, metrics enabled in both: telemetry-on
  ingest must stay ≥0.95x the telemetry-off rate.

The bitwise checks this suite's scenarios stand on are tier-1 tests at
this suite's ``CONFIG``, K=8 and seed 7: thread- and process-mode
serialized serving answer exactly as direct engine calls
(``test_perf_suite_config_serialized_equals_direct`` in
``tests/test_serving.py`` and ``tests/test_process_serving.py``, run
with telemetry default-on), and batched ingest lands the scalar loop's
and item-at-a-time ingest's state
(``test_perf_suite_config_batched_equals_scalar`` in
``tests/test_ingest_kernel.py``).

Results land in machine-readable JSON (default: ``BENCH_E23.json`` at
the repo root) so the bench trajectory is tracked from PR 4 forward.

The suite *gates* itself (exit code 1 on failure):

* cached-query p50 must not regress beyond 2x the fresh-fold baseline
  recorded in the same run, for every workload;
* the read-heavy (100:1, K=8) workload must show a ≥10x cached p50 win;
* ``sample_many(1000)`` must be ≥5x faster than 1000 ``sample()`` calls;
* served query p50 must stay within 3x the single-threaded cached-fold
  p50 of the same workload, while the served path answers at least as
  many queries as the baseline did;
* served aggregate ingest throughput must be ≥2x the single-threaded
  batched path serving that workload (the engine loop pays a refold per
  query burst; the service amortizes folds across its refresh cadence —
  that amortization, not thread parallelism, is what the gate pins, so
  it holds on a single-core runner too);
* metrics-enabled served ingest throughput must be ≥0.9x and query p50
  ≤1.10x the metrics-disabled run (instrumentation must stay cheap);
* audit-enabled served ingest throughput must be ≥0.9x and query p50
  ≤1.10x the audit-off run (self-verification must stay cheap);
* telemetry-enabled process-mode ingest throughput must be ≥0.95x the
  telemetry-off run (worker metric/span shipping piggybacks on the
  pull cadence — it must not tax the ingest path);
* ingest-kernel K=8 median throughput must clear a per-call-size
  absolute floor (3.2 / 15.1 / 13.9 M items/s at 2^11 / 2^16 / 2^20,
  the K=8 medians the K8/K1 ratio gate was red at), and the K=1 median
  at 2^20 must clear its own floor.  The K8/K1 ratio is still reported:
  with the compiled pool loop, K=8 spends most of a 2^20 call in the
  shard split and gathers, not in the kernel;
* parallel ingest gates are hardware-adaptive: every mode/worker-count
  combination must clear an absolute throughput floor and adding
  workers must never collapse (≥0.85x the previous step while within
  the host's cores; oversubscribed steps — pure time-slicing overhead —
  only guard against cliffs at ≥0.40x); the strict gates —
  process ≥1.5x thread at 4 workers, ingest *increasing* with worker
  count — arm only where the host has the cores to express them
  (≥4 and ≥2 respectively) and are recorded as skipped-for-cores in
  the report otherwise, so a pass on a small box is visibly weaker;
* the median fold of a G engine at K=32 and of a window bank at K=8
  must each take at most 1 ms (the median of the alternated
  repetitions; the line prints it with its quartiles).

Run ``--smoke`` in CI for a reduced-scale pass with the same gates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine import ShardedSamplerEngine, build_sampler, merged  # noqa: E402
from repro.engine.state import load_state, save_state  # noqa: E402
from repro.lifecycle import spawn_query_view  # noqa: E402
from repro.serving import SamplerService  # noqa: E402
from repro.streams.generators import zipf_stream  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent

CONFIG = {"kind": "g", "measure": {"name": "huber"}, "instances": 64}
RATIOS = {"1:100": (1, 100), "1:1": (1, 1), "100:1": (100, 1)}
SHARD_COUNTS = (1, 8, 32)

#: Gate thresholds (see module docstring).
MAX_CACHED_REGRESSION = 2.0
MIN_READ_HEAVY_SPEEDUP = 10.0
MIN_SAMPLE_MANY_SPEEDUP = 5.0
MAX_SERVED_P50_RATIO = 3.0
MIN_SERVED_INGEST_SPEEDUP = 2.0
MIN_OBS_THROUGHPUT_RATIO = 0.9
MAX_OBS_P50_RATIO = 1.10
MIN_AUDIT_THROUGHPUT_RATIO = 0.9
MAX_AUDIT_P50_RATIO = 1.10
#: Cross-process telemetry (PR 10): process-mode ingest with the worker
#: telemetry plane on must hold >= this fraction of the telemetry-off
#: rate — shipping snapshots on pull replies is piggyback, not a tax.
MIN_TELEMETRY_THROUGHPUT_RATIO = 0.95
SERVED_WORKERS = 4
SERVED_CLIENTS = 8
SERVED_SHARDS = 8
OBS_REPS = 3
#: Parallel-ingest scaling gates.  The strict "process beats threads"
#: comparison only means something when the host can actually run the
#: workers in parallel, so it arms at >= 4 cores; below that the suite
#: gates monotonicity-with-tolerance within the host's cores, a cliff
#: guard on oversubscribed steps (extra workers beyond the cores are
#: pure coordination overhead — a 1-core box measures ~0.55x per
#: doubling for four processes time-slicing one CPU, so the guard only
#: flags collapse, e.g. a stalled pipe or a deadlocked worker), plus an
#: absolute throughput floor, and records the strict gates as
#: skipped-for-cores in the report.
PARALLEL_WORKER_STEPS = (1, 2, 4)
PARALLEL_REPS = 2
MIN_PROCESS_VS_THREAD_AT_4 = 1.5
PARALLEL_TOL_IN_CORES = 0.85
PARALLEL_TOL_OVERSUBSCRIBED = 0.40
MIN_PARALLEL_INGEST_FLOOR = 20_000  # items/s, any mode, any worker count
#: Ingest-kernel grid: every shard count × call size, from 2K-item
#: submits (the serving regime) to 1M-item batches.  Every K=8 cell's
#: median must clear its absolute floor, and the K=1 median at the
#: largest call size must clear its own.
INGEST_KERNEL_CHUNKS = (1 << 11, 1 << 16, 1 << 20)
INGEST_KERNEL_CHUNK = INGEST_KERNEL_CHUNKS[-1]
INGEST_KERNEL_REPS = 5
MIN_INGEST_KERNEL_K8_FLOORS = {  # items/s by call size
    1 << 11: 3_200_000,
    1 << 16: 15_100_000,
    1 << 20: 13_900_000,
}
MIN_INGEST_KERNEL_K1_FLOOR = 2_000_000  # items/s
#: Fold cells: a G engine at K=8 and K=32 and a window bank (the
#: perfbench ``serve_windows`` rung ladder) at K=8, each timed after one
#: fixed ingest.  The cells in ``MAX_FOLD_US`` gate their median fold.
BANK_CONFIG = {
    "kind": "window_bank",
    "measure": {"name": "huber"},
    "instances": 64,
    "resolutions": [60.0, 300.0, 3600.0],
}
FOLD_CELLS = ((CONFIG, 8), (CONFIG, 32), (BANK_CONFIG, 8))
MAX_FOLD_US = {("g", 32): 1000.0, ("window_bank", 8): 1000.0}
FOLD_REPS = 15
FOLD_ITEMS = 200_000
#: Event time the bank's ingest spans, in seconds: past the longest rung,
#: so every rung holds two generations.
FOLD_BANK_SPAN_S = 7200.0
#: State cells (report-only): the perfbench ``serve_proc_wide`` shape.
STATE_SHARDS = 8
STATE_WORKERS = 2
STATE_SUBMIT = 2048
STATE_REPS = 15
#: Window cells (report-only): one shard of the perfbench
#: ``serve_windows`` bank.  The warm state holds two generations per
#: rung and ends ``WINDOW_BOUNDARY_S - 100`` s in, before a boundary of
#: every rung.
WINDOW_REPS = 15
WINDOW_CHUNK = 1024
WINDOW_BOUNDARY_S = 4 * 3600.0


def _percentiles(latencies_ns: list[int]) -> dict:
    lat_us = sorted(ns / 1e3 for ns in latencies_ns)
    return {
        "p50_us": statistics.median(lat_us),
        "p99_us": lat_us[min(len(lat_us) - 1, int(0.99 * len(lat_us)))],
        "queries": len(lat_us),
    }


def _build(shards: int, *, seed: int = 7) -> ShardedSamplerEngine:
    return ShardedSamplerEngine(CONFIG, shards=shards, seed=seed)


def _sample_fresh(engine: ShardedSamplerEngine):
    """The fold-per-query reference: the query-time compaction pass,
    then a from-scratch fold and one draw on it."""
    engine.compact()
    return engine.merged_sampler().sample()


def bench_ingest(items: np.ndarray, chunk: int) -> list[dict]:
    out = []
    for shards in SHARD_COUNTS:
        engine = _build(shards)
        start = time.perf_counter()
        engine.ingest(items, chunk_size=chunk)
        elapsed = time.perf_counter() - start
        out.append(
            {
                "shards": shards,
                "items": int(items.size),
                "seconds": elapsed,
                "items_per_sec": items.size / elapsed,
            }
        )
    return out


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def bench_ingest_kernel(items: np.ndarray) -> dict:
    """The ingest-kernel grid: the stream fed as successive ``ingest``
    calls of each call size at each shard count.  Cells run in an order
    that reverses every repetition, so slow drift in the host hits every
    cell alike; each cell reports the median and quartiles of items/s
    over repetitions and the p99 of every call's latency."""
    cells = [(k, c) for k in SHARD_COUNTS for c in INGEST_KERNEL_CHUNKS]
    rates: dict[tuple[int, int], list[float]] = {cell: [] for cell in cells}
    calls: dict[tuple[int, int], list[float]] = {cell: [] for cell in cells}
    for rep in range(INGEST_KERNEL_REPS):
        for shards, chunk in cells if rep % 2 == 0 else cells[::-1]:
            engine = _build(shards)
            lat = calls[(shards, chunk)]
            t0 = time.perf_counter()
            for start in range(0, items.size, chunk):
                c0 = time.perf_counter()
                engine.ingest(items[start:start + chunk], chunk_size=chunk)
                lat.append(time.perf_counter() - c0)
            rates[(shards, chunk)].append(items.size / (time.perf_counter() - t0))
    rows = []
    for shards, chunk in cells:
        lat = sorted(calls[(shards, chunk)])
        rows.append(
            {
                "shards": shards,
                "chunk_size": chunk,
                "items": int(items.size),
                "reps": INGEST_KERNEL_REPS,
                "items_per_sec": _quartiles(rates[(shards, chunk)]),
                "call_p99_us": 1e6 * lat[min(len(lat) - 1, int(0.99 * len(lat)))],
            }
        )
    top = {
        row["shards"]: row["items_per_sec"]["median"]
        for row in rows
        if row["chunk_size"] == INGEST_KERNEL_CHUNK
    }
    return {
        "chunk_size": INGEST_KERNEL_CHUNK,
        "runs": rows,
        "k8_over_k1": top[8] / top[1],
        "k32_over_k1": top[32] / top[1],
    }


def bench_fold(items: np.ndarray) -> dict:
    """Fold and query-view cost per cell: ``merged()`` of every shard,
    then one ``spawn_query_view`` of that fold, after one fixed ingest
    of ``items`` (the bank's spread evenly over ``FOLD_BANK_SPAN_S``).
    Cells run in an order that reverses every repetition; each reports
    the median and quartiles of both times in µs (``MAX_FOLD_US`` gates
    the fold medians)."""
    engines = []
    for config, shards in FOLD_CELLS:
        engine = ShardedSamplerEngine(config, shards=shards, seed=7)
        if config is BANK_CONFIG:
            ts = np.linspace(0.0, FOLD_BANK_SPAN_S, items.size)
            engine.ingest(items, timestamps=ts)
        else:
            engine.ingest(items)
        engines.append(engine)
    order = list(range(len(FOLD_CELLS)))
    fold_us: list[list[float]] = [[] for __ in order]
    view_us: list[list[float]] = [[] for __ in order]
    for rep in range(FOLD_REPS):
        for i in order if rep % 2 == 0 else order[::-1]:
            rng = np.random.default_rng(rep)
            t0 = time.perf_counter()
            fold = merged(engines[i].samplers)
            t1 = time.perf_counter()
            spawn_query_view(fold, rng)
            t2 = time.perf_counter()
            fold_us[i].append(1e6 * (t1 - t0))
            view_us[i].append(1e6 * (t2 - t1))
    return {
        "items": int(items.size),
        "reps": FOLD_REPS,
        "runs": [
            {
                "kind": config["kind"],
                "shards": shards,
                "fold_us": _quartiles(fold_us[i]),
                "view_us": _quartiles(view_us[i]),
            }
            for i, (config, shards) in enumerate(FOLD_CELLS)
        ],
    }


def bench_state(items: np.ndarray) -> dict:
    """What shipping shard state costs: ``save_state`` and ``load_state``
    per pool, averaged over the shards of an engine fed ``items``, and
    one ``ProcessPlane.collect`` of a process-mode service after a
    ``STATE_SUBMIT``-item submit and a flush.  The three cells run in an
    order that reverses every repetition; each reports the median and
    quartiles in µs.  Report-only."""
    engine = ShardedSamplerEngine(CONFIG, shards=STATE_SHARDS, seed=7)
    engine.ingest(items)
    blobs = [save_state(sampler) for sampler in engine.samplers]
    twin = ShardedSamplerEngine(CONFIG, shards=STATE_SHARDS, seed=8)
    cells = ("save", "load", "collect")
    us: dict[str, list[float]] = {cell: [] for cell in cells}
    with SamplerService(
        CONFIG, shards=STATE_SHARDS, seed=7, workers_mode="process",
        ingest_workers=STATE_WORKERS, compact_interval=None,
        refresh_interval=1e9,
    ) as svc:
        for rep in range(STATE_REPS):
            lo = (rep * STATE_SUBMIT) % max(1, items.size - STATE_SUBMIT)
            svc.submit(items[lo:lo + STATE_SUBMIT])
            svc.flush(timeout=60.0)
            for cell in cells if rep % 2 == 0 else cells[::-1]:
                t0 = time.perf_counter()
                if cell == "save":
                    for sampler in engine.samplers:
                        save_state(sampler)
                elif cell == "load":
                    for sampler, blob in zip(twin.samplers, blobs):
                        load_state(sampler, blob)
                else:
                    svc._plane.collect()
                per = 1 if cell == "collect" else STATE_SHARDS
                us[cell].append(1e6 * (time.perf_counter() - t0) / per)
    return {
        "items": int(items.size),
        "shards": STATE_SHARDS,
        "workers": STATE_WORKERS,
        "reps": STATE_REPS,
        "save_us_per_pool": _quartiles(us["save"]),
        "load_us_per_pool": _quartiles(us["load"]),
        "collect_us": _quartiles(us["collect"]),
    }


def bench_window(items: np.ndarray) -> dict:
    """Birth vs steady ingest cost of a window bank (see the module
    docstring): ``WINDOW_REPS`` paired repetitions of a steady and a
    crossing ``WINDOW_CHUNK``-item chunk, each fed to the same restored
    warm bank, the pair's order alternating.  Report-only."""
    bank = build_sampler({**BANK_CONFIG, "seed": 7})
    warm_ts = np.linspace(0.0, WINDOW_BOUNDARY_S - 100.0, items.size)
    for start in range(0, items.size, 8 * WINDOW_CHUNK):
        stop = start + 8 * WINDOW_CHUNK
        bank.update_batch(items[start:stop], warm_ts[start:stop])
    warm = bank.snapshot()
    chunk = items[:WINDOW_CHUNK]
    boundary = WINDOW_BOUNDARY_S
    steady_ts = np.linspace(boundary - 50.0, boundary - 10.0, WINDOW_CHUNK)
    cross_ts = np.concatenate(
        ([boundary - 50.0], np.linspace(boundary, boundary + 40.0, WINDOW_CHUNK - 1))
    )
    births = len(bank.resolutions)
    cells = {"steady": steady_ts, "cross": cross_ts}
    us: dict[str, list[float]] = {cell: [] for cell in cells}
    for rep in range(WINDOW_REPS):
        for cell in cells if rep % 2 == 0 else list(cells)[::-1]:
            bank.restore(warm)
            t0 = time.perf_counter()
            bank.update_batch(chunk, cells[cell])
            us[cell].append(1e6 * (time.perf_counter() - t0))
    return {
        "chunk": WINDOW_CHUNK,
        "instances": BANK_CONFIG["instances"],
        "resolutions": BANK_CONFIG["resolutions"],
        "reps": WINDOW_REPS,
        "births_per_cross": births,
        "steady_chunk_us": _quartiles(us["steady"]),
        "cross_chunk_us": _quartiles(us["cross"]),
        "steady_us_per_item": _quartiles([t / WINDOW_CHUNK for t in us["steady"]]),
        "birth_us": _quartiles(
            [(c - s) / births for c, s in zip(us["cross"], us["steady"])]
        ),
    }


def bench_queries(
    items: np.ndarray, queries: int, write_batch: int
) -> list[dict]:
    """Interleave reads and writes at each ratio and time every read.

    Each mode runs an untimed warmup pass (a few write/query cycles)
    before measurement so process warmup (allocator, branch caches)
    does not systematically penalize whichever mode runs first — the
    self-gating cached-vs-fresh ratio must reflect the steady state.
    """
    rows = []
    for shards in SHARD_COUNTS:
        for label, (reads, writes) in RATIOS.items():
            row = {"shards": shards, "ratio": label}
            for mode in ("cached", "fresh"):
                engine = _build(shards)
                query = (
                    engine.sample if mode == "cached"
                    else partial(_sample_fresh, engine)
                )
                engine.ingest(items)
                for __ in range(3):  # untimed warmup cycles
                    engine.ingest(items[:write_batch])
                    query()
                    query()
                latencies: list[int] = []
                done_reads = 0
                cursor = 0
                while done_reads < queries:
                    for __ in range(writes):
                        lo = cursor % items.size
                        batch = items[lo:lo + write_batch]
                        if batch.size:
                            engine.ingest(batch)
                        cursor += write_batch
                    for __ in range(reads):
                        if done_reads >= queries:
                            break
                        t0 = time.perf_counter_ns()
                        query()
                        latencies.append(time.perf_counter_ns() - t0)
                        done_reads += 1
                row[mode] = _percentiles(latencies)
            row["speedup_p50"] = row["fresh"]["p50_us"] / row["cached"]["p50_us"]
            rows.append(row)
    return rows


def bench_sample_many(items: np.ndarray, k: int) -> dict:
    engine = _build(8)
    engine.ingest(items)
    engine.sample()  # warm the fold
    t0 = time.perf_counter()
    engine.sample_many(k)
    many_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for __ in range(k):
        engine.sample()
    loop_s = time.perf_counter() - t0
    return {
        "k": k,
        "sample_many_seconds": many_s,
        "loop_seconds": loop_s,
        "speedup": loop_s / many_s,
    }


def bench_served(
    preload: np.ndarray, work: np.ndarray, write_batch: int
) -> dict:
    """The PR 5 serving scenario: identical write/query workloads through
    the single-threaded engine loop vs. the concurrent service.

    Baseline: one thread interleaves batched ingest with one cached-fold
    query per write batch (every query re-folds — the batch just dirtied
    all shards).  Served: the same batches go through 4 ingest workers
    while 8 paced client threads query the published fold lock-free; the
    run continues until the served path has answered at least as many
    queries as the baseline did, so the throughput comparison covers no
    less query work.
    """
    batches = work.size // write_batch

    # -- single-threaded baseline ------------------------------------------
    engine = ShardedSamplerEngine(CONFIG, shards=SERVED_SHARDS, seed=7)
    engine.ingest(preload)
    engine.sample()  # warm the fold
    base_lat: list[int] = []
    t0 = time.perf_counter()
    for w in range(batches):
        engine.ingest(work[w * write_batch:(w + 1) * write_batch])
        q0 = time.perf_counter_ns()
        engine.sample()
        base_lat.append(time.perf_counter_ns() - q0)
    base_wall = time.perf_counter() - t0

    # -- served --------------------------------------------------------------
    served_lat: list[int] = []
    served_done = threading.Event()
    lat_lock = threading.Lock()
    with SamplerService(
        CONFIG,
        shards=SERVED_SHARDS,
        seed=7,
        ingest_workers=SERVED_WORKERS,
        refresh_interval=0.02,
    ) as svc:
        svc.submit(preload)
        svc.flush()
        svc.refresh()

        def client() -> None:
            mine: list[tuple[int, int]] = []
            while not served_done.is_set():
                q0 = time.perf_counter_ns()
                svc.sample()
                mine.append((q0, time.perf_counter_ns() - q0))
                time.sleep(0.004)
            with lat_lock:
                served_lat.extend(mine)

        clients = [
            threading.Thread(target=client) for __ in range(SERVED_CLIENTS)
        ]
        for thread in clients:
            thread.start()
        t0 = time.perf_counter()
        for w in range(batches):
            svc.submit(work[w * write_batch:(w + 1) * write_batch])
        svc.flush()
        served_wall = time.perf_counter() - t0
        flush_ns = time.perf_counter_ns()
        # Fairness: keep serving until at least the baseline's query count
        # has been answered concurrently.
        deadline = time.monotonic() + 60.0
        while (
            svc.stats()["query"]["served"] < len(base_lat)
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        served_done.set()
        for thread in clients:
            thread.join()
        stats = svc.stats()

    # The p50 gate must reflect queries answered *under write load* —
    # the fairness tail after flush hits a quiescent fold and would
    # otherwise dilute a real under-load regression.
    under_load = [lat for start, lat in served_lat if start < flush_ns]
    tail = [lat for start, lat in served_lat if start >= flush_ns]
    if not under_load:
        under_load = tail  # degenerate ultra-fast run; keep the suite robust

    return {
        "shards": SERVED_SHARDS,
        "workers": SERVED_WORKERS,
        "clients": SERVED_CLIENTS,
        "items": int(work.size),
        "baseline": {
            "wall_seconds": base_wall,
            "items_per_sec": work.size / base_wall,
            **_percentiles(base_lat),
        },
        "served": {
            "wall_seconds": served_wall,
            "items_per_sec": work.size / served_wall,
            "fold_refreshes": stats["query"]["refreshes"],
            "queries_total": len(served_lat),
            "quiescent_tail_queries": len(tail),
            **_percentiles(under_load),
        },
        "ingest_speedup": base_wall / served_wall,
        "p50_ratio": (
            statistics.median(x / 1e3 for x in under_load)
            / statistics.median(x / 1e3 for x in base_lat)
        ),
    }


def _parallel_run(
    mode: str, workers: int, work: np.ndarray, write_batch: int
) -> dict:
    """One parallel-ingest measurement: steady-state submit→flush wall
    time through ``workers`` shard owners in ``mode``.  Worker startup
    (thread spawn vs. process fork + replica boot) happens before the
    clock starts — the scenario measures serving throughput, not cold
    start."""
    batches = work.size // write_batch
    walls = []
    for __ in range(PARALLEL_REPS):
        with SamplerService(
            CONFIG, shards=SERVED_SHARDS, seed=7, ingest_workers=workers,
            workers_mode=mode, refresh_interval=1e9, compact_interval=None,
        ) as svc:
            warm = work[:write_batch]
            svc.submit(warm)
            svc.flush()
            t0 = time.perf_counter()
            for w in range(batches):
                svc.submit(work[w * write_batch:(w + 1) * write_batch])
            svc.flush()
            walls.append(time.perf_counter() - t0)
    wall = min(walls)  # best-of: gates compare capability, not jitter
    return {
        "mode": mode,
        "workers": workers,
        "items": int(batches * write_batch),
        "reps": PARALLEL_REPS,
        "wall_seconds": wall,
        "items_per_sec": batches * write_batch / wall,
    }


def bench_parallel_ingest(work: np.ndarray, write_batch: int) -> dict:
    """The PR 8 scaling scenario: identical write workloads through
    thread-mode and process-mode ingest planes at 1, 2, and 4 workers.

    Process mode exists to turn K shards into K cores; the report
    records the host's core count alongside the runs so the gates can
    arm only where the hardware can express the speedup (see
    ``evaluate_gates``)."""
    runs = [
        _parallel_run(mode, workers, work, write_batch)
        for mode in ("thread", "process")
        for workers in PARALLEL_WORKER_STEPS
    ]
    return {
        "shards": SERVED_SHARDS,
        "write_batch": write_batch,
        "cpu_count": os.cpu_count() or 1,
        "runs": runs,
    }


def _parallel_rate(report: dict, mode: str, workers: int) -> float:
    for row in report["parallel_ingest"]["runs"]:
        if row["mode"] == mode and row["workers"] == workers:
            return row["items_per_sec"]
    raise KeyError(f"missing parallel_ingest run ({mode}, {workers})")


def _parallel_gates(report: dict, failures: list[str]) -> list[str]:
    """Hardware-adaptive gates for the parallel-ingest scenario; returns
    the list of gates skipped for lack of cores (recorded in the
    report, so a pass on a small box is visibly weaker)."""
    par = report["parallel_ingest"]
    cores = par["cpu_count"]
    skipped = []
    for row in par["runs"]:
        if row["items_per_sec"] < MIN_PARALLEL_INGEST_FLOOR:
            failures.append(
                f"parallel ingest {row['mode']}@{row['workers']}w "
                f"{row['items_per_sec'] / 1e3:.0f}k items/s is below the "
                f"{MIN_PARALLEL_INGEST_FLOOR / 1e3:.0f}k floor"
            )
    for mode in ("thread", "process"):
        for lo, hi in zip(PARALLEL_WORKER_STEPS, PARALLEL_WORKER_STEPS[1:]):
            tol = (
                PARALLEL_TOL_IN_CORES
                if hi <= cores
                else PARALLEL_TOL_OVERSUBSCRIBED
            )
            r_lo, r_hi = (
                _parallel_rate(report, mode, lo),
                _parallel_rate(report, mode, hi),
            )
            if r_hi < tol * r_lo:
                failures.append(
                    f"parallel ingest {mode} mode fell off going "
                    f"{lo}→{hi} workers: {r_hi / 1e3:.0f}k < {tol:.2f}x "
                    f"{r_lo / 1e3:.0f}k items/s (host has {cores} core(s))"
                )
    if cores >= 4:
        ratio = _parallel_rate(report, "process", 4) / _parallel_rate(
            report, "thread", 4
        )
        if ratio < MIN_PROCESS_VS_THREAD_AT_4:
            failures.append(
                f"process-mode ingest at 4 workers is only {ratio:.2f}x "
                f"thread mode (< {MIN_PROCESS_VS_THREAD_AT_4}x on a "
                f"{cores}-core host)"
            )
    else:
        skipped.append(
            f"process>= {MIN_PROCESS_VS_THREAD_AT_4}x thread at 4 workers "
            f"(requires >= 4 cores; host has {cores})"
        )
    if cores >= 2:
        top = min(4, cores)
        for mode in ("thread", "process"):
            r1, r_top = (
                _parallel_rate(report, mode, 1),
                _parallel_rate(report, mode, top),
            )
            if r_top < r1:
                failures.append(
                    f"served ingest does not increase with worker count: "
                    f"{mode}@{top}w {r_top / 1e3:.0f}k < @1w "
                    f"{r1 / 1e3:.0f}k items/s on a {cores}-core host"
                )
    else:
        skipped.append(
            "served-ingest-increases-with-workers (requires >= 2 cores; "
            f"host has {cores})"
        )
    return skipped


def _obs_run(
    preload: np.ndarray,
    work: np.ndarray,
    write_batch: int,
    queries: int,
    enabled: bool,
) -> tuple[float, float]:
    """One rep of the served workload with metrics on/off; returns
    (ingest items/sec, query p50 µs on the warm published fold)."""
    batches = work.size // write_batch
    with SamplerService(
        CONFIG,
        shards=SERVED_SHARDS,
        seed=7,
        ingest_workers=SERVED_WORKERS,
        refresh_interval=0.02,
        metrics=enabled,
    ) as svc:
        svc.submit(preload)
        svc.flush()
        svc.refresh()
        t0 = time.perf_counter()
        for w in range(batches):
            svc.submit(work[w * write_batch:(w + 1) * write_batch])
        svc.flush()
        wall = time.perf_counter() - t0
        svc.refresh()
        for __ in range(16):  # untimed query warmup (reader view spawn)
            svc.sample()
        latencies: list[int] = []
        for __ in range(queries):
            q0 = time.perf_counter_ns()
            svc.sample()
            latencies.append(time.perf_counter_ns() - q0)
    return work.size / wall, statistics.median(ns / 1e3 for ns in latencies)


def bench_obs_overhead(
    preload: np.ndarray, work: np.ndarray, write_batch: int, queries: int
) -> dict:
    """Metrics-on vs. metrics-off served workload, best of OBS_REPS
    reps per mode (max throughput, min p50) so scheduler noise does not
    masquerade as instrumentation overhead.  Modes alternate within
    each rep, so drift penalizes neither systematically."""
    best = {
        True: {"items_per_sec": 0.0, "p50_us": float("inf")},
        False: {"items_per_sec": 0.0, "p50_us": float("inf")},
    }
    for __ in range(OBS_REPS):
        for enabled in (False, True):
            tput, p50 = _obs_run(preload, work, write_batch, queries, enabled)
            best[enabled]["items_per_sec"] = max(
                best[enabled]["items_per_sec"], tput
            )
            best[enabled]["p50_us"] = min(best[enabled]["p50_us"], p50)
    return {
        "reps": OBS_REPS,
        "queries": queries,
        "items": int(work.size),
        "enabled": best[True],
        "disabled": best[False],
        "throughput_ratio": (
            best[True]["items_per_sec"] / best[False]["items_per_sec"]
        ),
        "p50_ratio": best[True]["p50_us"] / best[False]["p50_us"],
    }


def _audit_run(
    preload: np.ndarray,
    work: np.ndarray,
    write_batch: int,
    queries: int,
    audited: bool,
) -> tuple[float, float, int]:
    """One rep of the served workload with the audit plane on/off
    (metrics enabled in both — the audit cost is measured on top of the
    PR 6 instrumentation, not bundled with it); returns (ingest
    items/sec, query p50 µs on the warm published fold)."""
    batches = work.size // write_batch
    with SamplerService(
        CONFIG,
        shards=SERVED_SHARDS,
        seed=7,
        ingest_workers=SERVED_WORKERS,
        refresh_interval=0.02,
        metrics=True,
        audit={"interval": 0.05, "draws": 256} if audited else None,
    ) as svc:
        svc.submit(preload)
        svc.flush()
        svc.refresh()
        t0 = time.perf_counter()
        for w in range(batches):
            svc.submit(work[w * write_batch:(w + 1) * write_batch])
        svc.flush()
        wall = time.perf_counter() - t0
        svc.refresh()
        for __ in range(16):  # untimed query warmup (reader view spawn)
            svc.sample()
        latencies: list[int] = []
        for __ in range(queries):
            q0 = time.perf_counter_ns()
            svc.sample()
            latencies.append(time.perf_counter_ns() - q0)
        ticks = (
            svc.audit_status().get("ticks", 0) if audited else 0
        )
    return work.size / wall, statistics.median(ns / 1e3 for ns in latencies), ticks


def bench_audit_overhead(
    preload: np.ndarray, work: np.ndarray, write_batch: int, queries: int
) -> dict:
    """Audit-on vs. audit-off served workload, best of OBS_REPS reps per
    mode (max throughput, min p50), modes alternating within each rep —
    the same noise discipline as :func:`bench_obs_overhead`."""
    best = {
        True: {"items_per_sec": 0.0, "p50_us": float("inf")},
        False: {"items_per_sec": 0.0, "p50_us": float("inf")},
    }
    audit_ticks = 0
    for __ in range(OBS_REPS):
        for audited in (False, True):
            tput, p50, ticks = _audit_run(
                preload, work, write_batch, queries, audited
            )
            best[audited]["items_per_sec"] = max(
                best[audited]["items_per_sec"], tput
            )
            best[audited]["p50_us"] = min(best[audited]["p50_us"], p50)
            audit_ticks = max(audit_ticks, ticks)
    return {
        "reps": OBS_REPS,
        "queries": queries,
        "items": int(work.size),
        "audit_ticks": int(audit_ticks),
        "enabled": best[True],
        "disabled": best[False],
        "throughput_ratio": (
            best[True]["items_per_sec"] / best[False]["items_per_sec"]
        ),
        "p50_ratio": best[True]["p50_us"] / best[False]["p50_us"],
    }


def _telemetry_run(
    preload: np.ndarray, work: np.ndarray, write_batch: int, telemetry: bool
) -> float:
    """One rep of the process-mode served ingest with the worker
    telemetry plane on/off (metrics enabled in both — the telemetry
    cost is measured on top of the parent-side instrumentation);
    returns ingest items/sec."""
    batches = work.size // write_batch
    with SamplerService(
        CONFIG,
        shards=SERVED_SHARDS,
        seed=7,
        ingest_workers=SERVED_WORKERS,
        workers_mode="process",
        metrics=True,
        worker_telemetry=telemetry,
    ) as svc:
        svc.submit(preload)
        svc.flush()
        svc.refresh()
        t0 = time.perf_counter()
        for w in range(batches):
            svc.submit(work[w * write_batch:(w + 1) * write_batch])
        svc.flush()
        wall = time.perf_counter() - t0
        svc.refresh()
    return work.size / wall


def bench_telemetry_overhead(
    preload: np.ndarray, work: np.ndarray, write_batch: int
) -> dict:
    """Telemetry-on vs. telemetry-off process-mode ingest, best of
    OBS_REPS reps per mode, modes alternating within each rep — the
    same noise discipline as :func:`bench_obs_overhead`."""
    best = {True: 0.0, False: 0.0}
    for __ in range(OBS_REPS):
        for telemetry in (False, True):
            tput = _telemetry_run(preload, work, write_batch, telemetry)
            best[telemetry] = max(best[telemetry], tput)
    return {
        "reps": OBS_REPS,
        "items": int(work.size),
        "workers": SERVED_WORKERS,
        "enabled": {"items_per_sec": best[True]},
        "disabled": {"items_per_sec": best[False]},
        "throughput_ratio": best[True] / best[False],
    }


def evaluate_gates(report: dict) -> list[str]:
    failures = []
    for row in report["query_latency"]:
        if row["cached"]["p50_us"] > MAX_CACHED_REGRESSION * row["fresh"]["p50_us"]:
            failures.append(
                f"cached p50 {row['cached']['p50_us']:.1f}us exceeds "
                f"{MAX_CACHED_REGRESSION}x fresh baseline "
                f"{row['fresh']['p50_us']:.1f}us at K={row['shards']} "
                f"{row['ratio']}"
            )
    headline = next(
        (
            r
            for r in report["query_latency"]
            if r["shards"] == 8 and r["ratio"] == "100:1"
        ),
        None,
    )
    if headline is None:
        failures.append("missing the (100:1, K=8) headline workload")
    elif headline["speedup_p50"] < MIN_READ_HEAVY_SPEEDUP:
        failures.append(
            f"read-heavy (100:1, K=8) cached p50 speedup "
            f"{headline['speedup_p50']:.1f}x < {MIN_READ_HEAVY_SPEEDUP}x"
        )
    if report["sample_many"]["speedup"] < MIN_SAMPLE_MANY_SPEEDUP:
        failures.append(
            f"sample_many({report['sample_many']['k']}) speedup "
            f"{report['sample_many']['speedup']:.1f}x < "
            f"{MIN_SAMPLE_MANY_SPEEDUP}x"
        )
    served = report["served_scenario"]
    if served["p50_ratio"] > MAX_SERVED_P50_RATIO:
        failures.append(
            f"served query p50 {served['served']['p50_us']:.1f}us is "
            f"{served['p50_ratio']:.2f}x the single-threaded cached-fold "
            f"p50 {served['baseline']['p50_us']:.1f}us "
            f"(> {MAX_SERVED_P50_RATIO}x)"
        )
    if served["ingest_speedup"] < MIN_SERVED_INGEST_SPEEDUP:
        failures.append(
            f"served ingest throughput "
            f"{served['served']['items_per_sec'] / 1e3:.0f}k items/s is only "
            f"{served['ingest_speedup']:.2f}x the single-threaded batched "
            f"path (< {MIN_SERVED_INGEST_SPEEDUP}x)"
        )
    if served["served"]["queries_total"] < served["baseline"]["queries"]:
        failures.append(
            f"served path answered {served['served']['queries_total']} "
            f"queries < baseline's {served['baseline']['queries']} — the "
            "throughput comparison would be unfair"
        )
    obs = report["obs_overhead"]
    if obs["throughput_ratio"] < MIN_OBS_THROUGHPUT_RATIO:
        failures.append(
            f"metrics-enabled served ingest throughput is only "
            f"{obs['throughput_ratio']:.3f}x the metrics-disabled run "
            f"(< {MIN_OBS_THROUGHPUT_RATIO}x)"
        )
    if obs["p50_ratio"] > MAX_OBS_P50_RATIO:
        failures.append(
            f"metrics-enabled query p50 {obs['enabled']['p50_us']:.1f}us is "
            f"{obs['p50_ratio']:.3f}x the metrics-disabled "
            f"{obs['disabled']['p50_us']:.1f}us (> {MAX_OBS_P50_RATIO}x)"
        )
    kernel = report["ingest_kernel"]
    rate_k1 = next(
        r["items_per_sec"]["median"]
        for r in kernel["runs"]
        if r["shards"] == 1 and r["chunk_size"] == kernel["chunk_size"]
    )
    if rate_k1 < MIN_INGEST_KERNEL_K1_FLOOR:
        failures.append(
            f"ingest-kernel K=1 rate {rate_k1 / 1e6:.2f}M items/s is below "
            f"the {MIN_INGEST_KERNEL_K1_FLOOR / 1e6:.1f}M floor"
        )
    for row in kernel["runs"]:
        if row["shards"] != 8:
            continue
        rate = row["items_per_sec"]["median"]
        floor = MIN_INGEST_KERNEL_K8_FLOORS[row["chunk_size"]]
        if rate < floor:
            failures.append(
                f"ingest-kernel K=8 rate {rate / 1e6:.2f}M items/s at chunk "
                f"size {row['chunk_size']} is below the {floor / 1e6:.1f}M floor"
            )
    report["parallel_ingest"]["skipped_gates"] = _parallel_gates(
        report, failures
    )
    audit = report["audit_overhead"]
    if audit["throughput_ratio"] < MIN_AUDIT_THROUGHPUT_RATIO:
        failures.append(
            f"audit-enabled served ingest throughput is only "
            f"{audit['throughput_ratio']:.3f}x the audit-off run "
            f"(< {MIN_AUDIT_THROUGHPUT_RATIO}x)"
        )
    if audit["p50_ratio"] > MAX_AUDIT_P50_RATIO:
        failures.append(
            f"audit-enabled query p50 {audit['enabled']['p50_us']:.1f}us is "
            f"{audit['p50_ratio']:.3f}x the audit-off "
            f"{audit['disabled']['p50_us']:.1f}us (> {MAX_AUDIT_P50_RATIO}x)"
        )
    for row in report["fold"]["runs"]:
        bound = MAX_FOLD_US.get((row["kind"], row["shards"]))
        fold = row["fold_us"]
        if bound is not None and fold["median"] > bound:
            failures.append(
                f"{row['kind']} K={row['shards']} fold median "
                f"{fold['median']:.0f}us [q1 {fold['q1']:.0f}, q3 "
                f"{fold['q3']:.0f}] exceeds {bound:.0f}us"
            )
    telemetry = report["telemetry_overhead"]
    if telemetry["throughput_ratio"] < MIN_TELEMETRY_THROUGHPUT_RATIO:
        failures.append(
            f"telemetry-enabled process-mode ingest throughput is only "
            f"{telemetry['throughput_ratio']:.3f}x the telemetry-off run "
            f"(< {MIN_TELEMETRY_THROUGHPUT_RATIO}x)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced scale for CI (same gates)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_E23.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        m, queries, write_batch, k_many = 60_000, 120, 200, 1000
        served_batches, served_batch = 60, 1_000
        kernel_m = 500_000
    else:
        m, queries, write_batch, k_many = 400_000, 400, 500, 1000
        served_batches, served_batch = 150, 2_000
        kernel_m = 2_000_000
    stream = zipf_stream(
        1 << 14, m + served_batches * served_batch, alpha=1.2, seed=1
    )
    items = np.asarray(stream.items)[:m]
    served_work = np.asarray(stream.items)[m:]
    kernel_items = np.asarray(
        zipf_stream(1 << 14, kernel_m, alpha=1.2, seed=2).items
    )

    print(f"perf_suite: m={m} queries/workload={queries} smoke={args.smoke}")

    report = {
        "bench": "E23-query-fast-path",
        "smoke": args.smoke,
        "config": CONFIG,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "ingest": bench_ingest(items, chunk=1 << 16),
        "ingest_kernel": bench_ingest_kernel(kernel_items),
        "fold": bench_fold(kernel_items[:FOLD_ITEMS]),
        "state": bench_state(kernel_items[:FOLD_ITEMS]),
        "window": bench_window(kernel_items[:FOLD_ITEMS]),
        "query_latency": bench_queries(items, queries, write_batch),
        "sample_many": bench_sample_many(items, k_many),
        "served_scenario": bench_served(items, served_work, served_batch),
        "parallel_ingest": bench_parallel_ingest(served_work, served_batch),
        "obs_overhead": bench_obs_overhead(
            items, served_work, served_batch, queries
        ),
        "audit_overhead": bench_audit_overhead(
            items, served_work, served_batch, queries
        ),
        "telemetry_overhead": bench_telemetry_overhead(
            items, served_work, served_batch
        ),
    }
    failures = evaluate_gates(report)
    report["gates"] = {
        "max_cached_p50_regression": MAX_CACHED_REGRESSION,
        "min_read_heavy_speedup": MIN_READ_HEAVY_SPEEDUP,
        "min_sample_many_speedup": MIN_SAMPLE_MANY_SPEEDUP,
        "max_served_p50_ratio": MAX_SERVED_P50_RATIO,
        "min_served_ingest_speedup": MIN_SERVED_INGEST_SPEEDUP,
        "min_process_vs_thread_at_4": MIN_PROCESS_VS_THREAD_AT_4,
        "parallel_tol_in_cores": PARALLEL_TOL_IN_CORES,
        "parallel_tol_oversubscribed": PARALLEL_TOL_OVERSUBSCRIBED,
        "min_parallel_ingest_floor": MIN_PARALLEL_INGEST_FLOOR,
        "min_ingest_kernel_k8_floors": {
            str(c): f for c, f in MIN_INGEST_KERNEL_K8_FLOORS.items()
        },
        "min_ingest_kernel_k1_floor": MIN_INGEST_KERNEL_K1_FLOOR,
        "min_obs_throughput_ratio": MIN_OBS_THROUGHPUT_RATIO,
        "max_obs_p50_ratio": MAX_OBS_P50_RATIO,
        "min_audit_throughput_ratio": MIN_AUDIT_THROUGHPUT_RATIO,
        "max_audit_p50_ratio": MAX_AUDIT_P50_RATIO,
        "min_telemetry_throughput_ratio": MIN_TELEMETRY_THROUGHPUT_RATIO,
        "failures": failures,
        "passed": not failures,
    }

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    for row in report["ingest"]:
        print(
            f"  ingest  K={row['shards']:<3} "
            f"{row['items_per_sec'] / 1e6:6.2f}M items/s"
        )
    ik = report["ingest_kernel"]
    for row in ik["runs"]:
        rate = row["items_per_sec"]
        print(
            f"  kernel  K={row['shards']:<3} chunk {row['chunk_size']:>7}  "
            f"{rate['median'] / 1e6:6.2f}M items/s "
            f"[q1 {rate['q1'] / 1e6:6.2f}, q3 {rate['q3'] / 1e6:6.2f}]  "
            f"call p99 {row['call_p99_us']:9.0f}us ({row['reps']} reps)"
        )
    print(
        f"  kernel  K8/K1 {ik['k8_over_k1']:.3f}x  "
        f"K32/K1 {ik['k32_over_k1']:.3f}x"
    )
    for row in report["fold"]["runs"]:
        fold, view = row["fold_us"], row["view_us"]
        print(
            f"  fold    {row['kind']:<11} K={row['shards']:<3} "
            f"fold {fold['median']:8.0f}us [q1 {fold['q1']:7.0f}, "
            f"q3 {fold['q3']:7.0f}]  view {view['median']:7.0f}us "
            f"[q1 {view['q1']:6.0f}, q3 {view['q3']:6.0f}] "
            f"({report['fold']['reps']} reps)"
        )
    st = report["state"]
    print(
        "  state   "
        + "  ".join(
            f"{name} {st[key]['median']:7.0f}us "
            f"[q1 {st[key]['q1']:6.0f}, q3 {st[key]['q3']:6.0f}]"
            for name, key in (
                ("save/pool", "save_us_per_pool"),
                ("load/pool", "load_us_per_pool"),
                ("collect", "collect_us"),
            )
        )
        + f" (K={st['shards']}, {st['workers']}w, {st['reps']} reps)"
    )
    wi = report["window"]
    print(
        "  window  "
        + "  ".join(
            f"{name} {wi[key]['median']:7.2f}us "
            f"[q1 {wi[key]['q1']:6.2f}, q3 {wi[key]['q3']:6.2f}]"
            for name, key in (
                ("birth", "birth_us"),
                ("steady/item", "steady_us_per_item"),
            )
        )
        + f" (R={wi['instances']}, {wi['chunk']}-item chunks, {wi['reps']} reps)"
    )
    for row in report["query_latency"]:
        print(
            f"  query   K={row['shards']:<3} {row['ratio']:>6}  "
            f"cached p50 {row['cached']['p50_us']:8.1f}us  "
            f"p99 {row['cached']['p99_us']:8.1f}us | "
            f"fresh p50 {row['fresh']['p50_us']:8.1f}us  "
            f"speedup {row['speedup_p50']:6.1f}x"
        )
    sm = report["sample_many"]
    print(
        f"  sample_many({sm['k']}) {sm['sample_many_seconds'] * 1e3:.1f}ms vs "
        f"loop {sm['loop_seconds'] * 1e3:.1f}ms → {sm['speedup']:.1f}x"
    )
    sv = report["served_scenario"]
    print(
        f"  served  K={sv['shards']} {sv['workers']}w/{sv['clients']}c  "
        f"ingest {sv['served']['items_per_sec'] / 1e3:6.0f}k items/s "
        f"({sv['ingest_speedup']:.1f}x single-thread) | "
        f"q p50 {sv['served']['p50_us']:6.1f}us p99 "
        f"{sv['served']['p99_us']:7.1f}us "
        f"({sv['p50_ratio']:.2f}x baseline p50 "
        f"{sv['baseline']['p50_us']:.1f}us; "
        f"{sv['served']['queries']} under-load + "
        f"{sv['served']['quiescent_tail_queries']} tail vs "
        f"{sv['baseline']['queries']} baseline queries)"
    )
    par = report["parallel_ingest"]
    for row in par["runs"]:
        print(
            f"  scaling {row['mode']:>7}@{row['workers']}w  "
            f"{row['items_per_sec'] / 1e3:6.0f}k items/s"
        )
    for reason in par["skipped_gates"]:
        print(f"  scaling gate skipped: {reason}")
    ob = report["obs_overhead"]
    print(
        f"  obs     metrics on/off: ingest "
        f"{ob['enabled']['items_per_sec'] / 1e3:6.0f}k / "
        f"{ob['disabled']['items_per_sec'] / 1e3:6.0f}k items/s "
        f"({ob['throughput_ratio']:.3f}x) | q p50 "
        f"{ob['enabled']['p50_us']:.1f} / {ob['disabled']['p50_us']:.1f}us "
        f"({ob['p50_ratio']:.3f}x, best of {ob['reps']})"
    )
    au = report["audit_overhead"]
    print(
        f"  audit   on/off: ingest "
        f"{au['enabled']['items_per_sec'] / 1e3:6.0f}k / "
        f"{au['disabled']['items_per_sec'] / 1e3:6.0f}k items/s "
        f"({au['throughput_ratio']:.3f}x) | q p50 "
        f"{au['enabled']['p50_us']:.1f} / {au['disabled']['p50_us']:.1f}us "
        f"({au['p50_ratio']:.3f}x, {au['audit_ticks']} ticks, "
        f"best of {au['reps']})"
    )
    tl = report["telemetry_overhead"]
    print(
        f"  telem   on/off: process ingest "
        f"{tl['enabled']['items_per_sec'] / 1e3:6.0f}k / "
        f"{tl['disabled']['items_per_sec'] / 1e3:6.0f}k items/s "
        f"({tl['throughput_ratio']:.3f}x, {tl['workers']}w, "
        f"best of {tl['reps']})"
    )
    if failures:
        print("GATE FAILURES:")
        for failure in failures:
            print(f"  ✗ {failure}")
        return 1
    print("all gates passed ✓")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
