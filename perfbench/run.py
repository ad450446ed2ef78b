"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_proc_wide --seed 1 --seconds 40 --trace 0

Run from the repository root.  The workload's inputs are generated from
``--seed``; then fixed-schedule *epochs* (set-up, timed rounds, close) are
repeated until ``--seconds`` of timed rounds have run.  Every epoch
replays the same schedule, so state and counts repeat exactly, while the
latencies of all epochs pool into one sample.  Round-level timings come
from the rounds during which the host stole no CPU time (see
:func:`unstolen`).  Outside the timed phase the run checks every epoch's
final shard state against an independent computation, bit for bit.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced epochs and prints the per-layer metrics (see
``layers.py``); the untraced epochs give ``trace.overhead``.

Output: one JSON line with the run context (host, versions, parameters,
a calibration loop timed before and after), then, as the last line,
``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero
without a result line if the program cannot be imported or run.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: End-to-end metrics and their units; every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "ingest_items_per_s": "items/s",
    "write_p50_us": "us",
    "write_p90_us": "us",
    "query_p50_us": "us",
    "query_p90_us": "us",
    "visible_p50_ms": "ms",
    "visible_p90_ms": "ms",
    "state_bytes": "bytes",
}
#: Untraced epochs per run at least, so ``setup_s`` is a median of several.
MIN_EPOCHS = 4
#: Rounds the round-level metrics keep at least, so their p90 has ten
#: samples beyond it.
MIN_ROUNDS = 100


@dataclass
class Round:
    """The timed samples of one round: each write and query call, and
    the round's start to the return of its first query."""

    wall_s: float = 0.0
    items: int = 0
    steal_ticks: int = 0
    write_s: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    visible_s: list[float] = field(default_factory=list)


@dataclass
class Epoch:
    """What one epoch measured."""

    setup_s: float
    setup_steal_ticks: int = 0
    wall_s: float = 0.0
    items: int = 0
    attempted: int = 0
    failed: int = 0
    fail_draws: int = 0
    rounds: list[Round] = field(default_factory=list)
    state_bytes: int = 0
    final: list[bytes] = field(default_factory=list)
    layers: dict | None = None
    errors: list[str] = field(default_factory=list)


#: Ticks per second of ``/proc/stat`` (USER_HZ).
STEAL_HZ = 100


def steal_ticks() -> int:
    """Ticks of CPU time the hypervisor has given to other guests since
    boot, summed over this host's CPUs (the ``steal`` column of
    ``/proc/stat``); 0 where unavailable."""
    try:
        with open("/proc/stat", "rb") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def _rounds(workload, target, inputs, epoch: Epoch) -> None:
    """The timed phase: every round of the schedule, each operation timed
    and counted; a raised operation counts as failed and the round goes on."""
    clock = time.perf_counter
    s = workload.schedule

    def attempt(op, *args):
        epoch.attempted += 1
        try:
            return op(*args)
        except Exception as exc:  # every refusal or error is a failed operation
            epoch.failed += 1
            if len(epoch.errors) < 5:
                epoch.errors.append(repr(exc))
            return None

    t_phase = clock()
    for r in range(s.rounds):
        t_round = clock()
        steal0 = steal_ticks()
        rnd = Round()
        for w in range(s.writes):
            t0 = clock()
            n = attempt(workload.write, target, inputs, r, w)
            if n is not None:
                rnd.write_s.append(clock() - t0)
                rnd.items += n
        attempt(workload.barrier, target, inputs, r)
        for q in range(s.queries):
            t0 = clock()
            result = attempt(workload.query, target, inputs, r, q)
            if result is None:
                continue
            t1 = clock()
            rnd.query_s.append(t1 - t0)
            epoch.fail_draws += bool(result.is_fail)
            if not rnd.visible_s:
                rnd.visible_s.append(t1 - t_round)
        rnd.wall_s = clock() - t_round
        rnd.steal_ticks = steal_ticks() - steal0
        epoch.items += rnd.items
        epoch.rounds.append(rnd)
    epoch.wall_s = clock() - t_phase


def run_epoch(workload, inputs: dict, traced: bool = False) -> Epoch:
    """Set up, run the timed rounds (under the layer shims if ``traced``),
    read the final state, close."""
    from layers import LayerClock, LayerProbe, layer_metrics

    # The previous epoch's garbage is collected here, not in this epoch.
    gc.collect()
    steal0 = steal_ticks()
    t0 = time.perf_counter()
    target = workload.setup(inputs)
    epoch = Epoch(
        setup_s=time.perf_counter() - t0, setup_steal_ticks=steal_ticks() - steal0
    )
    try:
        if traced:
            probe = LayerProbe(target)
            with LayerClock() as shims, probe:
                _rounds(workload, target, inputs, epoch)
            epoch.layers = layer_metrics(
                shims, probe.finish(), items=epoch.items, wall_s=epoch.wall_s,
                fail_draws=epoch.fail_draws,
            )
        else:
            _rounds(workload, target, inputs, epoch)
        epoch.final = workload.final_state(target)
        epoch.state_bytes = int(target.engine.approx_size_bytes())
    finally:
        target.close()
    return epoch


def states_match(reference: list[bytes], epochs: list[Epoch]) -> bool:
    """The correctness check: every epoch's final per-shard snapshot bytes
    equal the independent reference's (so all epochs equal each other)."""
    return all(e.final == reference for e in epochs)


def calibrate() -> float:
    """Median ms of a fixed pure-Python + NumPy loop; timed before and
    after a run, it tells host drift apart from a program change."""
    import numpy as np

    data = np.random.default_rng(0).random(1 << 18)
    times = []
    for __ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        np.sort(data).cumsum()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def unstolen(items: list, steal, minimum: int) -> list:
    """The members of ``items`` (rounds or set-ups) during which the host
    stole no CPU time, by ``steal(item)`` ticks; if fewer than
    ``minimum`` qualify, the ``minimum`` least-stolen ones.

    A shared virtual host hands its CPUs to other guests in spells of
    seconds to minutes (``/proc/stat`` steal: 0 to 30% of a run on a
    2-core host), and every span that a spell touches runs slower by the
    time taken.  Steal is counted in 10 ms ticks summed over the CPUs, so
    a span that lost less than a tick can still pass as unstolen."""
    clean = [item for item in items if steal(item) == 0]
    if len(clean) >= minimum:
        return clean
    return sorted(items, key=steal)[:minimum]


def end_to_end(epochs: list[Epoch]) -> dict[str, float]:
    """The end-to-end metrics.  Per-call latencies are percentiles of
    every call in every round: a call is short next to a steal tick, and
    keeping only unstolen rounds would bias their tails toward rounds
    that ended early.  The rate and visibility are taken over
    :func:`unstolen` rounds, and ``setup_s`` is the median of unstolen
    set-ups.  ``state_bytes`` is the same in every epoch."""
    from layers import percentile

    every = [r for e in epochs for r in e.rounds]
    kept = unstolen(every, lambda r: r.steal_ticks, MIN_ROUNDS)
    setups = unstolen(epochs, lambda e: e.setup_steal_ticks, 1)
    write = [v for r in every for v in r.write_s]
    query = [v for r in every for v in r.query_s]
    visible = [v for r in kept for v in r.visible_s]
    wall = sum(r.wall_s for r in kept)
    return {
        "setup_s": statistics.median(e.setup_s for e in setups),
        "ingest_items_per_s": sum(r.items for r in kept) / wall if wall else 0.0,
        "write_p50_us": percentile(write, 50) * 1e6,
        "write_p90_us": percentile(write, 90) * 1e6,
        "query_p50_us": percentile(query, 50) * 1e6,
        "query_p90_us": percentile(query, 90) * 1e6,
        "visible_p50_ms": percentile(visible, 50) * 1e3,
        "visible_p90_ms": percentile(visible, 90) * 1e3,
        "state_bytes": float(epochs[0].state_bytes),
    }


def per_layer(epochs: list[Epoch]) -> dict[str, float]:
    """Median of each per-layer metric over the traced epochs, plus
    ``trace.overhead``: the untraced over the traced ingest rate, less 1."""
    traced = [e for e in epochs if e.layers is not None]
    plain = [e for e in epochs if e.layers is None]
    out = {
        name: statistics.median(e.layers[name] for e in traced)
        for name in traced[0].layers
    }

    def rate(group):
        return statistics.median(e.items / e.wall_s for e in group)

    out["trace.overhead"] = rate(plain) / rate(traced) - 1.0
    return out


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run ``workload``; returns (context, result)."""
    import numpy as np

    context = {
        "workload": workload.parameters(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mp_start_method": multiprocessing.get_start_method(),
        "calibration_ms_before": calibrate(),
    }
    inputs = workload.inputs(seed)
    epochs: list[Epoch] = []
    timed = 0.0
    minimum = 2 * MIN_EPOCHS if trace else MIN_EPOCHS
    while timed < seconds or len(epochs) < minimum:
        epochs.append(run_epoch(workload, inputs, traced=trace and len(epochs) % 2 == 1))
        timed += epochs[-1].wall_s
    correct = states_match(workload.reference_state(inputs), epochs)
    context["calibration_ms_after"] = calibrate()
    context["epochs"] = len(epochs)
    plain = [r for e in epochs if e.layers is None for r in e.rounds]
    context["samples"] = {
        "write_s": sum(len(r.write_s) for r in plain),
        "query_s": sum(len(r.query_s) for r in plain),
        "rounds": len(plain),
        "unstolen_rounds": len(unstolen(plain, lambda r: r.steal_ticks, 0)),
    }
    wall = sum(r.wall_s for r in plain)
    context["steal_share"] = (
        sum(r.steal_ticks for r in plain) / (STEAL_HZ * wall * (os.cpu_count() or 1))
        if wall else 0.0
    )
    context["fail_draws"] = sum(e.fail_draws for e in epochs)
    context["errors"] = [msg for e in epochs for msg in e.errors][:5]
    metrics = per_layer(epochs) if trace else end_to_end(epochs)
    if trace:
        from layers import UNITS as units
    else:
        units = END_TO_END
    result = {
        "correct": bool(correct),
        "attempted": sum(e.attempted for e in epochs),
        "failed": sum(e.failed for e in epochs),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    return context, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    # Worker processes inherit the path whatever their start method.
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    context, result = run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
