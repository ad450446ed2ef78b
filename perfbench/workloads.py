"""The benchmark's fixed-schedule workloads.

Every workload is a closed loop driven by one client thread: a fixed
number of *rounds*, each ``writes`` submits, a read barrier, then
``queries`` sample calls.  All inputs are generated from the seed before
set-up begins, and every background timer of the service is off, so a
seed fixes the whole operation sequence — and with it the final state
and every seed-determined count the run reports.

Why these two (each stresses different layers; see README.md):

* ``serve_proc_wide`` — write-heavy serving through worker processes with
  ids over 2^24: route, queues, frame codec and pipes, the worker kernel,
  collect and fold all sit on the path.
* ``serve_windows`` — read-heavy, time-windowed serving through worker
  threads: window ingest, expiry on the query clock, and the executor's
  cached-read path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.shard import ShardedSamplerEngine
from repro.engine.state import save_state
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.serving.service import SamplerService

SHARDS = 8
WORKERS = 2
ZIPF_ALPHA = 1.1
G_CONFIG = {"kind": "g", "measure": {"name": "huber"}, "instances": 64}
RUNGS = (60.0, 300.0, 3600.0)
BANK_CONFIG = {
    "kind": "window_bank",
    "measure": {"name": "huber"},
    "instances": 64,
    "resolutions": list(RUNGS),
}
#: A refresh cadence no run lives long enough to reach: the service keeps
#: its ticker thread but the refresh leg never fires.
NEVER_S = 1e9
SUBMIT_TIMEOUT_S = 30.0
FLUSH_TIMEOUT_S = 60.0


def zipf_ids(rng: np.random.Generator, n: int, bits: int) -> np.ndarray:
    """``n`` Zipf(α) ranks mapped onto ``[0, 2^bits)`` by an odd
    multiplier (a bijection mod 2^bits), so popular ids are scattered
    over the id space rather than packed at the bottom of it."""
    ranks = rng.zipf(ZIPF_ALPHA, n).astype(np.uint64) - np.uint64(1)
    mask = np.uint64((1 << bits) - 1)
    return ((ranks * np.uint64(0x9E3779B1) + np.uint64(0x5BD1)) & mask).astype(
        np.int64
    )


def direct_engine(config: dict, seed: int) -> ShardedSamplerEngine:
    """An engine with its own metrics registry, so counts are per epoch."""
    return ShardedSamplerEngine(
        config, shards=SHARDS, seed=seed, metrics=MetricsRegistry()
    )


def shard_bytes(engine: ShardedSamplerEngine) -> list[bytes]:
    """Per-shard snapshot bytes, the unit of the bitwise checks."""
    return [save_state(sampler) for sampler in engine.samplers]


@dataclass(frozen=True)
class Schedule:
    """One epoch's fixed operation schedule."""

    rounds: int
    writes: int
    queries: int
    write_items: int
    id_bits: int
    preload_rounds: int = 0


class Workload:
    """One served workload; the runner owns timing and accounting.

    ``setup`` starts the service, preloads, and completes the first
    query.  ``write``, ``barrier`` and ``query`` are the three operations
    of a round; each either returns or raises (a raise is a failed
    operation).  The barrier is ``flush`` then ``refresh``; the service's
    refresh ticker and compaction timer are both off.
    """

    name = ""
    config: dict
    mode: str

    def __init__(self, schedule: Schedule) -> None:
        self.schedule = schedule

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def write(self, service, inputs: dict, r: int, w: int) -> int:
        raise NotImplementedError

    def query(self, service, inputs: dict, r: int, q: int):
        raise NotImplementedError

    def reference_state(self, inputs: dict) -> list[bytes]:
        """Per-shard snapshot bytes of a direct engine fed the same
        submits in order, which :meth:`final_state` must match bit for
        bit."""
        raise NotImplementedError

    def setup(self, inputs: dict) -> SamplerService:
        return self.serve(self.config, inputs)

    def serve(self, config, inputs: dict, **kwargs) -> SamplerService:
        """Start a service over ``config`` (or a prebuilt engine) and
        complete its first query."""
        service = SamplerService(
            config,
            shards=SHARDS,
            seed=inputs["seed"],
            ingest_workers=WORKERS,
            workers_mode=self.mode,
            refresh_interval=NEVER_S,
            compact_interval=None,
            **kwargs,
        )
        try:
            self.query(service, inputs, -1, 0)
        except BaseException:
            service.close()
            raise
        return service

    def barrier(self, service, inputs: dict, r: int) -> None:
        service.flush(timeout=FLUSH_TIMEOUT_S)
        service.refresh()

    def final_state(self, service) -> list[bytes]:
        """Per-shard snapshot bytes after the last round."""
        return service.snapshot_shards_bytes()

    def parameters(self) -> dict:
        return {"name": self.name, **self.schedule.__dict__}


class ServeProcWide(Workload):
    """Process-mode serving of wide ids: ``writes`` submits, the barrier,
    then ``queries`` samples per round."""

    name = "serve_proc_wide"
    config = G_CONFIG
    mode = "process"

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 2])
        s = self.schedule
        return {
            "seed": seed,
            "submits": [
                zipf_ids(rng, s.write_items, s.id_bits)
                for __ in range(s.rounds * s.writes)
            ],
        }

    def write(self, service, inputs, r, w):
        items = inputs["submits"][r * self.schedule.writes + w]
        return service.submit(items, timeout=SUBMIT_TIMEOUT_S)

    def query(self, service, inputs, r, q):
        return service.sample()

    def reference_state(self, inputs):
        engine = direct_engine(G_CONFIG, inputs["seed"])
        for items in inputs["submits"]:
            engine.ingest(items)
        return shard_bytes(engine)


class ServeWindows(Workload):
    """Thread-mode serving of a window bank.  Each submit spans
    ``STEP_S`` of event time; a round's query clock falls ``GAP_S`` after
    its last write (a quiet spell, so windows expire), and the next round
    starts there.  Queries rotate through the rungs at that clock.

    The service's compaction leg is a timer, which this benchmark turns
    off; the barrier instead compacts every shard at the query clock
    through the engine's public ``compact(now=)``, after ``flush`` has
    drained the workers, so each run expires windows at the same points.
    The first ``preload_rounds`` rounds (without queries), enough event
    time to turn over the longest rung, are fed once per run to a direct
    engine when the inputs are made; its per-shard snapshot bytes are
    part of the inputs.  Set-up restores them into a fresh engine, which
    the service then serves: a warm start from a saved state.
    """

    name = "serve_windows"
    config = BANK_CONFIG
    mode = "thread"
    STEP_S = 240.0
    GAP_S = 30.0

    @property
    def _span(self) -> float:
        return self.schedule.writes * self.STEP_S + self.GAP_S

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 3])
        s = self.schedule
        rounds = s.preload_rounds + s.rounds
        offsets = np.arange(s.write_items, dtype=np.float64) * (
            self.STEP_S / s.write_items
        )
        inputs = {
            "seed": seed,
            "items": [
                zipf_ids(rng, s.write_items, s.id_bits)
                for __ in range(rounds * s.writes)
            ],
            "ts": [
                g * self._span + w * self.STEP_S + offsets
                for g in range(rounds)
                for w in range(s.writes)
            ],
        }
        engine = direct_engine(BANK_CONFIG, seed)
        self._feed(engine, inputs, range(s.preload_rounds))
        inputs["warm"] = tuple(shard_bytes(engine))
        return inputs

    def clock(self, g: int) -> float:
        """Query clock of round ``g`` (preload rounds first): where round
        ``g + 1`` starts."""
        return (g + 1) * self._span

    def _feed(self, engine, inputs, rounds) -> None:
        """Direct engine path: each round's submits in order, then
        compaction at the round's query clock."""
        writes = self.schedule.writes
        for g in rounds:
            for i in range(g * writes, (g + 1) * writes):
                engine.ingest(inputs["items"][i], timestamps=inputs["ts"][i])
            engine.compact(now=self.clock(g))

    def setup(self, inputs):
        registry = MetricsRegistry()
        with use_registry(registry):  # window-rung counters land here too
            engine = ShardedSamplerEngine(
                BANK_CONFIG, shards=SHARDS, seed=inputs["seed"], metrics=registry
            )
            for shard, state in enumerate(inputs["warm"]):
                engine.restore_shard(shard, state)
        return self.serve(engine, inputs, metrics=registry)

    def write(self, service, inputs, r, w):
        i = (self.schedule.preload_rounds + r) * self.schedule.writes + w
        return service.submit(
            inputs["items"][i], inputs["ts"][i], timeout=SUBMIT_TIMEOUT_S
        )

    def barrier(self, service, inputs, r):
        service.flush(timeout=FLUSH_TIMEOUT_S)
        service.engine.compact(now=self.clock(self.schedule.preload_rounds + r))
        service.refresh()

    def query(self, service, inputs, r, q):
        now = self.clock(self.schedule.preload_rounds + r)
        return service.sample(horizon=RUNGS[q % len(RUNGS)], now=now)

    def reference_state(self, inputs):
        engine = direct_engine(BANK_CONFIG, inputs["seed"])
        s = self.schedule
        self._feed(engine, inputs, range(s.preload_rounds + s.rounds))
        return shard_bytes(engine)


#: Per-epoch schedules.  Round counts are sized so one epoch takes one to
#: a few seconds on a 2-core host and every run pools ≥ 100 samples of
#: each latency; the runner repeats epochs until ``--seconds`` of timed
#: work.
WORKLOADS = {
    "serve_proc_wide": ServeProcWide(
        Schedule(rounds=40, writes=8, queries=4, write_items=2048, id_bits=24)
    ),
    "serve_windows": ServeWindows(
        Schedule(
            rounds=16, writes=1, queries=48, write_items=8192, id_bits=16,
            preload_rounds=14,
        )
    ),
}
