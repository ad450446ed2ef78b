"""The K-way fold: ``merged()`` of K shards picks each instance of each
pool once, from one coin block, instead of running K − 1 pairwise merges.

* the pick law: instance ``k`` comes from shard ``j`` with probability
  ``m_j/Σm`` (χ² at K ∈ {3, 8}, unequal and empty shards);
* two shards fold bitwise as the pairwise ``merge`` did: the
  ``save_state`` bytes of ``merged([a, b])`` for every pool-backed kind
  are pinned in ``data/fold_k2.json``, taken from the pairwise fold;
* the folded time-window samplers and banks answer with the window's
  exact law when the shards hold staggered, borrowed and absent
  generations;
* a generation's pool and ``wall`` are one pair to a clone taken as an
  ingest finishes.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    STAGGERED_N,
    assert_matches_distribution,
    kway_folds,
    staggered_stream,
    staggered_window_shards,
)
from repro.core import ingest_kernel
from repro.core.g_sampler import SamplerPool, TrulyPerfectGSampler
from repro.core.lp_sampler import TrulyPerfectLpSampler
from repro.core.measures import HuberMeasure
from repro.engine.state import merged, save_state
from repro.stats import chi_square_gof, g_target
from repro.windows import TimeWindowGSampler, TimeWindowLpSampler, WindowBank

PINS = Path(__file__).parent / "data" / "fold_k2.json"


def _fed(pool_or_sampler, items):
    pool_or_sampler.update_batch(np.asarray(items, dtype=np.int64))
    return pool_or_sampler


def _zipf(m: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return ((rng.zipf(1.2, size=m) - 1) % n).astype(np.int64)


def _bank(j: int) -> WindowBank:
    return WindowBank((10.0, 20.0), measure=HuberMeasure(1.0), instances=16,
                      seed=20 + j)


def _tw_lp(j: int) -> TimeWindowLpSampler:
    return TimeWindowLpSampler(2.0, horizon=10.0, instances=16, seed=10 + j)


#: The two-shard cases pinned in ``data/fold_k2.json``: each builds the
#: shards ``merged`` folds.
K2_CASES = {
    "g": lambda: [
        _fed(TrulyPerfectGSampler(HuberMeasure(1.0), instances=16, seed=1 + j),
             2 * _zipf(900 + 300 * j, 40, seed=j) + j)
        for j in range(2)
    ],
    "lp2": lambda: [
        _fed(TrulyPerfectLpSampler(2.0, n=128, instances=16, seed=3 + j),
             2 * _zipf(700 + 500 * j, 60, seed=5 + j) + j)
        for j in range(2)
    ],
    "pool-first-empty": lambda: [
        SamplerPool(16, seed=3), _fed(SamplerPool(16, seed=4), _zipf(500, 30, seed=6))
    ],
    "pool-second-empty": lambda: [
        _fed(SamplerPool(16, seed=4), _zipf(500, 30, seed=6)), SamplerPool(16, seed=3)
    ],
    "tw_lp": lambda: staggered_window_shards(_tw_lp, seed=7, shards=(0, 1)),
    "bank-01": lambda: staggered_window_shards(_bank, seed=8, shards=(0, 1)),
    "bank-10": lambda: staggered_window_shards(_bank, seed=8, shards=(1, 0)),
    "bank-02": lambda: staggered_window_shards(_bank, seed=8, shards=(0, 2)),
    "bank-20": lambda: staggered_window_shards(_bank, seed=8, shards=(2, 0)),
}


@pytest.mark.parametrize("case", sorted(K2_CASES))
def test_two_shard_fold_is_the_pairwise_merge(case):
    """``merged`` of two shards lands the pairwise merge's exact bytes
    (RNG states included), and leaves both shards as they were."""
    pins = json.loads(PINS.read_text())
    shards = K2_CASES[case]()
    before = [save_state(shard) for shard in shards]
    assert save_state(merged(shards)).hex() == pins[case]
    assert [save_state(shard) for shard in shards] == before


@pytest.mark.parametrize("case", sorted(K2_CASES))
def test_merge_is_the_two_shard_fold(case):
    """In-place ``merge`` of the second shard into a copy of the first
    lands the same bytes as the fold."""
    first, second = K2_CASES[case]()
    mine = copy.deepcopy(first)
    mine.merge(second)
    assert save_state(mine).hex() == json.loads(PINS.read_text())[case]


@pytest.mark.parametrize("sizes", [
    (50, 0, 150),
    (0, 10, 70, 0, 200, 5, 0, 40),
])
def test_pick_law_follows_shard_lengths(sizes):
    """Each folded instance comes from shard ``j`` with probability
    ``m_j/Σm``; its stamp is shifted into that shard's span of the
    concatenated stream, and an empty shard is never picked."""
    k, r, trials = len(sizes), 64, 150
    shifts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    picks = np.zeros(k)
    for trial in range(trials):
        pools = [
            _fed(SamplerPool(r, seed=1000 * trial + j), 1000 * j + _zipf(m, 25, seed=j))
            for j, m in enumerate(sizes)
        ]
        for item, count, stamp in SamplerPool.fold(pools).finalize():
            j = item // 1000
            assert shifts[j] < stamp <= shifts[j] + sizes[j]
            assert count >= 1
            picks[j] += 1
    law = np.asarray(sizes) / sum(sizes)
    assert picks[law == 0].sum() == 0
    __, pvalue = chi_square_gof(picks, law)
    assert pvalue >= 1e-3, (picks, law)


def test_fold_without_items_past_the_first_shard_draws_nothing():
    """Shards past the first that hold nothing draw no coin and no wake:
    the fold is the first shard's pool, its RNG state unchanged."""
    fed = _fed(SamplerPool(16, seed=4), _zipf(500, 30, seed=6))
    pools = [fed, SamplerPool(16, seed=5), SamplerPool(16, seed=6)]
    folded = SamplerPool.fold(pools)
    assert save_state(folded) == save_state(fed)


def test_python_fold_rule_matches_compiled_fold(monkeypatch):
    """The fold's Python rule (what runs without a compiler) lands the
    compiled fold's bytes for K-way folds of pools, ``tw_g`` shards and
    ``window_bank`` shards with Lp and F0 rungs."""
    compiled = kway_folds()
    monkeypatch.setattr(ingest_kernel, "kernel_impl", lambda: "python")
    assert kway_folds() == compiled


def _window_law(horizon: float, trials: int, make, sample) -> None:
    """``sample`` of the fold of :func:`staggered_window_shards` built
    by ``make(j, seed)`` matches the law of the window of length
    ``horizon`` ending at the stream's last arrival."""
    items, ts = staggered_stream(seed=0)
    active = ts > ts[-1] - horizon
    target = g_target(np.bincount(items[active], minlength=STAGGERED_N),
                      HuberMeasure(1.0))

    def run(seed):
        shards = staggered_window_shards(lambda j: make(j, 3 * seed + j), seed=0)
        return sample(merged(shards))

    assert_matches_distribution(run, target, trials=trials)


def test_time_window_fold_law_with_staggered_generations():
    """Three ``tw_g`` shards whose generations stagger (one lends its
    newer generation to an older bucket, two have none at the newest
    bucket) fold into a sampler with the window's exact law."""
    _window_law(
        10.0, 400,
        lambda j, seed: TimeWindowGSampler(HuberMeasure(1.0), horizon=10.0,
                                           instances=16, seed=seed),
        lambda fold: fold.sample(),
    )


@pytest.mark.parametrize("horizon", [10.0, 20.0])
def test_window_bank_fold_law_with_staggered_generations(horizon):
    """The same shards as banks, rung by rung."""
    _window_law(
        horizon, 300,
        lambda j, seed: WindowBank((10.0, 20.0), measure=HuberMeasure(1.0),
                                   instances=16, seed=seed),
        lambda fold: fold.sample(horizon),
    )


def _stamp_wall_pair(gen, ts: np.ndarray) -> None:
    """On the arrival-index clock, every instance's wall entry is the
    arrival time of its pool's sampled position."""
    stamps = np.asarray([stamp for __, ___, stamp in gen.pool.finalize()])
    assert np.array_equal(gen.pool.wall, ts[stamps - 1])


@pytest.mark.parametrize("impl", ["c", "python"])
def test_a_clone_as_an_ingest_returns_pairs_the_pool_with_its_wall(impl, monkeypatch):
    """The pool's buffer and its generation's ``wall`` change in one
    step: a clone and a fold taken the moment a generation's
    ``update_batch`` returns, before the sampler's ingest goes on, see
    the new buffer with the new wall."""
    if impl == "python":
        monkeypatch.setattr(ingest_kernel, "kernel_impl", lambda: "python")
    sampler = TimeWindowGSampler(HuberMeasure(1.0), horizon=1e9, instances=16, seed=3)
    items = _zipf(3000, 200, seed=9)
    ts = np.arange(items.size, dtype=np.float64)
    sampler.update_batch(items[:1000], ts[:1000])
    feed = SamplerPool.update_batch
    taken = []

    def feed_then_clone(pool, chunk, stamps=None):
        feed(pool, chunk, stamps)
        gen = sampler._generations[0]
        taken.append((copy.deepcopy(gen), TimeWindowGSampler.fold([sampler])))

    monkeypatch.setattr(SamplerPool, "update_batch", feed_then_clone)
    sampler.update_batch(items[1000:], ts[1000:])
    monkeypatch.setattr(SamplerPool, "update_batch", feed)
    (clone, fold), = taken
    assert clone.pool.position == 3000
    _stamp_wall_pair(clone, ts)
    _stamp_wall_pair(fold._generations[0], ts)
    _stamp_wall_pair(sampler._generations[0], ts)
