"""Count windows are time windows on the arrival clock.

The count-window samplers (``sw-g``, ``sw-lp``, ``sw-f0``) are the
:mod:`repro.windows` samplers with each update stamped by its arrival
index.  Pinned here: batched ingest is bitwise the scalar loop at any
cut, snapshots of the retired layouts (position offsets; the ``sw-lp``
smooth histogram) are refused, the engine still treats the kinds as
clockless and unmergeable, and the F0 sampler's eviction certificate
holds before the first ``W`` updates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ShardedSamplerEngine, build_sampler, ingest
from repro.engine.state import load_state, save_state, state_to_bytes
from repro.sliding_window import SlidingWindowF0Sampler
from repro.streams import zipf_stream

CONFIGS = {
    "sw-g": {"kind": "sw-g", "measure": {"name": "huber"}, "window": 40,
             "instances": 6},
    "sw-lp": {"kind": "sw-lp", "p": 2.0, "window": 40, "instances": 6},
    "sw-f0": {"kind": "sw-f0", "n": 64, "window": 40},
}
STREAM = np.asarray(zipf_stream(64, 300, alpha=1.2, seed=3).items)


@pytest.mark.parametrize("kind", sorted(CONFIGS))
@settings(max_examples=20, deadline=None)
@given(
    length=st.integers(0, STREAM.size),
    cuts=st.lists(st.integers(0, STREAM.size), max_size=6),
)
def test_batched_ingest_is_the_scalar_loop_at_any_cut(kind, length, cuts):
    items = STREAM[:length]
    scalar = build_sampler({**CONFIGS[kind], "seed": 11})
    for item in items.tolist():
        scalar.update(item)
    batched = build_sampler({**CONFIGS[kind], "seed": 11})
    bounds = sorted({0, length, *(c for c in cuts if c <= length)})
    for lo, hi in zip(bounds, bounds[1:]):
        batched.update_batch(items[lo:hi])
    assert batched.position == scalar.position == length
    assert save_state(batched) == save_state(scalar)
    assert batched.sample_many(8) == scalar.sample_many(8)


def _old_layout(state: dict) -> dict:
    """``state`` as the position-offset layout wrote it: no clock
    fields, and generations keyed by the count of preceding updates."""
    old = {
        key: value for key, value in state.items()
        if key not in ("delta", "root", "now", "last_arrival")
    }
    if "generations" in state:
        old["generations"] = {
            i: {"start": int(gen["bucket"]) * state["window"], "pool": gen["pool"]}
            for i, gen in state["generations"].items()
        }
    return old


def _histogram_layout(state: dict) -> dict:
    """``state`` as the smooth-histogram ``sw-lp`` wrote it: ``alpha``
    in the fingerprint, the histogram's checkpoints under ``hist``, and
    no per-generation normalizer state."""
    estimator = {
        "kind": "exact_suffix_fp", "p": 2.0, "fp": 5.0,
        "keys": np.array([3, 8]), "vals": np.array([2, 1]),
    }
    hist = {
        "kind": "smooth_histogram", "beta": 0.25, "window": state["window"],
        "time": state["position"],
        "checkpoints": {"0": {"start": 0, "estimator": estimator}},
    }
    generations = {
        i: {key: value for key, value in gen.items() if key != "aux"}
        for i, gen in state["generations"].items()
    }
    return {**state, "alpha": 0.5, "generations": generations, "hist": hist}


RETIRED_LAYOUTS = [
    *((kind, _old_layout) for kind in sorted(CONFIGS)),
    ("sw-lp", _histogram_layout),
]


@pytest.mark.parametrize(
    "kind, layout", RETIRED_LAYOUTS, ids=[*sorted(CONFIGS), "sw-lp-histogram"]
)
def test_old_layout_snapshot_is_refused_and_changes_nothing(kind, layout):
    donor = build_sampler({**CONFIGS[kind], "seed": 1})
    donor.update_batch(STREAM[:150])
    sampler = build_sampler({**CONFIGS[kind], "seed": 2})
    sampler.update_batch(STREAM[150:])
    before = save_state(sampler)
    old = layout(donor.snapshot())
    with pytest.raises(ValueError, match="layout"):
        sampler.restore(old)
    with pytest.raises(ValueError, match="layout"):
        load_state(sampler, state_to_bytes(old))
    assert save_state(sampler) == before


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_engine_sees_a_clockless_unmergeable_kind(kind):
    sampler = build_sampler({**CONFIGS[kind], "seed": 4})
    sampler.update_batch(STREAM)
    before = save_state(sampler)
    assert sampler.watermark() is None
    assert sampler.compact(now=1e9) == 0
    assert save_state(sampler) == before
    assert not callable(getattr(sampler, "validate_batch", None))
    with pytest.raises(TypeError):
        ingest(sampler, STREAM[:10], timestamps=np.arange(10.0))
    assert save_state(sampler) == before
    with pytest.raises(ValueError, match="arrival order"):
        sampler.merge(build_sampler({**CONFIGS[kind], "seed": 4}))
    with pytest.raises(ValueError, match="mergeable"):
        ShardedSamplerEngine(CONFIGS[kind], shards=1)


def test_f0_answers_short_sparse_streams_from_the_recent_table():
    """Fewer than ``W`` updates over at most √n distinct items: nothing
    has expired and the LRU table holds the whole support, so every seed
    answers from it and none FAILs."""
    stream = [1, 2, 3, 1, 2, 3, 1, 2, 3]
    for seed in range(200):
        sampler = SlidingWindowF0Sampler(100, window=10, seed=seed)
        assert len(set(stream)) <= sampler.threshold
        sampler.extend(stream)
        assert sampler.position < sampler.window
        result = sampler.sample()
        assert result.is_item, result
        assert result.metadata["regime"] == "recent"
        assert result.item in stream
