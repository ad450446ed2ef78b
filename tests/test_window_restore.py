"""Window restores are all-or-nothing.

A snapshot comes from outside the process, so ``restore`` parses all of
it before assigning anything: a missing top-level key or a corrupt
generation pool raises :class:`ValueError` and leaves the sampler (for a
bank, every rung) exactly as it was, and a valid restore still works
afterwards.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from helpers import gappy_timed_stream
from repro.core.measures import HuberMeasure
from repro.engine.state import save_state
from repro.windows import (
    TimeWindowF0Sampler,
    TimeWindowGSampler,
    TimeWindowLpSampler,
    WindowBank,
)

MAKERS = {
    "tw_g": lambda: TimeWindowGSampler(
        HuberMeasure(1.0), horizon=1.0, instances=8, seed=51
    ),
    "tw_lp": lambda: TimeWindowLpSampler(2.0, horizon=1.0, instances=8, seed=52),
    "tw_f0": lambda: TimeWindowF0Sampler(40, horizon=1.0, seed=53),
    "window_bank": lambda: WindowBank(
        (1.0, 2.5), measure=HuberMeasure(1.0), n=40, instances=8, seed=54
    ),
}


def _corrupt_pool(state: dict, kind: str) -> None:
    """Break one generation pool's buffer (more tracked items than
    instances) in place — for the bank, in its last rung, so a
    rung-by-rung restore would already have assigned the others."""
    if kind == "window_bank":
        state = state["pool"][str(len(state["pool"]) - 1)]
    gens = state["generations"]
    pool = gens[str(len(gens) - 1)]["pool"]
    pool["state"][0] = pool["instances"] + 1


def _faults(kind: str, snapshot: dict):
    """``(name, broken snapshot)`` for each top-level key dropped, then
    one corrupt member."""
    for key in snapshot:
        broken = copy.deepcopy(snapshot)
        del broken[key]
        yield f"no {key}", broken
    broken = copy.deepcopy(snapshot)
    if kind == "tw_f0":
        del broken["copies"]["0"]["s_set"]
        yield "copy without s_set", broken
    else:
        _corrupt_pool(broken, kind)
        yield "corrupt pool", broken


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_malformed_restore_changes_nothing(kind):
    items, ts = gappy_timed_stream(900, 40, 1.0, seed=55)
    sampler = MAKERS[kind]()
    sampler.update_batch(items[:400], ts[:400])
    earlier = sampler.snapshot()
    earlier_bytes = save_state(sampler)
    if kind != "tw_f0":
        gens = (earlier["pool"]["1"] if kind == "window_bank" else earlier)["generations"]
        assert len(gens) == 2  # the corruption hits the newer generation
    sampler.update_batch(items[400:], ts[400:])
    now = save_state(sampler)
    faults = list(_faults(kind, earlier))
    assert len(faults) == len(earlier) + 1
    for name, broken in faults:
        with pytest.raises(ValueError):
            sampler.restore(broken)
        assert save_state(sampler) == now, name
    sampler.restore(earlier)
    assert save_state(sampler) == earlier_bytes
    twin = MAKERS[kind]()
    twin.update_batch(items[:400], ts[:400])
    sampler.update_batch(items[400:], ts[400:])
    twin.update_batch(items[400:], ts[400:])
    assert save_state(sampler) == save_state(twin) == now


@pytest.mark.parametrize("kind", ["tw_g", "tw_lp"])
def test_restore_rejects_misshapen_generations(kind):
    """A generation whose pool or wall does not fit the sampler's
    instance count, or generations out of bucket order, are refused."""
    items, ts = gappy_timed_stream(600, 40, 1.0, seed=56)
    sampler = MAKERS[kind]()
    sampler.update_batch(items, ts)
    good = sampler.snapshot()
    before = save_state(sampler)
    short_wall = copy.deepcopy(good)
    short_wall["generations"]["0"]["wall"] = np.zeros(3)
    swapped = copy.deepcopy(good)
    gens = swapped["generations"]
    gens["0"], gens["1"] = gens["1"], gens["0"]
    other = TimeWindowGSampler(HuberMeasure(1.0), horizon=1.0, instances=5, seed=1)
    other.update_batch(items, ts)
    wrong_size = copy.deepcopy(good)
    wrong_size["generations"]["0"]["pool"] = other.snapshot()["generations"]["0"]["pool"]
    for broken in (short_wall, swapped, wrong_size):
        with pytest.raises(ValueError):
            sampler.restore(broken)
        assert save_state(sampler) == before
