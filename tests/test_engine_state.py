"""Mergeable state: snapshot/restore roundtrips (bitwise continuation),
bytes serialization, and merge exactness/associativity — merge(A, B) must
behave as one sampler run over the concatenation A‖B of a disjoint
universe partition."""

import numpy as np
import pytest

from helpers import F0_FIELDS, assert_matches_distribution, f0_state, pool_columns
from repro.core.f0_sampler import RandomOracleF0Sampler, TrulyPerfectF0Sampler
from repro.core.g_sampler import SamplerPool, TrulyPerfectGSampler
from repro.core.lp_sampler import TrulyPerfectLpSampler
from repro.core.measures import L1L2Measure, LpMeasure
from repro.engine.state import (
    MergeableState,
    load_state,
    merged,
    save_state,
    state_from_bytes,
    state_to_bytes,
    supports_merge,
)
from repro.sketches.misra_gries import MisraGries
from repro.sliding_window import (
    SlidingWindowF0Sampler,
    SlidingWindowGSampler,
    SlidingWindowLpSampler,
)
from repro.stats import f0_target, g_target, lp_target
from repro.streams import uniform_stream, zipf_stream


def _partition(items: np.ndarray, parts: int) -> list[np.ndarray]:
    """Disjoint-universe split (by item value, order-preserving)."""
    return [items[items % parts == k] for k in range(parts)]


class TestSnapshotRestore:
    def test_pool_roundtrip_continues_bitwise(self):
        stream = np.asarray(zipf_stream(64, 4000, alpha=1.2, seed=1).items)
        pool = SamplerPool(16, seed=3)
        pool.update_batch(stream[:2000])
        clone = SamplerPool.from_snapshot(pool.snapshot())
        pool.update_batch(stream[2000:])
        clone.update_batch(stream[2000:])
        assert pool.finalize() == clone.finalize()
        assert pool.snapshot()["rng_state"] == clone.snapshot()["rng_state"]

    def test_lp_bytes_roundtrip(self):
        stream = zipf_stream(64, 3000, alpha=1.3, seed=2)
        sampler = TrulyPerfectLpSampler(p=2.0, n=64, seed=5)
        sampler.update_batch(stream.items)
        buf = save_state(sampler)
        clone = TrulyPerfectLpSampler(p=2.0, n=64, seed=99)
        load_state(clone, buf)
        assert clone.normalizer() == sampler.normalizer()
        assert clone.sample().item == sampler.sample().item

    def test_f0_bytes_roundtrip(self):
        stream = zipf_stream(200, 3000, alpha=1.0, seed=4)
        sampler = TrulyPerfectF0Sampler(200, seed=6)
        sampler.update_batch(stream.items)
        clone = TrulyPerfectF0Sampler(200, seed=123)
        load_state(clone, save_state(sampler))
        for cs, cc in zip(sampler._copies, clone._copies):
            assert f0_state(cs, "s_set") == f0_state(cc, "s_set")
            assert f0_state(cs, "count_keys", "count_vals") == f0_state(
                cc, "count_keys", "count_vals"
            )
        assert clone.sample().item == sampler.sample().item

    def test_g_restore_rejects_measure_mismatch(self):
        from repro.core.measures import CauchyMeasure, HuberMeasure

        huber = TrulyPerfectGSampler(HuberMeasure(1.0), m_hint=100, seed=1)
        huber.update_batch(np.arange(50))
        cauchy = TrulyPerfectGSampler(CauchyMeasure(1.0), m_hint=100, seed=1)
        with pytest.raises(ValueError, match="measure"):
            load_state(cauchy, save_state(huber))

    def test_f0_roundtrip_keeps_position(self):
        sampler = TrulyPerfectF0Sampler(64, seed=1)
        sampler.update_batch(np.arange(64).repeat(3))
        clone = TrulyPerfectF0Sampler(64, seed=2)
        load_state(clone, save_state(sampler))
        assert clone.position == sampler.position == 192

    def test_serialization_rejects_garbage(self):
        with pytest.raises(ValueError):
            state_from_bytes(b"NOPE" + b"\x00" * 16)
        buf = state_to_bytes({"kind": "x", "arr": np.arange(10)})
        with pytest.raises(ValueError):
            state_from_bytes(buf[:12])  # truncated

    def test_serialization_preserves_nested_tree(self):
        state = {
            "kind": "demo",
            "meta": {"a": 1, "b": [1, 2, 3], "c": None, "flag": True},
            "nested": {"arr": np.arange(5, dtype=np.int64)},
            "floats": np.linspace(0, 1, 4),
        }
        back = state_from_bytes(state_to_bytes(state))
        assert back["kind"] == "demo"
        assert back["meta"] == {"a": 1, "b": [1, 2, 3], "c": None, "flag": True}
        assert np.array_equal(back["nested"]["arr"], np.arange(5))
        assert np.allclose(back["floats"], np.linspace(0, 1, 4))

    def test_protocol_detection(self):
        assert supports_merge(SamplerPool(2, seed=0))
        assert supports_merge(TrulyPerfectF0Sampler(16, seed=0))
        assert isinstance(SamplerPool(2, seed=0), MergeableState)
        assert not supports_merge(object())


class TestSlidingWindowSnapshotRestore:
    """Count-based sliding-window samplers checkpoint and restore
    bitwise (they don't merge — "the last W updates" of a sharded
    stream has no global arrival order; time-based windows in
    repro.windows do)."""

    def test_sw_g_roundtrip_continues_bitwise(self):
        items = np.asarray(zipf_stream(48, 5000, alpha=1.2, seed=31).items)
        a = SlidingWindowGSampler(L1L2Measure(), window=800, instances=24, seed=5)
        a.extend(items[:2500])
        b = SlidingWindowGSampler(L1L2Measure(), window=800, instances=24, seed=88)
        load_state(b, save_state(a))
        a.extend(items[2500:])
        b.extend(items[2500:])
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())
        assert a.sample().item == b.sample().item

    def test_sw_g_restore_rejects_mismatch(self):
        a = SlidingWindowGSampler(L1L2Measure(), window=100, instances=4, seed=0)
        wrong_window = SlidingWindowGSampler(
            L1L2Measure(), window=200, instances=4, seed=0
        )
        with pytest.raises(ValueError, match="window"):
            wrong_window.restore(a.snapshot())
        wrong_measure = SlidingWindowGSampler(
            LpMeasure(1.0), window=100, instances=4, seed=0
        )
        with pytest.raises(ValueError, match="measure"):
            wrong_measure.restore(a.snapshot())

    def test_sw_lp_roundtrip_restores_normalizer(self):
        items = np.asarray(zipf_stream(48, 4000, alpha=1.3, seed=32).items)
        a = SlidingWindowLpSampler(2.0, window=700, instances=48, seed=6)
        a.update_batch(items[:2000])
        assert all("aux" in gen for gen in a.snapshot()["generations"].values())
        b = SlidingWindowLpSampler(2.0, window=700, instances=48, seed=13)
        load_state(b, save_state(a))
        assert b.normalizer() == a.normalizer()
        a.update_batch(items[2000:])
        b.update_batch(items[2000:])
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())
        assert b.normalizer() == a.normalizer()

    def test_sw_lp_p1_roundtrip_has_no_normalizer_state(self):
        a = SlidingWindowLpSampler(1.0, window=50, instances=8, seed=1)
        a.update_batch(np.arange(40))
        state = a.snapshot()
        assert not any("aux" in gen for gen in state["generations"].values())
        b = SlidingWindowLpSampler(1.0, window=50, instances=8, seed=2)
        b.restore(state)
        assert b.position == 40
        assert b.normalizer() == 1.0
        assert state_to_bytes(b.snapshot()) == state_to_bytes(state)

    def test_sw_f0_roundtrip_continues_bitwise(self):
        items = np.asarray(zipf_stream(80, 4000, alpha=1.0, seed=33).items)
        a = SlidingWindowF0Sampler(80, window=600, seed=7)
        a.update_batch(items[:2000])
        b = SlidingWindowF0Sampler(80, window=600, seed=55)
        load_state(b, save_state(a))
        a.update_batch(items[2000:])
        b.update_batch(items[2000:])
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())
        assert a.sample().item == b.sample().item

    def test_sw_f0_restore_rejects_mismatch(self):
        a = SlidingWindowF0Sampler(64, window=100, seed=0)
        b = SlidingWindowF0Sampler(128, window=100, seed=0)
        with pytest.raises(ValueError):
            b.restore(a.snapshot())

    def test_sw_samplers_support_snapshot_protocol(self):
        for sampler in (
            SlidingWindowGSampler(L1L2Measure(), window=10, instances=2, seed=0),
            SlidingWindowLpSampler(2.0, window=10, instances=2, seed=0),
            SlidingWindowF0Sampler(16, window=10, seed=0),
        ):
            buf = save_state(sampler)
            assert state_from_bytes(buf)["kind"] == sampler.snapshot()["kind"]


class TestPoolMergeExactness:
    def test_merge_matches_single_stream_distribution(self):
        """merge(A, B) over a disjoint partition ≡ one G-sampler on A‖B
        — checked on the conditional output distribution."""
        stream = zipf_stream(30, 1600, alpha=1.2, seed=11)
        items = np.asarray(stream.items)
        target = g_target(stream.frequencies(), L1L2Measure())

        def run(seed):
            half_a, half_b = _partition(items, 2)
            a = TrulyPerfectGSampler(L1L2Measure(), m_hint=1600, seed=seed)
            b = TrulyPerfectGSampler(L1L2Measure(), m_hint=1600, seed=seed + 10**6)
            a.update_batch(half_a)
            b.update_batch(half_b)
            a.merge(b)
            return a.sample()

        assert_matches_distribution(run, target, trials=300)

    def test_merge_associativity_distribution(self):
        """Both fold orders of three shards match the single-stream law."""
        stream = zipf_stream(24, 1500, alpha=1.1, seed=12)
        items = np.asarray(stream.items)
        target = g_target(stream.frequencies(), LpMeasure(1.0))

        def make(seed):
            shards = []
            for k, part in enumerate(_partition(items, 3)):
                s = TrulyPerfectGSampler(
                    LpMeasure(1.0), instances=24, seed=seed + k * 7919
                )
                s.update_batch(part)
                shards.append(s)
            return shards

        def run_left(seed):
            a, b, c = make(seed)
            a.merge(b)
            a.merge(c)
            return a.sample()

        def run_right(seed):
            a, b, c = make(seed)
            b.merge(c)
            a.merge(b)
            return a.sample()

        assert_matches_distribution(run_left, target, trials=300)
        assert_matches_distribution(run_right, target, trials=300, seed_offset=10**7)

    def test_merge_positions_and_structure(self):
        items = np.asarray(zipf_stream(40, 2000, alpha=1.0, seed=13).items)
        half_a, half_b = _partition(items, 2)
        a = SamplerPool(8, seed=1)
        b = SamplerPool(8, seed=2)
        a.update_batch(half_a)
        b.update_batch(half_b)
        a.merge(b)
        assert a.position == 2000
        finals = a.finalize()
        assert len(finals) == 8
        for item, count, ts in finals:
            assert count >= 1
            assert 1 <= ts <= 2000
        # Shared counters stay consistent: counts[i] ≥ every holder's need.
        state = pool_columns(a.snapshot())
        counts = dict(zip(state["count_keys"].tolist(), state["count_vals"].tolist()))
        offsets = state["offsets"].tolist()
        assert state["items"].tolist() == [item for item, __, ___ in finals]
        for idx, (item, count, __) in enumerate(finals):
            assert counts[item] - offsets[idx] == count

    def test_merge_empty_other_is_noop(self):
        a = SamplerPool(4, seed=1)
        a.update_batch(np.arange(10))
        before = a.finalize()
        a.merge(SamplerPool(4, seed=2))
        assert a.finalize() == before

    def test_merge_into_empty_adopts_other(self):
        a = SamplerPool(4, seed=1)
        b = SamplerPool(4, seed=2)
        b.update_batch(np.arange(50))
        a.merge(b)
        assert a.position == 50
        assert a.finalize() == b.finalize()

    def test_merge_validates(self):
        with pytest.raises(ValueError):
            SamplerPool(4, seed=0).merge(SamplerPool(8, seed=0))
        with pytest.raises(TypeError):
            SamplerPool(4, seed=0).merge(object())


class TestLpAndF0Merge:
    def test_lp_merge_distribution(self):
        stream = zipf_stream(24, 1500, alpha=1.4, seed=15)
        items = np.asarray(stream.items)
        target = lp_target(stream.frequencies(), 2.0)

        def run(seed):
            half_a, half_b = _partition(items, 2)
            a = TrulyPerfectLpSampler(p=2.0, n=24, seed=seed)
            b = TrulyPerfectLpSampler(p=2.0, n=24, seed=seed + 10**6)
            a.update_batch(half_a)
            b.update_batch(half_b)
            a.merge(b)
            return a.sample()

        assert_matches_distribution(run, target, trials=300)

    def test_lp_merge_normalizer_certified(self):
        items = np.asarray(zipf_stream(32, 3000, alpha=1.5, seed=16).items)
        half_a, half_b = _partition(items, 2)
        a = TrulyPerfectLpSampler(p=2.0, n=32, seed=1)
        b = TrulyPerfectLpSampler(p=2.0, n=32, seed=2)
        a.update_batch(half_a)
        b.update_batch(half_b)
        a.merge(b)
        linf = int(np.bincount(items, minlength=32).max())
        # ζ must certify the global max increment f∞^p − (f∞−1)^p.
        assert a.normalizer() >= linf**2 - (linf - 1) ** 2

    def test_f0_merge_equals_concatenated_run(self):
        """Same seed ⇒ same random subsets ⇒ merged state is *exactly*
        the single-run state over A‖B, including T-table order."""
        full = np.asarray(uniform_stream(300, 5000, seed=8).items)
        part_a, part_b = _partition(full, 2)
        single = TrulyPerfectF0Sampler(300, seed=77)
        single.update_batch(np.concatenate([part_a, part_b]))
        a = TrulyPerfectF0Sampler(300, seed=77)
        b = TrulyPerfectF0Sampler(300, seed=77)
        a.update_batch(part_a)
        b.update_batch(part_b)
        a.merge(b)
        for cs, cm in zip(single._copies, a._copies):
            assert f0_state(cs, *F0_FIELDS) == f0_state(cm, *F0_FIELDS)

    def test_f0_merge_distribution(self):
        stream = zipf_stream(100, 1200, alpha=1.1, seed=17)
        items = np.asarray(stream.items)
        target = f0_target(stream.frequencies())

        def run(seed):
            part_a, part_b = _partition(items, 2)
            a = TrulyPerfectF0Sampler(100, seed=seed)
            b = TrulyPerfectF0Sampler(100, seed=seed)
            a.update_batch(part_a)
            b.update_batch(part_b)
            a.merge(b)
            return a.sample()

        assert_matches_distribution(run, target, trials=300)

    def test_f0_merge_requires_shared_subsets(self):
        a = TrulyPerfectF0Sampler(100, seed=1)
        b = TrulyPerfectF0Sampler(100, seed=2)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_oracle_f0_merge_keeps_global_min(self):
        items = np.asarray(uniform_stream(200, 2000, seed=18).items)
        part_a, part_b = _partition(items, 2)
        a = RandomOracleF0Sampler(200, seed=3)
        b = RandomOracleF0Sampler(200, seed=4)
        a.update_batch(part_a)
        b.update_batch(part_b)
        winner = a if a._min_val <= b._min_val else b
        expected = (winner._min_item, winner._min_val, winner._count)
        a.merge(b)
        assert (a._min_item, a._min_val, a._count) == expected


class TestMisraGriesMergeAndBatch:
    def test_merged_bound_still_certified(self):
        items = np.asarray(zipf_stream(64, 6000, alpha=1.3, seed=19).items)
        half_a, half_b = _partition(items, 2)
        a = MisraGries(8)
        b = MisraGries(8)
        a.update_batch(half_a)
        b.update_batch(half_b)
        a.merge(b)
        freq = np.bincount(items, minlength=64)
        assert a.stream_length == 6000
        assert len(a.items()) <= 8
        assert a.linf_upper_bound() >= freq.max()
        for item, est in a.items().items():
            assert est <= freq[item]

    def test_batch_update_bound_certified(self):
        items = np.asarray(zipf_stream(64, 5000, alpha=1.2, seed=20).items)
        mg = MisraGries(8)
        mg.update_batch(items)
        freq = np.bincount(items, minlength=64)
        assert mg.linf_upper_bound() >= freq.max()
        for item, est in mg.items().items():
            assert est <= freq[item]

    def test_merge_validates_capacity(self):
        with pytest.raises(ValueError):
            MisraGries(4).merge(MisraGries(8))


class TestMergedHelper:
    def test_merged_leaves_inputs_untouched(self):
        items = np.asarray(zipf_stream(40, 2000, alpha=1.0, seed=21).items)
        shards = []
        for k, part in enumerate(_partition(items, 4)):
            pool = SamplerPool(8, seed=k)
            pool.update_batch(part)
            shards.append(pool)
        positions = [s.position for s in shards]
        folded = merged(shards)
        assert folded.position == 2000
        assert [s.position for s in shards] == positions

    def test_merged_rejects_empty(self):
        with pytest.raises(ValueError):
            merged([])
