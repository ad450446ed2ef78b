"""Config-driven construction: every kind builds, every typo fails loudly."""

import pytest

from repro.core.f0_sampler import (
    Algorithm5F0Sampler,
    BoundedMeasureSampler,
    RandomOracleF0Sampler,
    TrulyPerfectF0Sampler,
)
from repro.core.g_sampler import SamplerPool, TrulyPerfectGSampler
from repro.core.lp_sampler import TrulyPerfectLpSampler
from repro.core.measures import HuberMeasure, LpMeasure, TukeyMeasure
from repro.engine.registry import (
    build_measure,
    build_sampler,
    measure_names,
    register_measure,
    register_sampler,
    sampler_kinds,
)
from repro.sliding_window import (
    SlidingWindowF0Sampler,
    SlidingWindowGSampler,
    SlidingWindowLpSampler,
)
from repro.windows import (
    TimeWindowF0Sampler,
    TimeWindowGSampler,
    TimeWindowLpSampler,
    WindowBank,
)


class TestBuildMeasure:
    def test_builds_stock_measures(self):
        assert isinstance(build_measure({"name": "lp", "p": 1.5}), LpMeasure)
        assert isinstance(build_measure({"name": "huber", "tau": 2.0}), HuberMeasure)
        assert isinstance(build_measure({"name": "tukey"}), TukeyMeasure)

    def test_measure_instance_passthrough(self):
        measure = LpMeasure(2.0)
        assert build_measure(measure) is measure

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ValueError, match="huber"):
            build_measure({"name": "hubert"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            build_measure({"name": "huber", "sigma": 1.0})

    def test_registry_is_extensible(self):
        register_measure("always-l1", lambda cfg: LpMeasure(1.0))
        try:
            assert isinstance(build_measure({"name": "always-l1"}), LpMeasure)
            assert "always-l1" in measure_names()
        finally:
            from repro.engine import registry

            registry._MEASURES.pop("always-l1")


class TestBuildSampler:
    @pytest.mark.parametrize(
        "config,cls",
        [
            ({"kind": "lp", "p": 2.0, "n": 64}, TrulyPerfectLpSampler),
            (
                {"kind": "g", "measure": {"name": "l1l2"}, "m_hint": 1000},
                TrulyPerfectGSampler,
            ),
            ({"kind": "f0", "n": 128}, TrulyPerfectF0Sampler),
            ({"kind": "oracle-f0", "n": 128}, RandomOracleF0Sampler),
            ({"kind": "algorithm5-f0", "n": 128}, Algorithm5F0Sampler),
            ({"kind": "pool", "instances": 8}, SamplerPool),
            (
                {"kind": "bounded", "measure": {"name": "tukey", "tau": 3.0}, "n": 64},
                BoundedMeasureSampler,
            ),
            (
                {"kind": "sw-g", "measure": {"name": "lp", "p": 1.0}, "window": 50},
                SlidingWindowGSampler,
            ),
            ({"kind": "sw-lp", "p": 2.0, "window": 50}, SlidingWindowLpSampler),
            ({"kind": "sw-f0", "n": 128, "window": 50}, SlidingWindowF0Sampler),
            (
                {
                    "kind": "tw_g",
                    "measure": {"name": "l1l2"},
                    "horizon": 60.0,
                    "expected_window_count": 500,
                },
                TimeWindowGSampler,
            ),
            (
                {"kind": "tw_lp", "p": 2.0, "horizon": 60.0, "instances": 16},
                TimeWindowLpSampler,
            ),
            ({"kind": "tw_f0", "n": 128, "horizon": 60.0}, TimeWindowF0Sampler),
            (
                {"kind": "window_bank", "resolutions": [60, 300], "p": 2.0,
                 "n": 128, "instances": 16},
                WindowBank,
            ),
        ],
    )
    def test_builds_every_kind(self, config, cls):
        sampler = build_sampler({**config, "seed": 0})
        assert isinstance(sampler, cls)

    def test_config_not_mutated(self):
        config = {"kind": "lp", "p": 2.0, "n": 64, "seed": 1}
        build_sampler(config)
        assert config == {"kind": "lp", "p": 2.0, "n": 64, "seed": 1}

    def test_unknown_kind_lists_alternatives(self):
        with pytest.raises(ValueError, match="oracle-f0"):
            build_sampler({"kind": "nope"})
        # The listing includes the windowed kinds and never a bare
        # KeyError escapes.
        with pytest.raises(ValueError, match="window_bank"):
            build_sampler({"kind": "nope"})
        with pytest.raises(ValueError, match="known:"):
            build_sampler({})  # kind missing entirely

    def test_unknown_kind_suggests_close_match(self):
        with pytest.raises(ValueError, match="did you mean 'tw_g'"):
            build_sampler({"kind": "tw-g"})
        with pytest.raises(ValueError, match="did you mean 'window_bank'"):
            build_sampler({"kind": "windowbank"})
        with pytest.raises(ValueError, match="did you mean 'huber'"):
            build_measure({"name": "huberr"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="pee"):
            build_sampler({"kind": "lp", "p": 2.0, "n": 64, "pee": 3.0})
        # The count-window Lp sampler has no smooth histogram, so no
        # accuracy knob.
        with pytest.raises(ValueError, match="unknown keys.*alpha"):
            build_sampler({"kind": "sw-lp", "p": 2.0, "window": 50, "alpha": 0.5})

    def test_missing_required_key_is_config_error(self):
        with pytest.raises(ValueError, match="requires key 'p'"):
            build_sampler({"kind": "lp", "n": 64})
        with pytest.raises(ValueError, match="requires key 'measure'"):
            build_sampler({"kind": "g"})
        with pytest.raises(ValueError, match="requires key 'p'"):
            build_measure({"name": "lp"})

    def test_bounded_requires_bounded_measure(self):
        with pytest.raises(ValueError, match="bounded"):
            build_sampler(
                {"kind": "bounded", "measure": {"name": "lp", "p": 1.0}, "n": 64}
            )

    def test_registry_is_extensible(self):
        register_sampler("test-pool", lambda cfg: SamplerPool(int(cfg.pop("r"))))
        try:
            sampler = build_sampler({"kind": "test-pool", "r": 4})
            assert isinstance(sampler, SamplerPool)
            assert "test-pool" in sampler_kinds()
        finally:
            from repro.engine import registry

            registry._SAMPLERS.pop("test-pool")

    def test_seeded_builds_are_deterministic(self):
        stream = list(range(50)) * 4
        a = build_sampler({"kind": "lp", "p": 2.0, "n": 64, "seed": 9})
        b = build_sampler({"kind": "lp", "p": 2.0, "n": 64, "seed": 9})
        a.extend(stream)
        b.extend(stream)
        assert a.sample().item == b.sample().item
