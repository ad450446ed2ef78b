"""The perf suite's runner and row table (``benchmarks/perf_suite.py``),
driven with fake cells and a fake steal counter: nothing is timed."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_suite.py"


@pytest.fixture(scope="module")
def suite():
    spec = importlib.util.spec_from_file_location("perf_suite", SUITE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_cell_order_reverses_every_repetition(suite):
    calls = []

    def cell(name):
        calls.append(name)
        return {"v": 1.0}

    pairs = suite.alternate(
        {name: (lambda name=name: cell(name)) for name in "abc"},
        4, steal=lambda: 0, keep=4,
    )
    assert calls == list("abccbaabccba")
    assert len(pairs) == 4
    assert all(pair["steal_ticks"] == 0 and set(pair) == {"a", "b", "c", "steal_ticks"}
               for pair in pairs)


def test_ratio_stats_are_quartiles_of_the_per_pair_ratios(suite):
    # Per-pair ratios 3, 1, 5, 1, 2: median 2, q1 1, q3 3.  The ratio of
    # the side medians (3 / 2) is a different number.
    sides = [(3.0, 1.0), (2.0, 2.0), (10.0, 2.0), (1.0, 1.0), (6.0, 3.0)]
    pairs = [{"a": {"x": a}, "b": {"x": b}} for a, b in sides]
    out = suite.read_row(suite.Row("r", "s", ("a", "b"), "x"), pairs, cores=2)
    assert (out["q1"], out["median"], out["q3"]) == (1.0, 2.0, 3.0)
    assert out["per_side"]["a"]["median"] == 3.0
    assert out["per_side"]["b"]["median"] == 2.0
    assert out["pairs"] == 5
    assert out["verdict"] == "report"


@pytest.mark.parametrize(
    "direction, bar, median, verdict",
    [
        ("min", 0.9, 0.89, "fail"),
        ("min", 0.9, 0.9, "pass"),
        ("min", 0.9, 0.91, "pass"),
        ("max", 1.1, 1.11, "fail"),
        ("max", 1.1, 1.1, "pass"),
        ("max", 1.1, 1.09, "pass"),
    ],
)
def test_gate_fails_exactly_when_the_median_crosses_its_bar(
    suite, direction, bar, median, verdict
):
    # The quartiles straddle the bar in every case: only the median counts.
    ratios = [median - 0.3, median - 0.05, median, median + 0.05, median + 0.3]
    pairs = [{"on": {"x": r}, "off": {"x": 1.0}} for r in ratios]
    row = suite.Row("r", "s", ("on", "off"), "x", bar, direction)
    out = suite.read_row(row, pairs, cores=2)
    assert out["median"] == median
    assert out["verdict"] == verdict


def test_every_row_fails_on_one_pair_and_core_bound_rows_skip(suite):
    row = suite.Row("ticks", "audit", ("on",), "audit_ticks", 1, "every")
    ticks = [{"on": {"audit_ticks": n}} for n in (3, 3, 0, 3)]
    assert suite.read_row(row, ticks, cores=2)["verdict"] == "fail"
    assert suite.read_row(row, ticks[:2], cores=2)["verdict"] == "pass"
    strict = suite.Row("p/t", "scaling", ("p", "t"), "x", 1.5, cores=4)
    pairs = [{"p": {"x": 1.0}, "t": {"x": 1.0}}] * 3
    assert suite.read_row(strict, pairs, cores=2)["verdict"] == "skipped"
    assert suite.read_row(strict, pairs, cores=4)["verdict"] == "fail"


@pytest.mark.parametrize(
    "keep, kept",
    [
        (3, [0, 2, 4]),  # three clean repetitions: exactly those
        (4, [0, 2, 4, 3]),  # too few clean: the four least-stolen
    ],
)
def test_unstolen_pairs_are_preferred(suite, keep, kept):
    schedule = [0, 2, 0, 1, 0, 3]  # steal ticks during each repetition
    ticks = [0]
    reps = iter(range(len(schedule)))

    def cell():
        rep = next(reps)
        ticks[0] += schedule[rep]
        return {"rep": rep}

    pairs = suite.alternate({"a": cell}, len(schedule), steal=lambda: ticks[0], keep=keep)
    assert [pair["a"]["rep"] for pair in pairs] == kept
    assert [pair["steal_ticks"] for pair in pairs] == [schedule[r] for r in kept]


def test_table_keeps_every_gate_constant(suite):
    bars = {row.bar for row in suite.rows(cores=2)}
    constants = {
        suite.MAX_CACHED_REGRESSION, suite.MIN_READ_HEAVY_SPEEDUP,
        suite.MIN_SAMPLE_MANY_SPEEDUP, suite.MAX_SERVED_P50_RATIO,
        suite.MIN_SERVED_INGEST_SPEEDUP, suite.MIN_OBS_THROUGHPUT_RATIO,
        suite.MAX_OBS_P50_RATIO, suite.MIN_AUDIT_THROUGHPUT_RATIO,
        suite.MAX_AUDIT_P50_RATIO, suite.MIN_AUDIT_TICKS,
        suite.MIN_TELEMETRY_THROUGHPUT_RATIO, suite.MIN_PROCESS_VS_THREAD_AT_4,
        suite.PARALLEL_TOL_IN_CORES, suite.PARALLEL_TOL_OVERSUBSCRIBED,
        suite.MIN_PARALLEL_INGEST_FLOOR, suite.MIN_INGEST_KERNEL_K1_FLOOR,
        *suite.MIN_INGEST_KERNEL_K8_FLOORS.values(), *suite.MAX_FOLD_US.values(),
    }
    assert constants <= bars
