"""repro.obs — metrics, tracing, and the instrumentation sweep.

Covers the instrument semantics (thread-safe exactness, log-bucket
quantiles vs numpy, label-cardinality bounds), the Prometheus/JSON
expositions (self-checked with :mod:`repro.obs.promcheck`), the span
API and :class:`TraceRecorder` harness, and the end-to-end contracts:
a served workload's exposition carries every catalogued instrument,
and the disabled registry leaves the serving path's bitwise-replay
guarantees untouched.
"""

import copy
import io
import json
import threading

import numpy as np
import pytest

from repro.engine import ShardedSamplerEngine
from repro.obs import (
    METRIC_CATALOG,
    NOOP,
    MetricsRegistry,
    TraceRecorder,
    Tracer,
    current_registry,
    log_buckets,
    span,
    use_registry,
)
from repro.obs.catalog import CATALOG_HELP
from repro.obs.metrics import MAX_CHILDREN
from repro.obs.promcheck import check_text
from repro.serving import RateLimited, SamplerService
from repro.streams.generators import zipf_stream
from repro.windows import WindowBank

G_CONFIG = {"kind": "g", "measure": {"name": "huber"}, "instances": 16}
WB_CONFIG = {
    "kind": "window_bank",
    "resolutions": [60.0, 300.0],
    "measure": {"name": "huber"},
    "instances": 8,
}


def make_items(m: int, seed: int = 3, n: int = 1 << 10) -> np.ndarray:
    return np.asarray(zipf_stream(n, m, alpha=1.2, seed=seed).items)


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------
class TestInstruments:
    def test_counter_inc_add(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "help")
        c.inc()
        c.add(4)
        assert c.total() == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total")
        with pytest.raises(ValueError):
            c.add(-1)

    def test_gauge_set_add_and_callback(self):
        reg = MetricsRegistry()
        g = reg.gauge("t_gauge")
        g.set(3.0)
        g.add(-1.0)
        assert g.value == 2.0
        box = [7.0]
        g.set_function(lambda: box[0])
        assert g.value == 7.0
        box[0] = 9.0
        assert g.value == 9.0

    def test_gauge_raising_callback_renders_nan(self):
        reg = MetricsRegistry()
        g = reg.gauge("t_gauge")
        g.set_function(lambda: 1 / 0)
        assert np.isnan(g.value)
        # The exposition must survive a broken callback.
        assert "t_gauge NaN" in reg.render_prometheus()

    def test_counter_thread_safety_exact(self):
        """Concurrent increments lose nothing — counters are locked,
        not racy, so stats() reconciliation can assert equality."""
        reg = MetricsRegistry()
        c = reg.counter("t_total", labels=("who",))
        children = [c.labels(who=str(i)) for i in range(4)]
        per_thread, threads = 5_000, 8

        def work(i):
            child = children[i % 4]
            for __ in range(per_thread):
                child.inc()

        ts = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert c.total() == per_thread * threads

    def test_histogram_observe_thread_safety(self):
        reg = MetricsRegistry()
        h = reg.histogram("t_seconds")
        per_thread, threads = 4_000, 6

        def work():
            for i in range(per_thread):
                h.observe(1e-6 * (1 + i % 100))

        ts = [threading.Thread(target=work) for __ in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        counts, __, count = h.labels().snapshot()
        assert count == per_thread * threads
        assert sum(counts) == count

    def test_log_buckets_monotone(self):
        bounds = log_buckets(1e-6, 16.0, 2.0)
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[0] == pytest.approx(1e-6)
        assert bounds[-1] >= 16.0

    def test_histogram_quantiles_vs_numpy(self):
        """Bucket-interpolated quantiles land within one bucket factor
        of the exact numpy percentiles (factor-2 default ladder)."""
        rng = np.random.default_rng(11)
        data = rng.lognormal(mean=-9.0, sigma=1.5, size=20_000)
        reg = MetricsRegistry()
        h = reg.histogram("t_seconds")
        for v in data:
            h.observe(float(v))
        for pct in (50, 90, 99):
            exact = float(np.percentile(data, pct))
            estimate = h.quantile(pct / 100.0)
            assert exact / 2.05 <= estimate <= exact * 2.05, (pct, exact, estimate)

    def test_histogram_percentiles_keys(self):
        reg = MetricsRegistry()
        h = reg.histogram("t_seconds")
        h.observe(0.001)
        assert set(h.percentiles()) == {"p50", "p90", "p99"}

    def test_empty_histogram_quantile_nan(self):
        reg = MetricsRegistry()
        h = reg.histogram("t_seconds")
        assert np.isnan(h.quantile(0.5))

    def test_label_children_and_total_filter(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", labels=("tenant", "outcome"))
        c.labels(tenant="a", outcome="ok").add(2)
        c.labels(tenant="a", outcome="err").add(3)
        c.labels(tenant="b", outcome="ok").add(5)
        assert c.total() == 10
        assert c.total(tenant="a") == 5
        assert c.total(outcome="ok") == 7
        with pytest.raises(ValueError):
            c.total(nope="x")
        with pytest.raises(ValueError):
            c.labels(tenant="a")  # missing the outcome label

    def test_label_cardinality_overflow(self):
        """Past MAX_CHILDREN distinct label sets, new children collapse
        into the shared ``_other`` child — adversarial label values
        (tenant ids, say) cannot grow the registry unboundedly."""
        reg = MetricsRegistry()
        c = reg.counter("t_total", labels=("tenant",))
        extra = 50
        for i in range(MAX_CHILDREN + extra):
            c.labels(tenant=f"t{i}").inc()
        children = c.children()
        assert len(children) == MAX_CHILDREN + 1
        assert children[("_other",)].value == extra
        assert c.total() == MAX_CHILDREN + extra

    def test_type_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("t_total", labels=("a",))
        with pytest.raises(ValueError):
            reg.gauge("t_total", labels=("a",))
        with pytest.raises(ValueError):
            reg.counter("t_total", labels=("b",))

    def test_disabled_registry_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("t_total", labels=("x",))
        assert c is NOOP
        assert c.labels(x="y") is NOOP
        assert not c.enabled
        c.inc()
        c.add(10)
        assert c.total() == 0
        assert reg.names() == []
        assert reg.render_prometheus() == ""

    def test_instruments_are_deepcopy_shared(self):
        """Samplers holding instrument handles get deep-copied into
        folds and query views; the copies must report into the *same*
        counters, not silently forked ones."""
        reg = MetricsRegistry()
        c = reg.counter("t_total").labels()
        holder = {"c": c, "reg": reg}
        clone = copy.deepcopy(holder)
        assert clone["c"] is c
        assert clone["reg"] is reg

    def test_use_registry_is_thread_local(self):
        reg = MetricsRegistry()
        seen = {}

        def other():
            seen["inner"] = current_registry()

        with use_registry(reg):
            assert current_registry() is reg
            t = threading.Thread(target=other)
            t.start()
            t.join()
        assert current_registry() is not reg
        assert seen["inner"] is not reg


# ---------------------------------------------------------------------------
# exposition
# ---------------------------------------------------------------------------
class TestExposition:
    def _populated(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_t_items_total", "items", labels=("tenant",))
        c.labels(tenant="a").add(3)
        c.labels(tenant='we"ird\\x').add(1)  # escaping round-trip
        reg.gauge("repro_t_depth", "depth").set(4)
        h = reg.histogram("repro_t_seconds", "latency")
        h.observe(0.002)
        h.observe(0.1)
        return reg

    def test_prometheus_passes_promcheck(self):
        assert check_text(self._populated().render_prometheus()) == []

    def test_prometheus_golden_shape(self):
        text = self._populated().render_prometheus()
        assert "# HELP repro_t_items_total items" in text
        assert "# TYPE repro_t_items_total counter" in text
        assert 'repro_t_items_total{tenant="a"} 3' in text
        assert "# TYPE repro_t_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert "repro_t_seconds_count 2" in text
        assert "repro_t_seconds_sum" in text

    def test_prometheus_label_escaping(self):
        text = self._populated().render_prometheus()
        assert 'tenant="we\\"ird\\\\x"' in text
        assert check_text(text) == []

    def test_bucket_counts_cumulative(self):
        text = self._populated().render_prometheus()
        values = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_t_seconds_bucket")
        ]
        assert values == sorted(values)
        assert values[-1] == 2

    def test_empty_family_still_renders_headers(self):
        reg = MetricsRegistry()
        reg.counter("repro_t_items_total", "items", labels=("tenant",))
        text = reg.render_prometheus()
        assert "# TYPE repro_t_items_total counter" in text
        # no samples yet — promcheck's liveness check must flag it
        assert any("no sample" in e for e in check_text(text))
        assert check_text(text, require_samples=False) == []

    def test_promcheck_catches_malformed_lines(self):
        assert check_text("what even is this line") != []
        assert check_text("# NONSENSE foo bar") != []
        text = "# TYPE a_total counter\na_total 1\n"
        assert check_text(text) == []
        assert check_text(text, require=("missing_total",)) != []

    def test_render_json_round_trips(self):
        payload = json.loads(self._populated().render_json_text())
        assert payload["repro_t_depth"]["samples"][0]["value"] == 4
        histo = payload["repro_t_seconds"]["samples"][0]
        assert histo["count"] == 2
        assert histo["p99"] is not None
        assert histo["sum"] == pytest.approx(0.102)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------
class TestTracing:
    def test_span_records_wall_time_and_attrs(self):
        with TraceRecorder() as rec:
            with span("unit.op", shard=3) as sp:
                sp.set(extra="x")
        (event,) = rec.spans("unit.op")
        assert event.outcome == "ok"
        assert event.duration_ns >= 0
        assert event.attrs == {"shard": 3, "extra": "x"}

    def test_span_records_exception_outcome(self):
        with TraceRecorder() as rec:
            with pytest.raises(KeyError):
                with span("unit.fail"):
                    raise KeyError("boom")
        assert rec.outcomes("unit.fail") == ["KeyError"]

    def test_disabled_ambient_tracer_is_noop(self):
        # default state: no recorder installed, spans vanish
        with span("unit.ignored"):
            pass
        with TraceRecorder() as rec:
            pass
        assert rec.names() == []

    def test_ring_buffer_bounds_memory(self):
        tracer = Tracer(capacity=16)
        for i in range(100):
            with tracer.span("op", i=i):
                pass
        events = tracer.events()
        assert len(events) == 16
        assert events[-1].attrs["i"] == 99
        assert tracer.dropped_hint == 84

    def test_jsonl_export_round_trip(self):
        with TraceRecorder() as rec:
            with span("unit.op", k=1):
                pass
        buf = io.StringIO()
        assert rec.export_jsonl(buf) == 1
        row = json.loads(buf.getvalue())
        assert row["name"] == "unit.op"
        assert row["outcome"] == "ok"
        assert row["attrs"] == {"k": 1}
        assert row["duration_us"] >= 0


# ---------------------------------------------------------------------------
# engine instrumentation
# ---------------------------------------------------------------------------
class TestEngineInstrumentation:
    def _engine(self, reg, **kw):
        return ShardedSamplerEngine(G_CONFIG, shards=4, seed=7, metrics=reg, **kw)

    def test_fold_regimes_counted(self):
        reg = MetricsRegistry()
        engine = self._engine(reg)
        engine.ingest(make_items(4_000))
        engine.sample()  # scratch fold
        engine.sample()  # full hit
        engine.update(3)  # dirty one shard
        engine.sample()  # scratch fold
        fold = reg.get("repro_engine_fold_total")
        assert fold.total(regime="scratch") == 2
        assert fold.total(regime="hit") == 1
        info = engine.cache_info()
        assert fold.total(regime="hit") == info["hits"]
        assert fold.total(regime="scratch") == info["misses"]
        assert fold.total() == info["hits"] + info["misses"]

    def test_fold_duration_histogram_observes(self):
        reg = MetricsRegistry()
        engine = self._engine(reg)
        engine.ingest(np.arange(1_000))
        engine.sample()
        h = reg.get("repro_engine_fold_seconds")
        __, total_sum, count = h.labels(regime="scratch").snapshot()
        assert count >= 1
        assert total_sum > 0

    def test_epoch_bump_reasons(self):
        reg = MetricsRegistry()
        engine = self._engine(reg)
        engine.ingest(np.arange(100))  # all four shards see items
        engine.invalidate_cache()
        epoch = reg.get("repro_engine_epoch_bumps_total")
        assert epoch.total(reason="ingest") == 4
        assert epoch.total(reason="invalidate") == 4
        # the counter reconciles with the engine's own epoch list
        assert epoch.total() == sum(engine.mutation_epochs())

    def test_restore_and_merge_reasons(self):
        reg = MetricsRegistry()
        engine = self._engine(reg)
        engine.ingest(np.arange(200))
        engine.restore(engine.snapshot())
        epoch = reg.get("repro_engine_epoch_bumps_total")
        assert epoch.total(reason="restore") == 4
        other = self._engine(MetricsRegistry())
        other.ingest(np.arange(200, 300))
        engine.merge(other)
        assert epoch.total(reason="merge") == 4
        assert epoch.total() == sum(engine.mutation_epochs())

    def test_engine_fold_span(self):
        engine = self._engine(MetricsRegistry())
        engine.ingest(np.arange(500))
        with TraceRecorder() as rec:
            engine.sample()
        (event,) = rec.spans("engine.fold")
        assert event.attrs["regime"] == "scratch"
        assert event.attrs["shards"] == 4

    def test_metrics_do_not_perturb_rng(self):
        """Bitwise parity: identical ingest/query sequences with metrics
        on vs off return identical samples — instrumentation never
        consumes randomness."""

        def run(reg):
            engine = self._engine(reg)
            engine.ingest(np.arange(2_000))
            out = [engine.sample() for __ in range(3)]
            engine.ingest(np.arange(2_000, 2_400))
            out += engine.sample_many(5)
            return out

        assert run(MetricsRegistry()) == run(MetricsRegistry(enabled=False))


# ---------------------------------------------------------------------------
# window-bank instrumentation
# ---------------------------------------------------------------------------
class TestWindowBankInstrumentation:
    def test_per_rung_ingest_counts(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            bank = WindowBank([60.0, 300.0], p=2.0, seed=5)
        bank.update_batch(np.arange(500) % 64, np.linspace(0.0, 100.0, 500))
        bank.update(3, 101.0)
        ing = reg.get("repro_windows_ingested_items_total")
        # every rung sees the full stream
        assert ing.total(resolution="60") == 501
        assert ing.total(resolution="300") == 501

    def test_expiry_reclaimed_per_rung(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            bank = WindowBank([10.0], p=2.0, seed=5)
        bank.update_batch(np.arange(100) % 32, np.linspace(0.0, 9.0, 100))
        freed = bank.compact(now=1_000.0)  # everything expired
        assert freed > 0
        exp = reg.get("repro_windows_expired_reclaimed_bytes_total")
        assert exp.total(resolution="10") == freed

    def test_query_view_shares_counters(self):
        """A deep-copied query view reports into the same registry
        children (shared identity), not forked ones."""
        reg = MetricsRegistry()
        with use_registry(reg):
            bank = WindowBank([60.0], p=2.0, seed=5)
        view = bank.spawn_query_rng(np.random.default_rng(1))
        assert view._m_ingested[60.0] is bank._m_ingested[60.0]


# ---------------------------------------------------------------------------
# serving instrumentation
# ---------------------------------------------------------------------------
class TestServingInstrumentation:
    def _serve(self, **kw):
        kw.setdefault("shards", 4)
        kw.setdefault("seed", 0)
        kw.setdefault("ingest_workers", 2)
        return SamplerService(G_CONFIG, **kw)

    def test_served_workload_counts(self):
        items = make_items(5_000)
        with self._serve() as svc:
            svc.submit(items[:3_000], tenant="a")
            svc.submit(items[3_000:], tenant="b")
            svc.flush()
            svc.refresh()
            for __ in range(5):
                svc.sample()
            svc.sample_many(4)
            reg = svc.metrics
            sub = reg.get("repro_serving_submitted_items_total")
            assert sub.total(tenant="a") == 3_000
            assert sub.total(tenant="b") == 2_000
            assert reg.get("repro_serving_applied_items_total").total() == 5_000
            q = reg.get("repro_serving_query_seconds")
            assert q.labels(method="sample", outcome="ok").snapshot()[2] == 5
            assert q.labels(method="sample_many", outcome="ok").snapshot()[2] == 1
            refresh = reg.get("repro_serving_fold_refresh_total")
            assert refresh.total(result="published") >= 1
            stats = svc.stats()
            assert stats["metrics_enabled"] is True
            assert stats["ingest"]["submitted_items"] == 5_000
            assert stats["ingest"]["applied_items"] == 5_000

    def test_rate_limited_counted(self):
        with self._serve(
            tenant_rates={"slow": (10.0, 20.0)},
            refresh_interval=1e9,
            compact_interval=None,
        ) as svc:
            svc.submit(make_items(16), tenant="slow")
            with pytest.raises(RateLimited):
                svc.submit(make_items(16), tenant="slow")
            svc.flush()
            reg = svc.metrics
            assert (
                reg.get("repro_serving_rate_limited_total").total(tenant="slow")
                == 1
            )
            assert svc.stats()["ingest"]["rate_limited"] == 1
            sub_s = reg.get("repro_serving_submit_seconds")
            assert sub_s.labels(outcome="rate_limited").snapshot()[2] == 1
            assert sub_s.labels(outcome="accepted").snapshot()[2] == 1

    def test_metrics_false_is_noop_and_stats_keys_survive(self):
        with self._serve(metrics=False) as svc:
            svc.submit(np.arange(4_000))
            svc.flush()
            svc.refresh()
            svc.sample()
            stats = svc.stats()
            assert stats["metrics_enabled"] is False
            assert svc.metrics.render_prometheus() == ""
            # the pre-obs stats keys survive, fed by the fallback ints
            assert stats["ingest"]["submitted_items"] == 4_000
            assert stats["ingest"]["applied_items"] == 4_000
            assert stats["ingest"]["backpressure_shed"] == 0
            assert stats["ingest"]["rate_limited"] == 0
            assert stats["compaction"]["passes"] >= 0
            assert stats["query"]["served"] == 1

    def test_serialized_bitwise_parity_with_and_without_metrics(self):
        """The serialized-replay contract holds with metrics on, off,
        and against direct engine calls."""
        items = make_items(3_000, seed=9)

        def served(metrics):
            out = []
            with SamplerService(
                G_CONFIG, shards=4, seed=7, serialized=True,
                compact_interval=None, metrics=metrics,
            ) as svc:
                for chunk in np.array_split(items, 3):
                    svc.submit(chunk)
                    out.append(svc.sample())
            return out

        engine = ShardedSamplerEngine(G_CONFIG, shards=4, seed=7)
        direct = []
        for chunk in np.array_split(items, 3):
            engine.ingest(chunk)
            direct.append(engine.sample())
        assert served(True) == direct
        assert served(False) == direct

    def test_stats_registry_matches_component_ints(self):
        """Dual-written counters reconcile exactly with the components'
        internal integers after a concurrent workload."""
        items = make_items(20_000, seed=4, n=1 << 12)
        with self._serve(ingest_workers=4) as svc:
            for lo in range(0, items.size, 2_048):
                svc.submit(items[lo:lo + 2_048])
            svc.flush()
            reg = svc.metrics
            queues = svc._queues
            assert (
                int(reg.get("repro_serving_submitted_items_total").total())
                == queues.submitted_items
            )
            assert (
                int(reg.get("repro_serving_applied_items_total").total())
                == queues.applied_items
            )
            assert int(reg.get("repro_serving_failed_items_total").total()) == 0

    def _served_window_bank(self):
        return SamplerService(
            WB_CONFIG, shards=4, seed=0, ingest_workers=2,
            tenant_rates={"slow": (10.0, 50.0)},
            compact_interval=None,
        )

    def test_full_catalog_present_in_serving_exposition(self):
        """Acceptance: a served window_bank workload (with a forced
        rate-limit) renders every catalogued instrument and passes the
        format check."""
        items = np.arange(3_000) % 512
        ts = np.linspace(0.0, 30.0, 3_000)
        with self._served_window_bank() as svc:
            svc.submit(items, ts, tenant="fast")
            svc.flush()
            svc.refresh()
            svc.submit(np.arange(30), np.linspace(30.0, 31.0, 30), tenant="slow")
            with pytest.raises(RateLimited):
                svc.submit(
                    np.arange(30), np.linspace(31.0, 32.0, 30), tenant="slow"
                )
            svc.sample(horizon=60.0)
            svc.sample_many(3, horizon=60.0)
            text = svc.metrics.render_prometheus()
        assert check_text(text) == []
        for entry in METRIC_CATALOG:
            assert f"# TYPE {entry.name} {entry.type}" in text, entry.name

    def test_catalog_help_consistency(self):
        """Every catalog entry has help text, and the registered
        families carry the catalog's type, labels, and help."""
        assert len(METRIC_CATALOG) == len(CATALOG_HELP)
        with self._served_window_bank() as svc:
            reg = svc.metrics
            for entry in METRIC_CATALOG:
                family = reg.get(entry.name)
                assert family is not None, entry.name
                assert family.type == entry.type, entry.name
                assert family.label_names == entry.labels, entry.name
                assert family.help == entry.meaning, entry.name

    def test_queue_depth_gauges_live(self):
        with self._serve() as svc:
            svc.submit(np.arange(1_000))
            svc.flush()
            svc.refresh()
            reg = svc.metrics
            assert reg.get("repro_serving_queue_depth").total() == 0  # drained
            assert reg.get("repro_serving_queue_pending_items").value == 0
            assert reg.get("repro_serving_fold_generation").value >= 0
            assert reg.get("repro_serving_watermark_skew_latched").value == 0

    def test_apply_and_submit_spans_emitted(self):
        with TraceRecorder() as rec:
            with self._serve(refresh_interval=0, compact_interval=None) as svc:
                svc.submit(np.arange(500))
                svc.flush()
        names = rec.names()
        assert "serving.submit" in names
        assert "serving.apply" in names
