"""End-to-end: a traced StorageEngine produces metrics + a nested span tree."""

from __future__ import annotations

import json

import pytest

from repro.iotdb import IoTDBConfig, StorageEngine
from repro.obs import NOOP_TRACER, Observability
from tests.conftest import make_delayed_stream


@pytest.fixture
def traced_engine():
    obs = Observability()
    engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=100), obs=obs)
    stream = make_delayed_stream(250, seed=13)
    for t, v in zip(stream.timestamps, stream.values):
        engine.write("root.d1", "s1", t, v)
    engine.query("root.d1", "s1", 0, 250)
    return engine, obs


class TestMetrics:
    def test_counters_and_histograms_populate(self, traced_engine):
        engine, obs = traced_engine
        reg = obs.registry
        assert reg.get("engine_points_written_total").value == 250
        assert reg.get("engine_queries_total").value == 1
        # Two threshold flushes of the sequence space.
        assert reg.get("engine_flushes_total").labels(space="seq").value == 2
        flush_hist = reg.get("engine_flush_seconds").labels(space="seq")
        assert flush_hist.count == 2
        assert flush_hist.sum > 0
        sort_hist = reg.get("engine_flush_sort_seconds").labels(space="seq")
        assert sort_hist.count == 2
        query_hist = reg.get("engine_query_seconds")
        assert query_hist.count == 1

    def test_every_read_records_once_with_its_elapsed_time(self):
        # Statistics-path aggregates and a TTL-expired query used to log a
        # literal 0.0; every read observes the time it actually took.
        obs = Observability()
        engine = StorageEngine.create(
            IoTDBConfig(memtable_flush_threshold=100, ttl=50), obs=obs
        )
        for t in range(100):
            engine.write("d", "s", t, float(t))
        hist = obs.registry.get("engine_query_seconds")
        reads = [
            lambda: engine.aggregate("d", "s", 60, 100),  # page statistics
            lambda: engine.aggregate("d", "s", 0, 40),  # wholly expired
            lambda: engine.query("d", "s", 0, 40),  # wholly expired
            lambda: engine.query("d", "s", 60, 100),
        ]
        for count, read in enumerate(reads, start=1):
            before = hist.sum
            read()
            assert obs.registry.get("engine_queries_total").value == count
            assert hist.count == count
            assert hist.sum > before
        engine.write("d", "s", 99, 1.0)  # a live rewrite forces the raw scan
        assert engine.aggregate("d", "s", 60, 100).last == 1.0
        assert obs.registry.get("engine_queries_total").value == 5
        assert hist.count == 5

    def test_sorter_bridge_labels_flush_and_query_sites(self, traced_engine):
        engine, obs = traced_engine
        invocations = obs.registry.get("sort_invocations_total")
        sites = {labels["site"] for labels, _ in invocations.children()}
        assert "flush" in sites
        assert "query" in sites
        name = engine.sorter.name
        assert invocations.labels(sorter=name, site="flush").value >= 2

    def test_memtable_writes_counter(self, traced_engine):
        _, obs = traced_engine
        assert obs.registry.get("memtable_writes_total").value == 250


class TestSpanTree:
    def test_write_flush_query_nesting(self, traced_engine):
        _, obs = traced_engine
        tracer = obs.tracer
        # A threshold flush nests under the write that triggered it (a
        # point write is an engine.write_batch span with points=1).
        write_span = next(
            s for s in tracer.iter_spans()
            if s.name == "engine.write_batch" and s.find("engine.flush")
        )
        assert write_span.attributes["points"] == 1
        flush_span = write_span.find("engine.flush")
        chunk_span = flush_span.find("flush.chunk")
        assert chunk_span is not None
        sort_span = chunk_span.find("sort")
        assert sort_span is not None
        assert sort_span.attributes["site"] == "flush"
        assert sort_span.duration >= 0
        # The query span holds its own (query-site) sort.
        query_span = tracer.find("engine.query")
        assert query_span is not None
        query_sort = query_span.find("sort")
        assert query_sort is not None
        assert query_sort.attributes["site"] == "query"

    def test_span_attributes_carry_workload_facts(self, traced_engine):
        _, obs = traced_engine
        chunk = obs.tracer.find("flush.chunk")
        assert chunk.attributes["device"] == "root.d1"
        assert chunk.attributes["points"] == 100
        assert chunk.attributes["deduped_points"] <= 100
        query = obs.tracer.find("engine.query")
        assert query.attributes["points"] == 250


class TestExports:
    def test_jsonlines_roundtrip(self, traced_engine):
        _, obs = traced_engine
        records = [json.loads(line) for line in obs.export_jsonlines().splitlines()]
        types = {r["type"] for r in records}
        assert types == {"metric", "span"}
        names = {r["name"] for r in records if r["type"] == "metric"}
        assert "engine_points_written_total" in names
        assert "sort_seconds" in names

    def test_prometheus_exposition(self, traced_engine):
        _, obs = traced_engine
        text = obs.export_prometheus()
        assert "# TYPE engine_points_written_total counter" in text
        assert 'engine_flushes_total{space="seq"} 2' in text


class TestDefaults:
    def test_default_engine_is_metrics_only(self):
        engine = StorageEngine.create()
        assert engine.obs.metrics_enabled
        assert engine.obs.tracer is NOOP_TRACER

    def test_describe_reads_from_the_registry(self):
        engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=50))
        stream = make_delayed_stream(120, seed=17)
        for t, v in zip(stream.timestamps, stream.values):
            engine.write("d", "s", t, v)
        snap = engine.describe()
        assert snap["points_written"] == 120
        assert snap["flushes"]["seq"] == 2
        assert snap["flushes"]["mean_seconds"] > 0
        assert "engine_points_written_total" in snap["metrics"]

    def test_engines_do_not_share_registries(self):
        a = StorageEngine.create()
        b = StorageEngine.create()
        a.write("d", "s", 1, 1.0)
        assert a.describe()["points_written"] == 1
        assert b.describe()["points_written"] == 0


class TestFacadeRemoved:
    def make_engine(self):
        engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=50))
        stream = make_delayed_stream(120, seed=19)
        for t, v in zip(stream.timestamps, stream.values):
            engine.write("d", "s", t, v)
        engine.query("d", "s", 0, 120)
        return engine

    def test_engine_metrics_facade_is_gone(self):
        engine = self.make_engine()
        assert not hasattr(engine, "metrics")
        import repro.iotdb as iotdb

        assert not hasattr(iotdb, "EngineMetrics")

    def test_registry_carries_the_old_facade_numbers(self):
        engine = self.make_engine()
        snap = engine.describe()
        assert snap["points_written"] == 120
        assert snap["flushes"]["seq"] == 2
        assert snap["flushes"]["unseq"] == 0
        queries = snap["metrics"]["engine_queries_total"]["samples"]
        assert queries == [{"labels": {}, "value": 1}]

    def test_flush_reports_property_is_the_supported_read(self):
        engine = self.make_engine()
        reports = engine.flush_reports
        assert len(reports) == 2
        # A copy, not an alias into engine internals.
        reports.clear()
        assert len(engine.flush_reports) == 2
