"""Span tracing for the traced benchmark pass, recorded from outside the engine.

The untraced pass gives the end-to-end numbers; this module gives the
per-layer ones.  :class:`Tracer` wraps a fixed table of *public* callables
of ``repro.iotdb`` (and ``Sorter.timed_sort`` for ``core``) with timing
spans — name, start, end, parent — kept in memory and written out only when
the run ends.  A layer's self time is its span minus the part its child
spans cover, so the self times of all spans add up to the root spans, and
the root spans are the calls the harness times: that sum is what
``trace.reconcile_ratio`` checks.

Per-point callables (``SeparationPolicy.route``, ``MemTable.write`` during
WAL replay) are deliberately not wrapped: a span per point would cost more
than the call.  They are counted through the engine's own counters and
their time shows as the self time of the span around them.

Spans live in the benchmark, not in the program: the guide's rule for the
change that defines a benchmark.  One client thread, so one span stack.
"""

from __future__ import annotations

import json
from collections import defaultdict
from statistics import median
from time import perf_counter

#: Phases whose spans feed the per-layer metrics.  Everything the harness
#: does outside a timed region (oracle reads, tree copies, WAL-only tail
#: writes) runs with the tracer paused.
TIMED_PHASES = ("ingest", "query", "aggregate", "recover")


class _TimedHandle:
    """A file handle whose ``write``/``flush`` calls are spans.

    Every byte the engine persists goes through a handle from
    ``LocalDirStore.open_write``; this is where the ``backends.write``
    layer is measured.  Everything else (seek/read/close/...) delegates.
    """

    def __init__(self, handle, tracer: "Tracer") -> None:
        self._handle = handle
        self.write = tracer.wrap(handle.write, "backends.write")
        self.flush = tracer.wrap(handle.flush, "backends.write")

    def __getattr__(self, name):
        return getattr(self._handle, name)


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent_index, phase)``; a slot is reserved
        #: when a span opens so children can point at it.
        self.spans: list[tuple | None] = []
        #: Sort counters by call site, read from each ``TimedResult``.
        self.sort_stats: dict[str, dict] = defaultdict(
            lambda: {"comparisons": 0, "moves": 0, "overlap_total": 0,
                     "merges": 0, "block_sizes": []}
        )
        self.items: dict[str, int] = defaultdict(int)
        self.phase = "setup"
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    def wrap(self, fn, name: str):
        """``fn`` timed as a span called ``name``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.phase)

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name: str):
        """A generator function timed by the time spent *inside* it.

        The consumer's work between two items is not the generator's; the
        span's end is ``start + busy time``, and the yielded items are
        counted under ``name``.  The span is on the stack only while the
        generator itself runs, so spans it opens are its children and spans
        the consumer opens between two items are not.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            generator = fn(*args, **kwargs)
            if not self.active:
                yield from generator
                return
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            busy = 0.0
            count = 0
            first = perf_counter()
            try:
                while True:
                    stack.append(index)
                    start = perf_counter()
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        busy += perf_counter() - start
                        stack.pop()
                    count += 1
                    yield item
            finally:
                spans[index] = (name, first, first + busy, parent, self.phase)
                self.items[name] += count

        traced.__wrapped__ = fn
        return traced

    # -- the patch table -----------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda fn: self.wrap(fn, name))

    def _note_sort(self, site: str, timed) -> None:
        stats = timed.stats
        bucket = self.sort_stats[site]
        bucket["comparisons"] += stats.comparisons
        bucket["moves"] += stats.moves
        bucket["overlap_total"] += stats.overlap_total
        bucket["merges"] += stats.merges
        if stats.block_size is not None:
            bucket["block_sizes"].append(stats.block_size)

    def install(self) -> None:
        """Patch the table in; :meth:`uninstall` restores every original."""
        from repro.core.sorter import Sorter
        from repro.iotdb import encoding, engine, shard
        from repro.iotdb.backends.local import LocalDirStore
        from repro.iotdb.interval_index import IntervalIndex
        from repro.iotdb.memtable import MemTable
        from repro.iotdb.query import TimeRangeQueryExecutor
        from repro.iotdb.tsfile import TsFileReader, TsFileWriter
        from repro.iotdb.wal import SegmentedWal

        span = self._span
        # write path
        span(engine.StorageEngine, "write_batch", "engine.write_batch")
        span(engine.StorageEngine, "flush_all", "engine.flush_all")
        span(shard.StorageShard, "write_batch", "shard.write_batch")
        span(SegmentedWal, "append_batch", "wal.append_batch")
        span(MemTable, "write_batch", "memtable.write_batch")
        # shard.py binds flush_memtable by name at import, so the module
        # attribute it calls through is the one to patch.
        span(shard, "flush_memtable", "flush")
        span(TsFileWriter, "write_chunk", "tsfile.write_chunk")
        span(TsFileWriter, "close", "tsfile.close")
        span(IntervalIndex, "save_to", "interval_index.save")

        def sorted_at(fn):
            # Span name and counters both depend on the call's ``site``.
            by_site = {
                site: self.wrap(fn, "sort." + site)
                for site in ("flush", "query", "direct")
            }

            def traced(*args, **kwargs):
                site = kwargs.get("site", "direct")
                timed = by_site[site](*args, **kwargs)
                if self.active:
                    self._note_sort(site, timed)
                return timed

            return traced

        self._patch(Sorter, "timed_sort", sorted_at)
        for cls in _all_subclasses(encoding.Encoder):
            if "encode" in cls.__dict__:
                span(cls, "encode", "encoding.encode")
            if "decode" in cls.__dict__:
                span(cls, "decode", "encoding.decode")
        # backend: whole-blob calls, plus every streamed write and flush
        span(LocalDirStore, "put", "backends.write")
        span(LocalDirStore, "get", "backends.read")
        span(LocalDirStore, "rename_atomic", "backends.rename")
        span(LocalDirStore, "delete", "backends.delete")
        span(LocalDirStore, "list", "backends.list")
        span(LocalDirStore, "open_read", "backends.open")
        self._patch(
            LocalDirStore,
            "open_write",
            lambda fn: self.wrap(
                lambda *a, **k: _TimedHandle(fn(*a, **k), self), "backends.open"
            ),
        )
        # read path
        span(shard.StorageShard, "query", "shard.query")
        span(shard.StorageShard, "aggregate", "aggregation")
        span(TimeRangeQueryExecutor, "execute", "query.merge")
        span(IntervalIndex, "candidates", "interval_index.candidates")
        span(TsFileReader, "query_range", "tsfile.query_range")
        # compaction and recovery
        span(engine.StorageEngine, "compact", "compaction")
        span(engine.StorageEngine, "open", "recover")
        span(shard.StorageShard, "recover", "shard.recover")
        span(engine, "read_meta", "meta.resolve")
        span(IntervalIndex, "load_from", "interval_index.load")
        span(TsFileReader, "__init__", "tsfile.open")
        self._patch(
            SegmentedWal, "replay", lambda fn: self.wrap_generator(fn, "wal.replay")
        )

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self.active = False

    # -- reading the spans back ----------------------------------------------

    def layer_times(self, phases=TIMED_PHASES) -> dict[str, dict]:
        """``{name: {"total", "self", "calls"}}`` over spans of ``phases``."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _phase in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layers: dict[str, dict] = defaultdict(
            lambda: {"total": 0.0, "self": 0.0, "calls": 0}
        )
        for index, (name, start, end, _parent, phase) in enumerate(self.spans):
            if phase not in phases:
                continue
            layer = layers[name]
            layer["total"] += end - start
            layer["self"] += (end - start) - covered[index]
            layer["calls"] += 1
        return layers

    def children_named(self, parent_name: str, child_name: str) -> int:
        """How many ``parent_name`` spans have a direct ``child_name`` child."""
        parents = {
            span[3]
            for span in self.spans
            if span[0] == child_name
            and span[3] >= 0
            and self.spans[span[3]][0] == parent_name
        }
        return len(parents)

    def write(self, path) -> None:
        """One JSON object per span: name, start, end, parent, phase."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, phase) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent, "phase": phase}
                    )
                )
                out.write("\n")


def _all_subclasses(cls) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def layer_metrics(tracer: Tracer, traced, plain) -> dict:
    """``{metric: (value, unit, samples)}`` — the per-layer numbers of one
    traced pass (``traced`` is its ``workloads.Pass``, ``plain`` the untraced
    pass of the same size run before it), over the timed phases only;
    compaction, a single shot, reports beside them.

    Times are sums over the pass, so they are shares of ``trace.timed_s``,
    not absolutes to compare across run lengths.
    """
    layers = tracer.layer_times()
    empty = {"total": 0.0, "self": 0.0, "calls": 0}

    def layer(name: str) -> dict:
        return layers.get(name, empty)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out: dict[str, tuple[float, str, int]] = {}

    def seconds(metric: str, name: str, kind: str) -> None:
        out[metric] = (layer(name)[kind], "s", layer(name)["calls"])

    def count(metric: str, value, samples: int = 1) -> None:
        out[metric] = (value, "count", samples)

    before, after = traced.before_ingest, traced.after_ingest
    routed = after["routed"] - before["routed"]
    flushes = after["flushes"] - before["flushes"]
    sort = tracer.sort_stats["flush"]
    reads = traced.query_stats
    queries = len(traced.query_s)

    # write path
    seconds("engine.write_batch.self_s", "engine.write_batch", "self")
    seconds("shard.write_batch.self_s", "shard.write_batch", "self")
    count("separation.route.calls", routed)
    out["separation.unseq_ratio"] = (
        ratio(after["unseq"] - before["unseq"], routed), "ratio", routed
    )
    seconds("wal.append_batch.s", "wal.append_batch", "total")
    count("wal.append_batch.calls", layer("wal.append_batch")["calls"])
    count("wal.bytes_appended",
          after["wal"]["bytes_appended"] - before["wal"]["bytes_appended"])
    count("wal.flushes", after["wal"]["flushes"] - before["wal"]["flushes"])
    seconds("memtable.write_batch.s", "memtable.write_batch", "total")
    seconds("flush.s", "flush", "total")
    count("flush.count", flushes)
    count("flush.points", after["flush_points"] - before["flush_points"], flushes)
    seconds("sort.flush_s", "sort.flush", "total")
    count("sort.comparisons", sort["comparisons"])
    count("sort.moves", sort["moves"])
    count("sort.block_size_p50",
          median(sort["block_sizes"]) if sort["block_sizes"] else 0,
          len(sort["block_sizes"]))
    out["sort.overlap_mean"] = (
        ratio(sort["overlap_total"], sort["merges"]), "points", sort["merges"]
    )
    seconds("encoding.encode.s", "encoding.encode", "total")
    count("encoding.encode.calls", layer("encoding.encode")["calls"])
    seconds("tsfile.write_chunk.self_s", "tsfile.write_chunk", "self")
    out["tsfile.bytes_written"] = (
        after["file_bytes"] - before["file_bytes"], "bytes", flushes
    )
    seconds("backends.write.s", "backends.write", "total")
    count("backends.write.calls", layer("backends.write")["calls"])
    count("backends.rename.calls", layer("backends.rename")["calls"])
    seconds("interval_index.save.s", "interval_index.save", "total")
    count("interval_index.save.calls", layer("interval_index.save")["calls"])
    # read path
    seconds("sort.query_s", "sort.query", "total")
    seconds("shard.query.self_s", "shard.query", "self")
    seconds("interval_index.candidates.s", "interval_index.candidates", "total")
    out["interval_index.pruned_ratio"] = (
        ratio(reads["files_pruned"], reads["files_pruned"] + reads["files_opened"]),
        "ratio", queries,
    )
    seconds("tsfile.query_range.self_s", "tsfile.query_range", "self")
    # One time column and one value column are decoded per page read.
    count("tsfile.pages_read", layer("encoding.decode")["calls"] // 2)
    out["tsfile.scan_ratio"] = (
        ratio(reads["returned"], reads["scanned"]), "ratio", queries
    )
    seconds("encoding.decode.s", "encoding.decode", "total")
    seconds("query.merge.self_s", "query.merge", "self")
    seconds("aggregation.s", "aggregation", "total")
    aggregates = layer("aggregation")["calls"]
    out["aggregation.fast_path_ratio"] = (
        ratio(aggregates - tracer.children_named("aggregation", "shard.query"),
              aggregates),
        "ratio", aggregates,
    )
    # recovery
    seconds("recover.s", "recover", "total")
    count("recover.files_opened", layer("tsfile.open")["calls"])
    seconds("wal.replay.s", "wal.replay", "total")
    count("wal.replay.points", tracer.items["wal.replay"])
    seconds("interval_index.load.s", "interval_index.load", "total")
    seconds("meta.resolve.s", "meta.resolve", "total")
    # compaction: one pass after everything else
    report = traced.compaction
    out["compaction.s"] = (report.seconds if report else 0.0, "s", 1)
    count("compaction.points_rewritten", report.points_written if report else 0)
    count("compaction.files_before", report.files_before if report else 0)
    count("compaction.files_after", report.files_after if report else 0)
    # what a user sees but no bound can hold, from the untraced pass
    out.update(plain.ungated())
    # the trace itself
    out["trace.timed_s"] = (traced.timed_seconds, "s", 1)
    out["trace.overhead_ratio"] = (
        ratio(traced.timed_seconds, plain.timed_seconds), "ratio", 1
    )
    out["trace.reconcile_ratio"] = (
        ratio(sum(entry["self"] for entry in layers.values()), traced.timed_seconds),
        "ratio", len(layers),
    )
    return out
