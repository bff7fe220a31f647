"""Differential testing: batch size must be invisible to readers.

The batch is the engine's only unit of work (``engine.write`` is
``write_batch`` of one), so the property is *batch-size invariance*: the
same stream cut into batches at arbitrary boundaries — the generated
batches whole, all batches of one point, or any cut in between — must
produce *identical* storage: the same query and aggregation answers, and —
when flush timing is pinned (a threshold the workload never reaches,
explicit ``flush_all`` at the same stream positions) — byte-identical
sealed TsFiles, across both a single-shard and a four-shard engine.  Batch
size may change only how many locks are taken and WAL frames written,
never what lands on disk.

WAL replay equivalence is covered by crashing the engines before any
flush: one log is all one-record frames, the others are larger frames, and
recovery must reconstruct the same data from any framing.  (Replay of the
legacy single-record frame *kind* is pinned in ``test_wal_batch.py``.)
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iotdb import IoTDBConfig, StorageEngine

DEVICES = [f"root.sg.d{i}" for i in range(4)]
SENSORS = ["s0", "s1"]

# One batch: a device, a sensor, and that batch's (lateness, value) points.
_batches = st.lists(
    st.tuples(
        st.integers(0, len(DEVICES) - 1),
        st.integers(0, len(SENSORS) - 1),
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(-1000, 1000)),
            min_size=0,
            max_size=20,
        ),
    ),
    min_size=1,
    max_size=25,
)


# How a stream is re-cut: sub-batch sizes, cycled over each generated batch.
# ``None`` keeps the generated batches whole; ``[1]`` is point-by-point.
_cuts = st.lists(st.integers(1, 7), min_size=1, max_size=6)


def _cut(ts, vs, sizes):
    """``(ts, vs)`` split into consecutive sub-batches of the cycled sizes."""
    if sizes is None:
        yield ts, vs
        return
    start = index = 0
    while start < len(ts):
        end = start + sizes[index % len(sizes)]
        yield ts[start:end], vs[start:end]
        start, index = end, index + 1


def _materialise(batches):
    """Turn the strategy output into concrete per-batch writes.

    Timestamps are derived from a per-device arrival clock minus the
    lateness, exactly as the shard-differential suite does, so the streams
    are delay-only-ish with genuine disorder.
    """
    next_t = {d: 0 for d in DEVICES}
    horizon = 1
    concrete = []
    for device_i, sensor_i, points in batches:
        device = DEVICES[device_i]
        ts, vs = [], []
        for lateness, value in points:
            t = max(0, next_t[device] - lateness)
            next_t[device] += 2
            horizon = max(horizon, t + 1)
            ts.append(t)
            vs.append(float(value))
        concrete.append((device, SENSORS[sensor_i], ts, vs))
    return concrete, horizon


def _config(tmp_path, name, shards):
    return IoTDBConfig(
        data_dir=tmp_path / name,
        wal_enabled=True,
        shards=shards,
        # Never reached: flushes happen only at the explicit flush_all
        # barriers, so both paths seal identical chunk sets.
        memtable_flush_threshold=10**9,
    )


def _ingest(engine, concrete, sizes, flush_every=None):
    for index, (device, sensor, ts, vs) in enumerate(concrete):
        for sub_ts, sub_vs in _cut(ts, vs, sizes):
            if len(sub_ts) == 1:
                engine.write(device, sensor, sub_ts[0], sub_vs[0])
            else:
                engine.write_batch(device, sensor, sub_ts, sub_vs)
        if flush_every and (index + 1) % flush_every == 0:
            engine.flush_all()


def _assert_same_answers(reference, candidate, horizon):
    for device in DEVICES:
        for sensor in SENSORS:
            for start, end in ((0, horizon), (horizon // 3, 2 * horizon // 3 + 1)):
                a = reference.query(device, sensor, start, end)
                b = candidate.query(device, sensor, start, end)
                assert a.timestamps == b.timestamps
                assert a.values == b.values
            agg_a = reference.aggregate(device, sensor, 0, horizon)
            agg_b = candidate.aggregate(device, sensor, 0, horizon)
            for field in ("count", "sum", "min_value", "max_value", "first", "last"):
                assert agg_a.get(field) == agg_b.get(field), field


def _sealed_files(data_dir):
    return {
        path.relative_to(data_dir): path.read_bytes()
        for path in sorted(data_dir.rglob("*.tsfile"))
    }


@settings(max_examples=20, deadline=None)
@given(batches=_batches, cut=_cuts, shards=st.sampled_from([1, 4]))
def test_batch_writes_equal_point_writes(tmp_path_factory, batches, cut, shards):
    tmp_path = tmp_path_factory.mktemp("batch-diff")
    concrete, horizon = _materialise(batches)
    engines = {}
    for name, sizes in (("whole", None), ("point", [1]), ("cut", cut)):
        engine = StorageEngine.create(_config(tmp_path, f"{name}-{shards}", shards))
        _ingest(engine, concrete, sizes, flush_every=8)
        engine.flush_all()
        engines[name] = engine
    for name in ("point", "cut"):
        _assert_same_answers(engines["whole"], engines[name], horizon)
    for engine in engines.values():
        engine.close()
    # Identical flush barriers => the sealed TsFiles must match byte for
    # byte, not merely answer queries identically.
    whole_files = _sealed_files(tmp_path / f"whole-{shards}")
    for name in ("point", "cut"):
        assert _sealed_files(tmp_path / f"{name}-{shards}") == whole_files, name


@settings(max_examples=15, deadline=None)
@given(batches=_batches, cut=_cuts, shards=st.sampled_from([1, 4]))
def test_batch_wal_replay_equals_point_wal_replay(
    tmp_path_factory, batches, cut, shards
):
    # Crash the engines before any flush: everything lives in the WAL, as
    # one-record frames in one log and larger frames in the others, and
    # recovery must reconstruct identical answers from any framing.
    tmp_path = tmp_path_factory.mktemp("batch-wal-diff")
    concrete, horizon = _materialise(batches)
    reopened = {}
    for name, sizes in (("whole", None), ("point", [1]), ("cut", cut)):
        config = _config(tmp_path, f"{name}-{shards}", shards)
        engine = StorageEngine.create(config)
        _ingest(engine, concrete, sizes)
        del engine  # crash: no close(), recovery must replay the WAL
        reopened[name] = StorageEngine.open(config)
    for name in ("point", "cut"):
        _assert_same_answers(reopened["whole"], reopened[name], horizon)
    for engine in reopened.values():
        engine.close()


def test_mixed_frame_log_recovers_every_acknowledged_point(tmp_path):
    # One engine interleaves point and batch writes, so its WAL segments
    # mix one-record and many-record frames; recovery must surface all.
    config = _config(tmp_path, "mixed", shards=1)
    engine = StorageEngine.create(config)
    engine.write("root.sg.d0", "s0", 1, 1.0)
    engine.write_batch("root.sg.d0", "s0", [5, 3, 4], [5.0, 3.0, 4.0])
    engine.write("root.sg.d0", "s0", 2, 2.0)
    engine.write_batch("root.sg.d0", "s0", [], [])
    engine.write_batch("root.sg.d0", "s0", [6], [6.0])
    del engine  # crash before any flush
    recovered = StorageEngine.open(config)
    result = recovered.query("root.sg.d0", "s0", 0, 10)
    assert result.timestamps == [1, 2, 3, 4, 5, 6]
    assert result.values == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    recovered.close()
