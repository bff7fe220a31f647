"""S2: property tests for the sequence/unsequence separation invariants.

The paper's separation policy promises two things the rest of the engine
builds on:

* every written point lands in **exactly one** space (routed counts are a
  partition of the writes);
* the **sequence working memtable never holds a point at or below its
  device's watermark** — that is what keeps flush-time disorder
  "not-too-distant" and late points out of the sorter's way.

Checked here against arbitrary interleavings of in-order and late writes,
across devices, with flushes (which advance the watermark) happening at
arbitrary thresholds mid-stream — and, below the engine, the batch split
itself against a per-point reference router.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.iotdb import IoTDBConfig, SeparationPolicy, Space, StorageEngine

_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),   # device index
        st.integers(min_value=0, max_value=1),   # sensor index
        st.integers(min_value=0, max_value=400),  # timestamp
    ),
    min_size=1,
    max_size=150,
)


def _seq_memtable_respects_watermark(engine) -> bool:
    shard = engine.shards[0]
    with shard._lock:
        seq = shard._working[Space.SEQUENCE]
    for device, _sensor, tvlist in seq.iter_chunks():
        watermark = engine.separation.watermark(device)
        if watermark is None:
            continue
        if min(tvlist.timestamps()) <= watermark:
            return False
    return True


@settings(max_examples=60)
@given(ops=_ops, threshold=st.integers(min_value=5, max_value=60))
def test_every_point_lands_in_exactly_one_space(ops, threshold):
    engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=threshold))
    for d, s, t in ops:
        engine.write(f"d{d}", f"s{s}", t, float(t))
    counts = engine.separation.routed_counts()
    assert counts[Space.SEQUENCE] + counts[Space.UNSEQUENCE] == len(ops)


@settings(max_examples=60)
@given(ops=_ops, threshold=st.integers(min_value=5, max_value=60))
def test_sequence_memtable_never_below_watermark(ops, threshold):
    engine = StorageEngine.create(IoTDBConfig(memtable_flush_threshold=threshold))
    for d, s, t in ops:
        engine.write(f"d{d}", f"s{s}", t, float(t))
        assert _seq_memtable_respects_watermark(engine)


@settings(max_examples=40)
@given(ops=_ops, threshold=st.integers(min_value=5, max_value=60))
def test_invariant_survives_deferred_flushing(ops, threshold):
    engine = StorageEngine.create(
        IoTDBConfig(memtable_flush_threshold=threshold, deferred_flush=True)
    )
    for i, (d, s, t) in enumerate(ops):
        engine.write(f"d{d}", f"s{s}", t, float(t))
        if i % 37 == 36:
            engine.drain_flushes()
        assert _seq_memtable_respects_watermark(engine)
    engine.drain_flushes()
    assert _seq_memtable_respects_watermark(engine)


def _reference_route(watermarks, enabled, device, t) -> Space:
    """The per-point rule of paper §II: at or below the watermark is late."""
    watermark = watermarks.get(device) if enabled else None
    if watermark is not None and t <= watermark:
        return Space.UNSEQUENCE
    return Space.SEQUENCE


@st.composite
def _split_step(draw):
    """One batch plus where its device's watermark sits relative to it."""
    ts = draw(st.lists(st.integers(min_value=-50, max_value=50), max_size=30))
    where = draw(st.sampled_from(["keep", "none", "below", "above", "inside", "equal"]))
    watermark = None
    if ts and where == "below":
        watermark = min(ts) - draw(st.integers(min_value=1, max_value=10))
    elif ts and where == "above":
        watermark = max(ts) + draw(st.integers(min_value=0, max_value=10))
    elif ts and where == "inside":
        watermark = draw(st.integers(min_value=min(ts), max_value=max(ts)))
    elif ts and where == "equal":
        watermark = draw(st.sampled_from(ts))
    device = draw(st.sampled_from(["d0", "d1"]))
    as_tuple = draw(st.booleans())
    return device, ts, watermark, as_tuple


@settings(max_examples=200)
@given(steps=st.lists(_split_step(), min_size=1, max_size=6), enabled=st.booleans())
def test_split_matches_a_per_point_router(steps, enabled):
    policy = SeparationPolicy(enabled=enabled)
    expected_counts = {Space.SEQUENCE: 0, Space.UNSEQUENCE: 0}
    for device, ts, watermark, as_tuple in steps:
        if watermark is not None:
            policy.update_watermark(device, watermark)
        vs = [f"v{t}" for t in ts]
        batch_ts, batch_vs = (tuple(ts), tuple(vs)) if as_tuple else (ts, vs)
        routes = [
            _reference_route(policy._watermarks, enabled, device, t) for t in ts
        ]
        expected = []
        for space in (Space.SEQUENCE, Space.UNSEQUENCE):
            part = [(t, v) for t, v, r in zip(ts, vs, routes) if r is space]
            expected_counts[space] += len(part)
            if part:
                expected.append((space, [t for t, _ in part], [v for _, v in part]))
        parts = policy.split(device, batch_ts, batch_vs)
        assert [(space, list(pt), list(pv)) for space, pt, pv in parts] == expected
        assert policy.routed_counts() == expected_counts
