"""Model-based integration test: the engine vs a last-write-wins dict.

Hypothesis drives random interleavings of writes (duplicate and far-past
timestamps, in-order runs), flushes, compactions (both policies), queries
and aggregates against the full StorageEngine; a plain dict per column is
the reference model.  Whatever the operation order, every query must return
exactly the model's points sorted by time, and every aggregate must equal
the fold of those points.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.iotdb import IoTDBConfig, StorageEngine
from repro.iotdb.aggregation import is_close
from repro.iotdb.compaction import FullMergePolicy, OverlapDrivenPolicy

_DEVICES = ("d1", "d2")
_SENSOR = "s"

_write = st.tuples(
    st.just("write"),
    st.sampled_from(_DEVICES),
    st.integers(0, 300),  # timestamp: small range to force duplicates/late points
    st.floats(-100, 100, allow_nan=False),
)
# An in-order run, as a client batch: what gives sequence files tight spans
# (and so lets aggregates reach the page-statistics path).
_burst = st.tuples(
    st.just("burst"),
    st.sampled_from(_DEVICES),
    st.integers(0, 270),  # first timestamp
    st.integers(5, 30),  # run length
)
_flush = st.tuples(st.just("flush"), st.none(), st.none(), st.none())
_query = st.tuples(
    st.just("query"),
    st.sampled_from(_DEVICES),
    st.integers(0, 250),
    st.integers(1, 100),  # window width
)

_aggregate = st.tuples(
    st.just("aggregate"),
    st.sampled_from(_DEVICES),
    st.integers(0, 250),
    st.integers(1, 300),
)
_compact = st.tuples(
    st.just("compact"),
    st.none(),
    st.sampled_from(("full", "overlap")),
    st.integers(1, 2),  # overlap threshold
)

_ops = st.lists(
    st.one_of(_write, _burst, _flush, _query, _aggregate, _compact),
    min_size=1,
    max_size=120,
)


def _check_aggregate(agg, expected):
    """``expected``: the model's in-range ``(t, v)`` pairs, sorted by time."""
    values = [v for _, v in expected]
    assert agg.count == len(values)
    if not values:
        assert (agg.sum, agg.avg, agg.first, agg.last) == (None,) * 4
        return
    assert (agg.min_value, agg.max_value) == (min(values), max(values))
    assert (agg.first, agg.last) == (values[0], values[-1])
    assert is_close(agg.sum, float(sum(values)))
    assert is_close(agg.avg, float(sum(values)) / len(values))


@settings(max_examples=200, deadline=None)
@given(ops=_ops, sorter=st.sampled_from(("backward", "tim", "quick")))
def test_engine_matches_reference_model(ops, sorter):
    engine = StorageEngine.create(
        IoTDBConfig(sorter=sorter, memtable_flush_threshold=8)
    )
    model: dict[str, dict[int, float]] = {d: {} for d in _DEVICES}
    for kind, device, a, b in ops:
        if kind == "write":
            engine.write(device, _SENSOR, a, b)
            model[device][a] = b
        elif kind == "burst":
            run = range(a, a + b)
            engine.write_batch(device, _SENSOR, run, [float(t) for t in run])
            model[device].update((t, float(t)) for t in run)
        elif kind == "flush":
            engine.flush_all()
        elif kind == "compact":
            engine.compact(FullMergePolicy() if a == "full" else OverlapDrivenPolicy(b))
        else:
            start, width = a, b
            expected = sorted(
                (t, v) for t, v in model[device].items() if start <= t < start + width
            )
            if kind == "aggregate":
                _check_aggregate(
                    engine.aggregate(device, _SENSOR, start, start + width), expected
                )
                continue
            result = engine.query(device, _SENSOR, start, start + width)
            assert result.timestamps == [t for t, _ in expected]
            assert result.values == [v for _, v in expected]
    # Final full-range check for both devices.
    for device in _DEVICES:
        result = engine.query(device, _SENSOR, 0, 301)
        expected = sorted(model[device].items())
        assert result.timestamps == [t for t, _ in expected]
        assert result.values == [v for _, v in expected]
        _check_aggregate(engine.aggregate(device, _SENSOR, 0, 301), expected)
