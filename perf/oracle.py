"""The reference model every benchmark answer is checked against.

A last-write-wins ``dict`` per series, fed the batches the engine has
acknowledged.  It knows nothing of memtables, files or spaces — only what a
user was told is stored — so any read that disagrees with it is a wrong
answer.  Checks never raise: a mismatch is returned as ``False`` and the
harness counts it as a failed operation, so one bad answer cannot hide the
ones after it.  All of this runs outside the timed spans.
"""

from __future__ import annotations

from math import isclose


class Oracle:
    """What the engine must contain, by construction of the workload."""

    def __init__(self) -> None:
        self._series: dict[str, dict[int, float]] = {}
        self.points = 0

    def apply(self, device: str, timestamps, values) -> None:
        """Record one acknowledged batch."""
        series = self._series.setdefault(device, {})
        before = len(series)
        series.update(zip(timestamps, values))
        self.points += len(series) - before

    def devices(self) -> list[str]:
        return list(self._series)

    def expected(self, device: str, start: int, end: int) -> tuple[list[int], list[float]]:
        """The model's answer to ``start <= time < end``, in time order."""
        series = self._series.get(device, {})
        if end - start <= len(series):
            times = [t for t in range(start, end) if t in series]
        else:
            times = sorted(t for t in series if start <= t < end)
        return times, [series[t] for t in times]

    def check_query(self, device: str, start: int, end: int, result) -> bool:
        """Timestamps and values of a ``QueryResult`` match the model exactly."""
        times, values = self.expected(device, start, end)
        return list(result.timestamps) == times and list(result.values) == values

    def check_aggregate(self, device: str, start: int, end: int, result) -> bool:
        """count/sum/min/max/first/last of an ``AggregationResult``."""
        _times, values = self.expected(device, start, end)
        if result.count != len(values):
            return False
        if not values:
            return True
        return (
            isclose(result.sum, sum(values), rel_tol=1e-9, abs_tol=1e-9)
            and isclose(result.min_value, min(values))
            and isclose(result.max_value, max(values))
            and isclose(result.first, values[0])
            and isclose(result.last, values[-1])
        )

    def check_device(self, engine, device: str) -> bool:
        """Every acknowledged point of ``device`` is readable from ``engine``."""
        series = self._series.get(device, {})
        if not series:
            return True
        start, end = min(series), max(series) + 1
        return self.check_query(device, start, end, engine.query(device, "s1", start, end))

    def check_total(self, engine) -> bool:
        """The engine returns exactly as many points as were acknowledged."""
        total = 0
        for device, series in self._series.items():
            if series:
                total += len(engine.query(device, "s1", min(series), max(series) + 1))
        return total == self.points
